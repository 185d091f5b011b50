"""Shared slow fixtures: solved profiles, ground states, reference scalars.

Everything heavy is session-scoped so the acceptance suite and the module
tests reuse the same converged solves.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracnls
from fracnls.solvers import fractional_ground_state, local_ground_state, petviashvili_mass_constrained
from fracnls.spectral import SpectralGrid
from fracnls.symbols import ModelParams, lambda_of_s
from oracles import gradient_flow_minimize

S_DEFAULT = 1.5
N_PATH = (0.4, 0.2, 0.1, 0.05)
SOLVE_TOL = 1e-11


@pytest.fixture(scope="session")
def lam15():
    rho0, lam = lambda_of_s(S_DEFAULT)
    return {"rho0": rho0, "lam": lam}


@pytest.fixture(scope="session")
def grid_main():
    # large enough that torus bias sits below the smallest multiplier gap
    return SpectralGrid(256.0, 16384)


@pytest.fixture(scope="session")
def grid_desk():
    return SpectralGrid(64.0, 4096)


@pytest.fixture(scope="session")
def local_R(grid_main, lam15):
    return local_ground_state(S_DEFAULT, lam15["lam"], grid_main)


@pytest.fixture(scope="session")
def petviashvili_path(grid_main):
    """Mass-constrained solves along the continuation masses, warm-started."""
    results = {}
    init = None
    for n in N_PATH:
        params = ModelParams(S_DEFAULT, n)
        res = petviashvili_mass_constrained(grid_main, params, init=init, tol=SOLVE_TOL)
        results[n] = res
        init = res.profile
    return results


@pytest.fixture(scope="session")
def flow_path(grid_main):
    results = {}
    init = None
    for n in N_PATH:
        params = ModelParams(S_DEFAULT, n)
        res = gradient_flow_minimize("Y_N", params.s0, init, SOLVE_TOL, grid=grid_main, params=params)
        results[n] = res
        init = res.profile
    return results


@pytest.fixture(scope="session")
def ground_state_15():
    grid = SpectralGrid(1024.0, 32768)
    q, c_s, mass = fractional_ground_state(S_DEFAULT, grid)
    return {"Q": q, "C_s": c_s, "mass": mass}


@pytest.fixture(scope="session")
def lin_solve():
    """Converged solve on the reduced grid used for dense eigenanalysis."""
    grid = SpectralGrid(128.0, 1024)
    params = ModelParams(S_DEFAULT, 0.1)
    res = petviashvili_mass_constrained(grid, params, tol=SOLVE_TOL)
    return {"grid": grid, "params": params, "result": res}


def smooth_random_profile(grid, rng, width=2.0, mass=None):
    """Random band-limited field with a Gaussian-ish spectral envelope."""
    envelope = np.exp(-np.abs(grid.xi) * width)
    coeffs = envelope * (rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points))
    vals = grid.from_fourier_coefficients(coeffs)
    from fracnls.spectral import Profile

    prof = Profile(grid, vals)
    if mass is not None:
        prof = Profile(grid, vals * np.sqrt(mass / prof.mass()))
    return prof


def count_transforms(monkeypatch):
    """Record the length of every `spectral.fft`/`ifft` call, through each module's binding of them."""
    from fracnls import linearized, solvers, spectral

    lengths = []
    originals = {name: getattr(spectral, name) for name in ("fft", "ifft")}
    for name, transform in originals.items():

        def counted(values, _transform=transform):
            lengths.append(np.shape(values)[-1])
            return _transform(values)

        for module in (spectral, solvers, linearized):
            monkeypatch.setattr(module, name, counted)
    return lengths


def fresh_interpreter(script: str, *args: str, env: dict | None = None, timeout: float = 120) -> str:
    """Standard output of ``script`` run with ``args`` in a new interpreter that imports this checkout's fracnls.

    ``env`` overrides variables of this process's environment (None unsets
    one); this checkout's ``src`` goes first on PYTHONPATH.  A nonzero exit
    fails the calling test with the interpreter's standard error.
    """
    environment = {name: value for name, value in {**os.environ, **(env or {})}.items() if value is not None}
    src = str(Path(fracnls.__file__).parents[1])
    environment["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environment.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=environment, capture_output=True, text=True,
                          timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout

"""Shared slow fixtures: solved profiles, ground states, reference scalars.

Everything heavy is session-scoped so the acceptance suite and the module
tests reuse the same converged solves.
"""

import numpy as np
import pytest

from fracnls.solvers import fractional_ground_state, local_ground_state, petviashvili_mass_constrained
from fracnls.spectral import make_grid
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
    return make_grid(256.0, 16384)


@pytest.fixture(scope="session")
def grid_desk():
    return make_grid(64.0, 4096)


@pytest.fixture(scope="session")
def local_R(grid_main, lam15):
    return local_ground_state(S_DEFAULT, lam15["lam"], grid_main)


@pytest.fixture(scope="session")
def petviashvili_path(grid_main):
    """Mass-constrained solves along the continuation masses, warm-started."""
    results = {}
    init = None
    for n in N_PATH:
        params = ModelParams(S_DEFAULT, 0.0, n)
        res = petviashvili_mass_constrained(grid_main, params, init=init, tol=SOLVE_TOL)
        results[n] = res
        init = res.profile
    return results


@pytest.fixture(scope="session")
def flow_path(grid_main):
    results = {}
    init = None
    for n in N_PATH:
        params = ModelParams(S_DEFAULT, 0.0, n)
        res = gradient_flow_minimize("Y_N", params.s0, init, SOLVE_TOL, grid=grid_main, params=params)
        results[n] = res
        init = res.profile
    return results


@pytest.fixture(scope="session")
def ground_state_15():
    grid = make_grid(1024.0, 32768)
    q, c_s, mass = fractional_ground_state(S_DEFAULT, grid)
    return {"Q": q, "C_s": c_s, "mass": mass}


@pytest.fixture(scope="session")
def lin_solve():
    """Converged solve on the reduced grid used for dense eigenanalysis."""
    grid = make_grid(128.0, 1024)
    params = ModelParams(S_DEFAULT, 0.0, 0.1)
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
        prof = prof * np.sqrt(mass / prof.mass())
    return prof

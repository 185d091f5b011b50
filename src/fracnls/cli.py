"""Batch front end: per-point pipelines for the limit claims, persistence.

Subcommands map one-to-one to the verification pipelines; every pass/fail
entry carries the measured value and its threshold.  Each command is a
stage applied to every (s, N) point, plus an optional per-s summary; the
points run in-process or on a worker pool with the same result.  Identical
configurations reproduce byte-identical CSV/JSON (timings and the
points' solver statistics live in a separate metadata file), serial and
parallel runs produce identical records, and cached solves replay exactly.
A point that the settings cannot resolve is refused: its error is
recorded, and the run exits as on a configuration error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import io
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .asymptotics import find_root_f1, kernel_expansion_check, tail_fit, verify_f2_rootless
from .cache import cached_solve, default_cache_dir, digest, write_atomically
from .linearized import build_linearized, kernel_diagnostics
from .renorm import gauge_fix
from .solvers import fractional_ground_state, local_ground_state, petviashvili_mass_constrained
from .spectral import Profile, SpectralGrid, UnresolvedError
from .symbols import ModelParams, lambda_of_s, symbol_nN

EXIT_OK = 0
EXIT_CRITERION_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_FAILURE = 3


# at s = 1.8 the decay length 1/sqrt(lambda(s)) is 2610, so a resolved torus
# is of order 1e5 long; nearer s = 2, lambda(s) and kappa underflow
_S_SOLVABLE_MAX = 1.8

# the relative error of gn-constant's mass threshold on L = 256 against
# 1024/32768 is 6.8e-2, 3.5e-3 and 3.7e-5 at s = 1.1 at spacings 1/2, 1/4 and
# 1/8, and no smaller at 1/16, where the torus length sets the error
_GN_SPACING_MAX = 1.0 / 8.0


def _constant_ground_state_length(s: float) -> float:
    """L*_Q = 2 pi/(2s)^(1/s): the longest torus on which gn-constant's solve can end in the constant state.

    Q = 1 solves |D|^s Q + Q = Q^{2s+1} on every torus, and its
    linearization on the lowest mode 2 pi/L is (2 pi/L)^s - 2s, so Q = 1 is
    stable exactly when L <= L*_Q: 3.068, 3.021 and 3.142 at s = 1.1, 1.5
    and 2.  On M = 256 the solve found the constant state at 0.97 L*_Q and a
    non-constant Q from 1.01 L*_Q up (s = 1.1 to 2).
    """
    return 2.0 * math.pi / (2.0 * s) ** (1.0 / s)


def _lowest_mode(s: float, length: float) -> float:
    """s(s-1)/2 xi_1^2 at the lowest nonzero mode xi_1 = 2 pi/L of the torus of length L (xi_1 capped at 1)."""
    return s * (s - 1.0) / 2.0 * min(1.0, 2.0 * math.pi / length) ** 2


def _mass_range(s: float, length: float) -> tuple[float, float]:
    """The least and the largest mass at s whose symbol and kernel constants are normal doubles, to three digits.

    n_N(xi) = n(kappa xi) / (s(s-1)/2 kappa^2), kappa^2 = N^{2s/(2-s)}, and
    n(kappa xi) ~ s(s-1)/2 (kappa xi)^2 is smallest at xi_1 (_lowest_mode).
    Below the least mass either is subnormal, where n_N loses digits on the
    lowest modes, and then 0, where n_N and the kernel shift are undefined.
    Above the largest the kernel envelope's N^{s(2+s)/(2-s)} overflows.
    """
    least = (sys.float_info.min / _lowest_mode(s, length)) ** ((2.0 - s) / (2.0 * s))
    largest = sys.float_info.max ** ((2.0 - s) / (s * (2.0 + s)))
    # .3g moves a value by at most 5e-3, so both round inward
    return float(f"{least * 1.006:.3g}"), float(f"{largest * 0.994:.3g}")


def _setting(default, help: str, *, deployment: bool = False):
    """A RunConfig field; deployment settings never change results."""
    return field(default=default, metadata={"help": help, "deployment": deployment})


@dataclass
class RunConfig:
    """The settings of one run, declared once.

    Every field but `command` is also a flag (`--grid-m` for grid_m) and a
    config-file key, parsed as the type of its default.  Deployment
    settings stay out of the config hash and the record.
    """

    command: str
    s_list: tuple = _setting((1.5,), "comma-separated s values")
    n_list: tuple = _setting((0.1,), "comma-separated masses")
    grid_l: float = _setting(64.0, "torus length")
    grid_m: int = _setting(4096, "grid points (power of two, 16 to 2**20)")
    tol: float = _setting(1e-10, "solver tolerance")
    inits: int = _setting(5, "random initializations (verify-th3)")
    cache_dir: str = _setting("", "profile cache directory", deployment=True)
    output_dir: str = _setting("fracnls-out", "output directory", deployment=True)
    workers: int = _setting(1, "worker processes for the points of any command", deployment=True)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not self.s_list or not self.n_list:
            raise ValueError("s-list and N-list must be nonempty")
        for name in ("s_list", "n_list"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{_flag(name)} repeats a value: {values!r}")
        if not all(math.isfinite(n) and n > 0.0 for n in self.n_list):
            raise ValueError("masses in the N-list must be positive and finite")
        if any(not (1.0 < s < 2.0 or (s == 2.0 and self.command == "gn-constant")) for s in self.s_list):
            raise ValueError("s values must lie in (1, 2); gn-constant also accepts 2 for validation")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.inits < 2:
            raise ValueError(f"inits must be at least 2 to compare random starts pairwise, got {self.inits}")
        if not self.cache_dir:
            self.cache_dir = str(default_cache_dir())
        # not a field: the grid derives from grid_l and grid_m, and building
        # it here turns a bad size into a configuration error
        self.grid = SpectralGrid(self.grid_l, self.grid_m)
        if self.command == "gn-constant" and self.grid_l / self.grid_m > _GN_SPACING_MAX:
            raise ValueError(f"gn-constant needs a grid spacing L/M of at most 1/8 to resolve the ground state Q, "
                             f"got L/M = {self.grid_l:g}/{self.grid_m} = {self.grid_l / self.grid_m:.3g}")
        if self.command != "gn-constant":
            s = max(self.s_list)
            if s >= _S_SOLVABLE_MAX:
                lam = lambda_of_s(s)[1]  # underflows to 0 near s = 2
                decay = 1.0 / math.sqrt(lam) if lam > 0.0 else math.inf
                raise ValueError(
                    f"s = {s:g} is past desk scale: the profile decays over 1/sqrt(lambda(s)) = {decay:.3g}; "
                    f"commands other than gn-constant need s < {_S_SOLVABLE_MAX:g}"
                )
            if _lowest_mode(min(self.s_list), self.grid_l) < sys.float_info.min:  # _lowest_mode grows with s
                raise ValueError(f"L = {self.grid_l:g} is too long: s(s-1)/2 (2 pi/L)^2 at the lowest mode underflows")
            n_min, n_max = _mass_range(s, self.grid_l)  # the least mass grows with s, the largest falls
            if min(self.n_list) < n_min:
                raise ValueError(
                    f"N = {min(self.n_list):g} is below the smallest mass at s = {s:g} on L = {self.grid_l:g}, {n_min:g}: "
                    f"n(kappa 2 pi/L) at the lowest mode, kappa^2 = N^(2s/(2-s)), would underflow the smallest normal double"
                )
            if max(self.n_list) > n_max:
                raise ValueError(f"N = {max(self.n_list):g} is above the largest mass at s = {s:g}, {n_max:g}: "
                                 f"the kernel envelope's N^(s(2+s)/(2-s)) would overflow")
        if self.command != "kernel":  # kernel reads no grid
            xi = np.float64(math.pi * self.grid_m / self.grid_l)  # the highest frequency of the grid
            with np.errstate(all="ignore"):  # an overflow is refused here, not warned about
                if self.command == "gn-constant":
                    top = [xi**s for s in self.s_list]
                else:
                    top = [symbol_nN(xi, ModelParams(s, n)) for s, n in itertools.product(self.s_list, self.n_list)]
            if not np.all(np.isfinite(top)):
                raise ValueError(f"L = {self.grid_l:g} is too short for M = {self.grid_m}: "
                                 "the symbol at the highest frequency pi M/L overflows")
        if self.command == "gn-constant":
            s = max(self.s_list, key=_constant_ground_state_length)
            shortest = _constant_ground_state_length(s)
            if self.grid_l <= shortest:
                raise ValueError(f"gn-constant needs a torus longer than L*_Q = 2 pi/(2s)^(1/s) = {shortest:.4g} "
                                 f"at s = {s:g}, on which the constant state Q = 1 is stable; got L = {self.grid_l:g}")

    def echo(self) -> dict:
        """The settings that decide results: the record's config and the hash input."""
        return {f.name: getattr(self, f.name) for f in fields(self) if not f.metadata.get("deployment")}

    def config_hash(self) -> str:
        """Hash of the echoed settings: runs that differ only in deployment share their output identity."""
        return digest(self.echo(), 16)


SETTINGS = {f.name: f for f in fields(RunConfig) if f.name != "command"}


@dataclass
class RunRecord:
    config: dict
    points: list
    timings: dict  # emitted to the metadata file only
    meta: list = field(default_factory=list)  # per point: solver statistics, refusal; metadata file only

    def exit_code(self) -> int:
        """The gravest outcome: a refused point (2), a failed one (3), a failed check (1), else 0."""
        if any(m.get("refused") for m in self.meta):
            return EXIT_CONFIG_ERROR
        if any(pt["error"] for pt in self.points):
            return EXIT_SOLVER_FAILURE
        if any(not chk["pass"] for pt in self.points for chk in pt["checks"].values()):
            return EXIT_CRITERION_FAIL
        return EXIT_OK


def _check(value: float, threshold: float, mode: str = "le") -> dict:
    ok = value <= threshold if mode == "le" else value >= threshold
    return {"value": float(value), "threshold": float(threshold), "mode": mode, "pass": bool(ok)}


def _point(s: float, n: float | None, **fields) -> dict:
    return {"s": s, "N": n, "checks": {}, "error": None, **fields}


def _l2(grid, values: np.ndarray):
    return np.sqrt(grid.h * np.sum(np.abs(values) ** 2))


# -- the paper-claim checks: functions of measured values, shared by the
# stages below and the acceptance criteria, and the one home of each threshold

def profile_distance(profile: Profile, base: Profile) -> float:
    """Relative L2 distance |profile - base| / |base| on the profile's grid."""
    return float(_l2(profile.grid, profile.values - base.values) / _l2(profile.grid, base.values))


def pairwise_distance_max(profiles: list) -> float:
    """The largest L2 distance between two of the profiles."""
    pairs = itertools.combinations(profiles, 2)
    return max((float(_l2(a.grid, a.values - b.values)) for a, b in pairs), default=0.0)


def mass_limit_checks(lam: float, gaps: list, dists: list) -> dict:
    """theta_N -> lambda(s) and R_N -> R_0: gaps and distances, by descending N, fall to their thresholds."""
    mono_gap = all(a > b for a, b in zip(gaps, gaps[1:]))
    mono_dist = all(a > b for a, b in zip(dists, dists[1:]))
    return {
        "theta_gap_decreasing": _check(0.0 if mono_gap else 1.0, 0.5),
        "distance_decreasing": _check(0.0 if mono_dist else 1.0, 0.5),
        "theta_gap_smallest": _check(gaps[-1] if gaps else np.inf, 2e-2 * lam),
        "distance_smallest": _check(dists[-1] if dists else np.inf, 5e-2),
    }


def uniqueness_check(dmax: float) -> dict:
    """Gauge-fixed solves from different starts agree: their largest pairwise L2 distance."""
    return {"uniqueness": _check(dmax, 1e-6)}


def tail_checks(fit, lam: float) -> dict:
    """The profile tail's exponential rate against sqrt(lambda) and amplitude against its oracle."""
    rate_dev = abs(fit.exp_rate - np.sqrt(lam)) / np.sqrt(lam)
    oracle = fit.exp_amplitude_oracle
    amp_dev = abs(fit.exp_amplitude - oracle) / oracle
    return {"tail_rate": _check(rate_dev, 2e-2), "tail_amplitude": _check(amp_dev, 5e-2)}


def decay_uniformity_check(c_values: list) -> dict:
    """The decay-bound constants of one s stay within a factor 2 across the masses."""
    return {"C_uniform_factor_2": _check(max(c_values) / min(c_values), 2.0)}


def linearized_checks(rep) -> dict:
    """The linearized kernel is two-dimensional and spanned by iR and R'."""
    return {
        "kernel_dimension": _check(float(len(rep.near_zero)), 2.0, mode="le"),
        "kernel_dimension_lower": _check(float(len(rep.near_zero)), 2.0, mode="ge"),
        "correlation": _check(min(rep.correlations), 0.999, mode="ge"),
    }


def kernel_checks(params: ModelParams, rep: dict) -> dict:
    """The kernel against its two-scale expansion (a `kernel_expansion_check` report)."""
    return {
        "exp_window": _check(rep["exp_window_deviation"], 2e-2),
        "alg_exponent": _check(abs(rep["alg_exponent"] - (params.s + 1.0)), 5e-2),
        "envelope": _check(abs(rep["envelope_ratio"] - 1.0), 5e-2),
        "frequency": _check(abs(rep["oscillation_frequency"] * params.kappa - 1.0), 2e-2),
    }


def root_checks(root, winding: int) -> dict:
    """The root of f1 solves its equation, and f2 winds zero times on its contour."""
    return {"root_residual": _check(root.residual, 1e-12), "winding": _check(float(abs(winding)), 0.0)}


def torus_edge_check(q: Profile) -> dict:
    """The torus holds the ground state's algebraic tail: max |Q| over |x| > 0.45 L against max |Q|.

    The relative periodization error of <Q,Q> is 0.08 to 0.63 of this ratio
    (s = 1.1, 1.5, 1.9; L = 4 to 256), so a pass states it to 1e-3.
    """
    a = np.abs(q.values)
    return {"torus_edge": _check(a[np.abs(q.grid.x) > 0.45 * q.grid.length].max() / a.max(), 1e-3)}


# 1 - min|R| / max|R| of a spatially constant solve: 5.1e-11 and less (s = 1.7
# on 128/1024 and 256/16384, s = 1.5 on 16/16 and 16/1024, s = 1.3 on 3/256,
# and every random start of verify-th3 there); of resolved traveling waves
# 0.997 and more
_CONSTANT_STATE_SPREAD = 1e-6


def constant_state_guard(profile: Profile, s: float, n: float) -> None:
    """Refuse (UnresolvedError) a solve that is the spatially constant state, which no torus limit reads.

    Such a solve has 1 - min|R| / max|R| at most _CONSTANT_STATE_SPREAD:
    the torus is too short to hold the wave.  The one detector of that
    state: every command that solves for the traveling wave R (solve,
    verify-th2, verify-th3 on each start, linearize) runs it before reading R.
    """
    a = np.abs(profile.values)
    spread = float(1.0 - a.min() / a.max())
    if spread <= _CONSTANT_STATE_SPREAD:
        grid = profile.grid
        raise UnresolvedError(
            f"the grid (L = {grid.length:g}, M = {grid.points}) does not resolve s = {s:g}, N = {n:g}: "
            f"1 - min|R|/max|R| is {spread:.3g} (limit {_CONSTANT_STATE_SPREAD:g}); "
            "the solve is the spatially constant state: lengthen the torus"
        )


def quintic_mass_check(mass: float) -> dict:
    """At s = 2 the ground-state mass is the quintic soliton's pi sqrt(3) / 2."""
    return {"quintic_mass": _check(abs(mass - np.pi * np.sqrt(3.0) / 2.0), 1e-6)}


def _solution(config: RunConfig, s: float, n: float):
    """The cached mass-constrained solve at (s, N), with its model parameters."""
    params = ModelParams(s, n)
    result, _ = cached_solve(
        config.cache_dir, s, n, config.grid, config.tol,
        lambda: petviashvili_mass_constrained(config.grid, params, tol=config.tol),
    )
    return result, params


def _solve_fields(result, lam: float) -> dict:
    """The multiplier, its gap to lambda(s), residual and energy of a solve."""
    return {
        "theta": result.multiplier,
        "lambda_s": lam,
        "theta_gap": abs(result.multiplier - lam),
        "residual": result.residual,
        "energy": result.energy,
    }


def _local_limit(config: RunConfig, s: float):
    """lambda(s) and the local ground state that small-mass profiles approach."""
    _, lam = lambda_of_s(s)
    return lam, local_ground_state(s, lam, config.grid)


# -- stages: (config, s, N) -> the point's fields and checks -------------------
# Each stage fills its checks only after every call that can raise, so a
# failed point carries an error and no partial results.

def _solve_stage(config: RunConfig, s: float, n: float) -> dict:
    result, params = _solution(config, s, n)
    profile = result.profile
    constant_state_guard(profile, s, n)
    # records carry the output-dir-relative path so their bytes do not
    # depend on where the run happened to live
    plot_file = Path(f"profiles-{config.config_hash()}") / f"profile-s{s:g}-N{n:g}.dat"
    emit_profile_plotdata(profile, Path(config.output_dir) / plot_file)
    return {
        **_solve_fields(result, lambda_of_s(s)[1]),
        "iterations": result.iterations,
        "plot_data": str(plot_file),
        "checks": {
            "el_residual": _check(result.residual, 1e-8),
            "mass_constraint": _check(abs(profile.mass() - params.s0) / params.s0, 1e-10),
        },
    }


def _th2_stage(config: RunConfig, s: float, n: float) -> dict:
    lam, base = _local_limit(config, s)
    result, _ = _solution(config, s, n)
    profile = result.profile
    constant_state_guard(profile, s, n)
    fixed = gauge_fix(profile)
    return {
        **_solve_fields(result, lam),
        "profile_distance": profile_distance(fixed, base),
        "checks": {"el_residual": _check(result.residual, 1e-8)},
    }


def _th2_summary(s: float, points: list) -> list:
    done = [pt for pt in points if pt["error"] is None]
    if not done:
        return []
    gaps = [pt["theta_gap"] for pt in done]
    dists = [pt["profile_distance"] for pt in done]
    checks = mass_limit_checks(lambda_of_s(s)[1], gaps, dists)
    return [_point(s, None, summary="th2-monotonicity", checks=checks)]


def _th3_stage(config: RunConfig, s: float, n: float) -> dict:
    grid = config.grid
    params = ModelParams(s, n)
    # one generator per point, so a point's draws do not depend on which
    # points ran before it or on which worker runs it
    rng = np.random.default_rng(20260810)
    fixed_profiles = []
    for _ in range(config.inits):
        envelope = np.exp(-np.abs(grid.xi) * float(rng.uniform(1.0, 3.0)))
        coeffs = envelope * (rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points))
        init = Profile(grid, grid.from_fourier_coefficients(coeffs))
        profile = petviashvili_mass_constrained(grid, params, init=init, tol=config.tol).profile
        constant_state_guard(profile, s, n)
        fixed_profiles.append(gauge_fix(profile))
    dmax = pairwise_distance_max(fixed_profiles)
    return {"pairwise_distance_max": dmax, "checks": uniqueness_check(dmax)}


def _th4_stage(config: RunConfig, s: float, n: float) -> dict:
    lam, base = _local_limit(config, s)
    result, params = _solution(config, s, n)
    fit = tail_fit(result, base, params)
    return {
        "exp_rate": fit.exp_rate,
        "exp_amplitude": fit.exp_amplitude,
        "exp_amplitude_oracle": fit.exp_amplitude_oracle,
        "alg_exponent": fit.alg_exponent,
        "C_min": fit.decay_bound["C_min"],
        "checks": tail_checks(fit, lam),
    }


def _th4_summary(s: float, points: list) -> list:
    c_values = [pt["C_min"] for pt in points if pt["error"] is None]
    if not c_values:
        return []
    checks = decay_uniformity_check(c_values)
    return [_point(s, None, summary="decay-bound-uniformity", C_values=c_values, checks=checks)]


def _linearize_stage(config: RunConfig, s: float, n: float) -> dict:
    result, params = _solution(config, s, n)
    constant_state_guard(result.profile, s, n)
    rep = kernel_diagnostics(build_linearized(result, params))
    return {
        "eigenvalues": [float(v) for v in rep.eigenvalues],
        "correlations": list(rep.correlations),
        "coercivity": rep.coercivity,
        "checks": linearized_checks(rep),
        "meta": {"lobpcg_iterations": rep.iterations, "kernel_residual_ratio": rep.kernel_residual_ratio},
    }


def _kernel_stage(config: RunConfig, s: float, n: float) -> dict:
    _, lam = lambda_of_s(s)
    params = ModelParams(s, n)
    rep = kernel_expansion_check(params, lam)
    root = find_root_f1("+", params, lam)
    winding = verify_f2_rootless("+", params, lam)
    return {
        "exp_window_deviation": rep["exp_window_deviation"],
        "alg_exponent": rep["alg_exponent"],
        "envelope_ratio": rep["envelope_ratio"],
        "oscillation_frequency": rep["oscillation_frequency"],
        "root": repr(root.y),
        "winding": winding,
        "checks": {**kernel_checks(params, rep), **root_checks(root, winding)},
    }


def _gn_constant_stage(config: RunConfig, s: float, n: None) -> dict:
    q, c_s, mass = fractional_ground_state(s, config.grid)
    if s == 2.0:
        checks = quintic_mass_check(mass)
    else:
        over = [m for m in config.n_list if m >= mass]
        checks = {
            "threshold_positive": _check(mass, 0.0, mode="ge"),
            "masses_below_threshold": _check(float(len(over)), 0.0),
        }
    return {"C_s": c_s, "mass_threshold": mass, "checks": {**checks, **torus_edge_check(q)}}


@dataclass(frozen=True)
class Pipeline:
    stage: Callable  # (config, s, N) -> the point's fields and checks, and optionally its "meta"
    masses: str  # "ascending" or "descending" N per s, or "none": one point per s with N = None
    summary: Callable | None = None  # (s, that s's points) -> summary points appended after them


PIPELINES = {
    "solve": Pipeline(_solve_stage, "ascending"),
    "verify-th2": Pipeline(_th2_stage, "descending", _th2_summary),
    "verify-th3": Pipeline(_th3_stage, "ascending"),
    "verify-th4": Pipeline(_th4_stage, "descending", _th4_summary),
    "linearize": Pipeline(_linearize_stage, "ascending"),
    "kernel": Pipeline(_kernel_stage, "ascending"),
    "gn-constant": Pipeline(_gn_constant_stage, "none"),
}
COMMANDS = tuple(PIPELINES)


def _run_point(job) -> tuple:
    """One point of the command's pipeline and its metadata.

    A solver or check failure becomes the point's error; a point that the
    settings cannot resolve (UnresolvedError) is also marked refused in
    the metadata.
    """
    config, s, n = job
    pt, meta = _point(s, n), {}
    try:
        out = PIPELINES[config.command].stage(config, s, n)
    except UnresolvedError as exc:
        pt["error"], meta = str(exc), {"refused": True}
    except RuntimeError as exc:
        pt["error"] = str(exc)
    else:
        meta = out.pop("meta", {})
        pt.update(out)
    return pt, meta


def run(config: RunConfig) -> RunRecord:
    """Execute the mapped pipeline; per-point errors are recorded, not raised."""
    t0 = time.time()
    pipeline = PIPELINES[config.command]
    s_values = sorted(config.s_list)
    if pipeline.masses == "none":
        masses = [None]
    else:
        masses = sorted(config.n_list, reverse=pipeline.masses == "descending")
    jobs = [(config, s, n) for s in s_values for n in masses]
    # the pool starts all its processes at once, so never more than the points
    workers = min(config.workers, len(jobs))
    if workers > 1:
        # the pool's packages (multiprocessing, logging, socket, ...) load only for a run that starts one
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_point, jobs))
    else:
        results = list(map(_run_point, jobs))
    points = []
    for i, s in enumerate(s_values):
        own = [pt for pt, _ in results[i * len(masses):(i + 1) * len(masses)]]
        points += own
        if pipeline.summary is not None:
            points += pipeline.summary(s, own)
    meta = [{"s": pt["s"], "N": pt["N"], **m} for pt, m in results if m]
    return RunRecord(config=config.echo(), points=points, timings={"wall_seconds": time.time() - t0}, meta=meta)


CSV_COLUMNS = (
    "s", "N", "theta", "lambda_s", "theta_gap", "residual", "energy",
    "profile_distance", "exp_rate", "exp_amplitude", "exp_amplitude_oracle",
    "alg_exponent", "C_min", "C_s", "mass_threshold", "pairwise_distance_max",
    "coercivity", "envelope_ratio", "oscillation_frequency", "winding",
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # numpy 2 reprs its scalars as np.float64(...)
    return str(value)


def emit_outputs(record: RunRecord, config: RunConfig) -> list:
    """Write the CSV/JSON record and the metadata file, each through write_atomically.

    File names derive from the config hash, so identical configurations
    overwrite identically; timestamps and the points' metadata live only in
    the metadata file.  All three are rendered before any is written, so a
    run that fails while rendering leaves the previous files.
    """
    outdir = Path(config.output_dir)
    stem = f"{config.command}-{config.config_hash()}"
    table = io.StringIO()
    # a cell with a comma (a solver error) is quoted; other rows keep their bytes
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(CSV_COLUMNS + ("pass_flags", "error"))
    for pt in record.points:
        chks = ";".join(
            f"{name}:{'pass' if chk['pass'] else 'fail'}" for name, chk in pt.get("checks", {}).items()
        )
        writer.writerow([_csv_cell(pt.get(col)) for col in CSV_COLUMNS] + [chks, _csv_cell(pt.get("error"))])
    files = {
        outdir / f"{stem}.csv": table.getvalue(),
        outdir / f"{stem}.json": json.dumps(
            {"version": __version__, "config": record.config, "points": record.points}, sort_keys=True, indent=1
        ),
        outdir / f"{stem}.meta.json": json.dumps(
            {"timings": record.timings, "points": record.meta, "written_at": time.time()}
        ),
    }
    for path, text in files.items():
        write_atomically(path, [text.encode()])
    return list(files)


# Plot files hold np.savetxt's bytes: each cell is '%.18e' % v, 19 correctly
# rounded significant digits.  Python reaches those through dtoa's bignum
# path, about 0.5 us a cell; _format_rows gets the same digits from one
# double-double product per cell, v times 10^(18-k) from a table of powers of
# ten, and hands Python only the cells it cannot settle (Gay 1990; Adams,
# OOPSLA 2019).
_PLOT_HEADER = b"# x re im abs\n"
_PLOT_CHUNK_ROWS = 2048  # rows formatted and written at a time: the writer's memory is bounded by this, not by M
_POW10_MIN, _POW10_MAX = 18 - 308, 18 + 324  # the 10^(18-k) that finite doubles need, k from 308 down to -324
# a product this close to a half may be an exact tie or misrounded; its error is below 2^-40
_TIE_BAND = 2.0**-30
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
_SEPARATORS = np.array([ord(" ") << 8] * 3 + [ord("\n") << 8], dtype="<u4")  # after each cell of a row: its last word's second byte


def _packed(texts) -> np.ndarray:
    """Four-character ASCII strings as little-endian 32-bit words, one word per string."""
    return np.frombuffer("".join(texts).encode("ascii"), dtype="<u4")


@functools.cache
def _format_tables() -> tuple:
    """Tables for _format_rows, built on the first plot file a process writes.

    10^p = (hi + lo) 2^E for p in [_POW10_MIN, _POW10_MAX], from a 106-bit
    integer rounding of 10^p 2^(105-E) with 1 <= hi < 2, so hi + lo is within
    2^-106 of 10^p 2^-E; hi's Dekker halves; the words "d.dd" for 0..999 and
    "dddd" for 0..9999; and per decimal exponent k from -324 to 308 two words,
    "e+ddd" but its last digit (a NUL for the hundreds of a two-digit
    exponent), and that digit.
    """
    hi, lo, scale = [], [], []
    for p in range(_POW10_MIN, _POW10_MAX + 1):
        if p >= 0:
            exponent = (10**p).bit_length() - 1
            shift = exponent - 105
            t = 10**p << -shift if shift <= 0 else (10**p + (1 << (shift - 1))) >> shift
        else:
            exponent = -(10**-p).bit_length()
            t = ((1 << (106 - exponent)) + 10**-p) // (2 * 10**-p)
        if t >> 106:
            t, exponent = t >> 1, exponent + 1
        hi.append((t >> 53) * 2.0**-52)
        lo.append((t & ((1 << 53) - 1)) * 2.0**-105)
        scale.append(exponent)
    hi = np.array(hi)
    split = _SPLIT * hi
    hi_head = split - (split - hi)
    exponents = [f"e{k:+03d}" for k in range(-324, 309)]
    return (
        hi, hi_head, hi - hi_head, np.array(lo), np.array(scale),
        _packed(f"{j // 100}.{j % 100:02d}" for j in range(1000)),
        _packed(f"{j:04d}" for j in range(10000)),
        _packed(e[:4] if len(e) == 5 else e[:2] + "\0" + e[2] for e in exponents),
        _packed(e[-1] + "\0\0\0" for e in exponents),
    )


def _format_rows(rows: np.ndarray) -> bytes:
    """The rows of ``rows`` (r, 4) as np.savetxt writes them: '%.18e' cells, a space between, a newline after.

    Each cell is eight words, NUL padded: the sign, "d.dd", four "dddd", the
    exponent.  The 19 digits D = round(|v| 10^(18-k)) with k = floor(log10|v|)
    come from the double-double product of |v|'s mantissa and the table's
    10^(18-k).  Python's % formats the cells that are not finite, whose
    decade estimate was off, whose digits carry to 10^19, or whose product
    lies within _TIE_BAND of a half; zeros are D = 0, k = 0.
    """
    hi, hi_head, hi_tail, lo, scale, lead, quad, exp_head, exp_last = _format_tables()
    v = rows.ravel()
    a = np.abs(v)
    finite = np.isfinite(a)
    zero = a == 0.0
    a[~finite | zero] = 1.0  # so k = 0 for zeros
    k = np.floor(np.log10(a)).astype(np.int64)
    p = (18 - _POW10_MIN) - k
    # |v| 10^(18-k) = m (hi + lo) 2^(e + E) with m in [0.5, 1): Dekker's two-product of m and hi, then m lo
    m, e = np.frexp(a)
    split = _SPLIT * m
    m_head = split - (split - m)
    m_tail = m - m_head
    head_p, tail_p = hi_head[p], hi_tail[p]
    high = m * hi[p]
    low = ((m_head * head_p - high) + m_head * tail_p + m_tail * head_p) + m_tail * tail_p + m * lo[p]
    total = high + low
    low -= total - high
    e += scale[p]
    high = np.ldexp(total, e)  # an integer: at least 2^53 when the decade is right
    low = np.ldexp(low, e)
    floor = np.floor(low)
    low -= floor
    fallback = ~finite | (high < 1e18) | (high > 1e19) | (np.abs(low - 0.5) < _TIE_BAND)
    high[fallback] = 1e18
    digits = high.astype(np.uint64) + floor.astype(np.int64).view(np.uint64)
    fallback |= digits < 10**18
    digits += low > 0.5
    fallback |= digits >= 10**19
    digits[zero] = 0

    words = np.empty((v.size, 8), dtype="<u4")
    words[:, 0] = np.signbit(v) * np.uint32(ord("-") << 24)
    top = digits // np.uint64(10**16)
    words[:, 1] = lead[top]
    digits -= top * np.uint64(10**16)
    upper = digits // np.uint64(10**8)
    lower = (digits - upper * np.uint64(10**8)).astype(np.int64)
    upper = upper.astype(np.int64)
    words[:, 2] = quad[upper // 10000]
    words[:, 3] = quad[upper % 10000]
    words[:, 4] = quad[lower // 10000]
    words[:, 5] = quad[lower % 10000]
    words[:, 6] = exp_head[k + 324]
    words[:, 7] = exp_last[k + 324]
    words.reshape(-1, 4, 8)[:, :, 7] |= _SEPARATORS
    cells = words.view(np.uint8)
    for i in np.flatnonzero(fallback):
        text = np.frombuffer(("%.18e" % v[i]).encode("ascii"), dtype=np.uint8)
        cells[i, :29] = 0
        cells[i, 29 - text.size : 29] = text
        cells[i, 30:] = 0
    return cells[cells != 0].tobytes()


def emit_profile_plotdata(profile: Profile, path) -> None:
    """(x, Re, Im, abs) rows, one per grid point, in np.savetxt's bytes.

    The header line, then _PLOT_CHUNK_ROWS rows at a time from _format_rows,
    streamed to a temporary file that replaces ``path`` once complete.
    """
    x, values = profile.grid.x, profile.values

    def chunks():
        yield _PLOT_HEADER
        for start in range(0, values.size, _PLOT_CHUNK_ROWS):
            rows = slice(start, start + _PLOT_CHUNK_ROWS)
            part = values[rows]
            yield _format_rows(np.column_stack([x[rows], part.real, part.imag, np.abs(part)]))

    write_atomically(Path(path), chunks())


def load_config_file(path) -> dict:
    """Flat KEY = VALUE text config; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"--config: cannot read {path}: {exc.strerror or exc}") from None
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


_EXPECTED = {tuple: "comma-separated numbers", float: "a number", int: "an integer"}


def _parse(name: str, text: str):
    """A flag or config-file value as the type of the setting's default."""
    kind = type(SETTINGS[name].default)
    try:
        if kind is tuple:
            return tuple(float(tok) for tok in text.split(",") if tok.strip())
        return kind(text)
    except ValueError:
        raise ValueError(f"{_flag(name)} expects {_EXPECTED[kind]}, got {text!r}") from None


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults < config file < command-line flags."""
    merged = load_config_file(args.config) if args.config else {}
    for key in merged:
        if key not in SETTINGS:
            raise ValueError(f"unknown config key {key!r} (expected one of {tuple(SETTINGS)})")
    merged.update({name: getattr(args, name) for name in SETTINGS if getattr(args, name) is not None})
    return RunConfig(command=args.command, **{name: _parse(name, text) for name, text in merged.items()})


class _Parser(argparse.ArgumentParser):
    """A bad command line is a configuration error: one line, exit code 2."""

    def error(self, message):
        raise ValueError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracnls",
        description="Traveling-wave laboratory for the 1-D mass-critical fractional NLS",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat KEY = VALUE config file")
    for name, setting in SETTINGS.items():
        parser.add_argument(_flag(name), dest=name, help=setting.metadata["help"])
    return parser


@functools.cache
def _keep_heap() -> None:
    """Keep grid-sized temporaries on the heap, once per process.

    glibc's adaptive thresholds hand freed 0.1-1 MiB arrays back to the
    kernel, so every solver iteration faults them in again.  Fixed
    thresholds keep them in the heap; worker processes forked afterwards
    inherit the setting.  A no-op where libc has no `mallopt` (musl,
    macOS, Windows).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD: only blocks above 1 MiB get their own mapping
    mallopt(-1, 4 << 20)  # M_TRIM_THRESHOLD: keep up to 4 MiB of free heap top


@functools.cache
def _one_blas_thread() -> None:
    """Run BLAS on one thread, once per process, so records do not depend on the CPU count.

    numpy bundles an OpenBLAS that reads OPENBLAS_NUM_THREADS as it loads,
    too early for `main` to set it, and by default splits its products over
    every CPU, which moves eigenvalues and residuals in their last digits.
    The copy's own setter takes effect at once, and worker processes forked
    afterwards inherit it.  The copy lies in `numpy.libs` beside the numpy
    package.  No command loads SciPy, so SciPy's own OpenBLAS is left alone.
    A no-op where the copy or its setter is absent.
    """
    for path in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"):
        try:
            ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_(1)
        except (OSError, AttributeError):
            pass


def main(argv=None) -> int:
    _keep_heap()
    _one_blas_thread()
    try:
        config = build_config(make_parser().parse_args(argv))
        for name in ("output_dir", "cache_dir"):  # an unusable one is refused before any point runs
            try:
                Path(getattr(config, name)).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ValueError(f"{_flag(name)}: cannot create {getattr(config, name)}: {exc.strerror or exc}") from None
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    record = run(config)
    files = emit_outputs(record, config)
    for f in files:
        print(f"wrote {f}")
    for pt in record.points:
        label = f"s={pt.get('s')} N={pt.get('N')}"
        if pt.get("error"):
            print(f"{label}: ERROR {pt['error']}")
            continue
        for name, chk in pt.get("checks", {}).items():
            status = "pass" if chk["pass"] else "FAIL"
            print(f"{label}: {name} = {chk['value']:.6g} (threshold {chk['threshold']:.6g}) {status}")
    return record.exit_code()


if __name__ == "__main__":
    sys.exit(main())

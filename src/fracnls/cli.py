"""Batch front end: per-point pipelines for the limit claims, persistence.

Subcommands map one-to-one to the verification pipelines; every pass/fail
entry carries the measured value and its threshold.  Each command is a
stage applied to every (s, N) point, plus an optional per-s summary; the
points run in-process or on a worker pool with the same result.  Identical
configurations reproduce byte-identical CSV/JSON (timings live in a
separate metadata file), serial and parallel runs produce identical
records, and cached solves replay exactly.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import hashlib
import importlib
import itertools
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .asymptotics import find_root_f1, kernel_expansion_check, tail_fit, verify_f2_rootless
from .cache import cached_solve, default_cache_dir
from .linearized import build_linearized, kernel_diagnostics
from .renorm import gauge_fix
from .solvers import fractional_ground_state, local_ground_state, petviashvili_mass_constrained
from .spectral import Profile, SpectralGrid
from .symbols import ModelParams, lambda_of_s

EXIT_OK = 0
EXIT_CRITERION_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_FAILURE = 3


# at s = 1.8 the decay length 1/sqrt(lambda(s)) is 2610, so a resolved torus
# is of order 1e5 long; nearer s = 2, lambda(s) and kappa underflow
_S_SOLVABLE_MAX = 1.8


class ConfigError(ValueError):
    pass


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
            raise ConfigError(f"unknown command {self.command!r}")
        if not self.s_list or not self.n_list:
            raise ConfigError("s-list and N-list must be nonempty")
        for name in ("s_list", "n_list"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{_flag(name)} repeats a value: {values!r}")
        if not all(math.isfinite(n) and n > 0.0 for n in self.n_list):
            raise ConfigError("masses in the N-list must be positive and finite")
        if any(not (1.0 < s < 2.0 or (s == 2.0 and self.command == "gn-constant")) for s in self.s_list):
            raise ConfigError("s values must lie in (1, 2); gn-constant also accepts 2 for validation")
        s = max(self.s_list)
        if self.command != "gn-constant" and s >= _S_SOLVABLE_MAX:
            lam = lambda_of_s(s)[1]  # underflows to 0 near s = 2
            decay = 1.0 / math.sqrt(lam) if lam > 0.0 else math.inf
            raise ConfigError(
                f"s = {s:g} is past desk scale: the profile decays over 1/sqrt(lambda(s)) = {decay:.3g}; "
                f"commands other than gn-constant need s < {_S_SOLVABLE_MAX:g}"
            )
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ConfigError(f"tol must be positive and finite, got {self.tol!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")
        if self.inits < 2:
            raise ConfigError(f"inits must be at least 2 to compare random starts pairwise, got {self.inits}")
        if not self.cache_dir:
            self.cache_dir = str(default_cache_dir())
        # not a field: the grid derives from grid_l and grid_m, and building
        # it here turns a bad size into a configuration error
        self.grid = SpectralGrid(self.grid_l, self.grid_m)

    def echo(self) -> dict:
        """The settings that decide results: the record's config and the hash input."""
        return {f.name: getattr(self, f.name) for f in fields(self) if not f.metadata.get("deployment")}

    def config_hash(self) -> str:
        """Hash of the echoed settings: runs that differ only in deployment share their output identity."""
        payload = json.dumps(
            {k: (repr(v) if isinstance(v, float) else v) for k, v in self.echo().items()},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


SETTINGS = {f.name: f for f in fields(RunConfig) if f.name != "command"}


@dataclass
class RunRecord:
    config: dict
    points: list
    timings: dict  # emitted to the metadata file only

    def any_failure(self) -> bool:
        for pt in self.points:
            if pt.get("error"):
                return True
            for chk in pt.get("checks", {}).values():
                if not chk["pass"]:
                    return True
        return False

    def any_solver_error(self) -> bool:
        return any(pt.get("error") for pt in self.points)


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
    # records carry the output-dir-relative path so their bytes do not
    # depend on where the run happened to live
    plot_rel = Path(f"profiles-{config.config_hash()}")
    (Path(config.output_dir) / plot_rel).mkdir(parents=True, exist_ok=True)
    plot_file = plot_rel / f"profile-s{s:g}-N{n:g}.dat"
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
    fixed = gauge_fix(result.profile)
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
        res = petviashvili_mass_constrained(grid, params, init=init, tol=config.tol)
        fixed_profiles.append(gauge_fix(res.profile))
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
    rep = kernel_diagnostics(build_linearized(result, params))
    return {
        "eigenvalues": [float(v) for v in rep.eigenvalues],
        "correlations": list(rep.correlations),
        "coercivity": rep.coercivity,
        "checks": linearized_checks(rep),
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
    stage: Callable  # (config, s, N) -> the point's fields and checks
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


def _run_point(job) -> dict:
    """One point of the command's pipeline; a solver or check failure becomes its error."""
    config, s, n = job
    pt = _point(s, n)
    try:
        pt.update(PIPELINES[config.command].stage(config, s, n))
    except RuntimeError as exc:
        pt["error"] = str(exc)
    return pt


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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_point, jobs))
    else:
        results = list(map(_run_point, jobs))
    points = []
    for i, s in enumerate(s_values):
        own = results[i * len(masses):(i + 1) * len(masses)]
        points += own
        if pipeline.summary is not None:
            points += pipeline.summary(s, own)
    return RunRecord(config=config.echo(), points=points, timings={"wall_seconds": time.time() - t0})


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
    """Write the CSV/JSON record, per-profile plot data, and the metadata file.

    File names derive from the config hash, so identical configurations
    overwrite identically; timestamps live only in the metadata file.
    """
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{config.command}-{config.config_hash()}"
    written = []

    csv_path = outdir / f"{stem}.csv"
    with csv_path.open("w", newline="") as fh:
        # a cell with a comma (a solver error) is quoted; other rows keep their bytes
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS + ("pass_flags", "error"))
        for pt in record.points:
            chks = ";".join(
                f"{name}:{'pass' if chk['pass'] else 'fail'}" for name, chk in pt.get("checks", {}).items()
            )
            writer.writerow([_csv_cell(pt.get(col)) for col in CSV_COLUMNS] + [chks, _csv_cell(pt.get("error"))])
    written.append(csv_path)

    json_path = outdir / f"{stem}.json"
    json_path.write_text(
        json.dumps({"version": __version__, "config": record.config, "points": record.points},
                   sort_keys=True, indent=1)
    )
    written.append(json_path)

    meta_path = outdir / f"{stem}.meta.json"
    meta_path.write_text(json.dumps({"timings": record.timings, "written_at": time.time()}))
    written.append(meta_path)
    return written


def emit_profile_plotdata(profile: Profile, path) -> None:
    """(x, Re, Im, abs) rows, one per grid point."""
    data = np.column_stack(
        [profile.grid.x, profile.values.real, profile.values.imag, np.abs(profile.values)]
    )
    header = "x re im abs"
    np.savetxt(path, data, header=header, comments="# ")


def load_config_file(path) -> dict:
    """Flat KEY = VALUE text config; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"--config: cannot read {path}: {exc.strerror or exc}") from None
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {raw!r}")
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
        raise ConfigError(f"{_flag(name)} expects {_EXPECTED[kind]}, got {text!r}") from None


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults < config file < command-line flags."""
    merged = load_config_file(args.config) if args.config else {}
    for key in merged:
        if key not in SETTINGS:
            raise ConfigError(f"unknown config key {key!r} (expected one of {tuple(SETTINGS)})")
    merged.update({name: getattr(args, name) for name in SETTINGS if getattr(args, name) is not None})
    return RunConfig(command=args.command, **{name: _parse(name, text) for name, text in merged.items()})


class _Parser(argparse.ArgumentParser):
    """A bad command line is a configuration error: one line, exit code 2."""

    def error(self, message):
        raise ConfigError(message)


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


# (package, its wheel's bundled OpenBLAS, that copy's thread-count setter)
_OPENBLAS_COPIES = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so", "scipy_openblas_set_num_threads"),
)


@functools.cache
def _one_blas_thread() -> None:
    """Run BLAS on one thread, once per process, so records do not depend on the CPU count.

    numpy and scipy each bundle an OpenBLAS, and `import fracnls.cli` loads
    both; each reads OPENBLAS_NUM_THREADS as it loads, too early for `main`
    to set it, and by default splits its products over every CPU, which
    moves eigenvalues and residuals in their last digits.  Each copy's own
    setter takes effect at once, and worker processes forked afterwards
    inherit it.  A no-op where a copy or its setter is absent.
    """
    for package, pattern, setter in _OPENBLAS_COPIES:
        libs = Path(importlib.import_module(package).__file__).parents[1] / f"{package}.libs"
        for path in libs.glob(pattern):
            try:
                getattr(ctypes.CDLL(str(path)), setter)(1)
            except (OSError, AttributeError):
                continue


def main(argv=None) -> int:
    _keep_heap()
    _one_blas_thread()
    try:
        config = build_config(make_parser().parse_args(argv))
    except (ConfigError, ValueError) as exc:
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
    if record.any_solver_error():
        return EXIT_SOLVER_FAILURE
    if record.any_failure():
        return EXIT_CRITERION_FAIL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

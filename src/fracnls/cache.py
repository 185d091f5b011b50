"""Content-addressed solve cache.

Profiles persist in the container format from :mod:`fracnls.spectral`, with
a JSON sidecar for the solve metadata; the key hashes (s, N, L, M, tol)
together with the artifact version and the solver algorithm, so stale
entries invalidate on a version bump or a change of algorithm.  Cache hits
skip recomputation and reproduce results bit-for-bit.  Entries are written
through a temporary file and renamed into place, and an entry that cannot
be read back counts as a miss, so a crash or a truncated file costs a
recomputation, never a failed run.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from . import __version__
from .spectral import load_profile, save_profile
from .solvers import SolveResult

CACHE_ENV = "FRACNLS_CACHE"


def cache_key(s: float, mass: float, length: float, points: int, tol: float) -> str:
    payload = json.dumps(
        {
            "version": __version__,
            "s": repr(float(s)),
            "N": repr(float(mass)),
            "L": repr(float(length)),
            "M": int(points),
            "method": "petviashvili",  # a constant of every key; dropping it would change every digest
            "tol": repr(float(tol)),
            # the mass-constrained algorithm, its finish and its lambda(s):
            # entries of the secant solver, of the finish that transformed
            # the grid values again, and of lambda(s) by quadrature differ
            # in the last digits and must miss
            "solver": "newton-minres/fourier-finish/closed-form-lambda",
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV, Path.home() / ".cache" / "fracnls"))


def _write_atomically(path: Path, write) -> None:
    """Call ``write`` on a temporary name beside ``path``, then rename it over ``path``.

    Readers see the old file or the new one, never a partial write.  The
    process id keeps two concurrent runs from sharing a temporary file.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def store_result(cache_dir, key: str, result: SolveResult, s: float, mass: float) -> None:
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    _write_atomically(
        cache_dir / f"{key}.prof",
        lambda tmp: save_profile(tmp, result.profile, s=s, mass=mass, multiplier=result.multiplier),
    )
    meta = {
        "multiplier": result.multiplier,
        "residual": result.residual,
        "energy": result.energy,
        "iterations": result.iterations,
        "converged": result.converged,
        "stabilization": None if np.isnan(result.stabilization) else result.stabilization,
    }
    _write_atomically(cache_dir / f"{key}.json", lambda tmp: tmp.write_text(json.dumps(meta, sort_keys=True)))


def load_result(cache_dir, key: str) -> SolveResult | None:
    """The stored result, or None when the entry is missing or cannot be read back."""
    cache_dir = Path(cache_dir)
    try:
        profile, _ = load_profile(cache_dir / f"{key}.prof")
        meta = json.loads((cache_dir / f"{key}.json").read_text())
        return SolveResult(
            profile=profile,
            multiplier=meta["multiplier"],
            residual=meta["residual"],
            energy=meta["energy"],
            iterations=meta["iterations"],
            converged=meta["converged"],
            stabilization=np.nan if meta["stabilization"] is None else meta["stabilization"],
        )
    except (OSError, ValueError, KeyError, TypeError):  # JSONDecodeError is a ValueError
        return None


def cached_solve(cache_dir, s, mass, grid, tol, compute):
    """Return the cached SolveResult for this key, or compute and store it."""
    key = cache_key(s, mass, grid.length, grid.points, tol)
    hit = load_result(cache_dir, key)
    if hit is not None:
        return hit, True
    result = compute()
    store_result(cache_dir, key, result, s, mass)
    return result, False

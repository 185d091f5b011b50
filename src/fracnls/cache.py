"""Content-addressed solve cache.

Each solve is one file, ``<key>.prof``: a 64-byte little-endian header
(magic ``FNLS``, format version, L, M, multiplier, residual, energy,
iterations, converged, stabilization; a missing stabilization is stored as
NaN) followed by the M profile values as complex doubles.  The key hashes
(s, N, L, M, tol) together with the artifact version and the solver
algorithm, so stale entries invalidate on a version bump or a change of
algorithm.  Cache hits skip recomputation and reproduce results
bit-for-bit.  Entries are written through a temporary file and renamed
into place.  An entry is read back onto the caller's grid, and only when
its size, magic, version, L and M all match; anything else (a crash, a
truncated or corrupt file, an older format) is a miss that costs a
recomputation, never a failed run.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .spectral import Profile, SpectralGrid
from .solvers import SolveResult

CACHE_ENV = "FRACNLS_CACHE"

_MAGIC = b"FNLS"
_FORMAT_VERSION = 2  # version 1 kept s, N and beta in the header and the scalars in a JSON sidecar
_HEADER = struct.Struct("<4sIdQdddIId")


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
            # the mass-constrained algorithm: entries of another algorithm
            # differ in the last digits and must miss
            "solver": "newton-minres-dft/closed-form-lambda/coarse-start-1/8/parseval-finish/coefficient-hand-overs",
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV, Path.home() / ".cache" / "fracnls"))


def _write_atomically(path: Path, data: bytes) -> None:
    """Write ``data`` to a temporary name beside ``path``, then rename it over ``path``.

    Readers see the old file or the new one, never a partial write.  The
    process id keeps two concurrent runs from sharing a temporary file.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def store_result(cache_dir, key: str, result: SolveResult) -> None:
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    grid = result.profile.grid
    header = _HEADER.pack(
        _MAGIC,
        _FORMAT_VERSION,
        grid.length,
        grid.points,
        result.multiplier,
        result.residual,
        result.energy,
        result.iterations,
        result.converged,
        result.stabilization,
    )
    values = np.ascontiguousarray(result.profile.values, dtype="<c16")
    _write_atomically(cache_dir / f"{key}.prof", header + values.tobytes())
    (cache_dir / f"{key}.json").unlink(missing_ok=True)  # a version-1 entry's sidecar


def load_result(cache_dir, key: str, grid: SpectralGrid) -> SolveResult | None:
    """The stored result on ``grid``, or None when the entry is missing or does not match it."""
    try:
        raw = (Path(cache_dir) / f"{key}.prof").read_bytes()
    except OSError:
        return None
    if len(raw) != _HEADER.size + 16 * grid.points:
        return None
    magic, version, length, points, multiplier, residual, energy, iterations, converged, stabilization = (
        _HEADER.unpack_from(raw)
    )
    if (magic, version, length, points) != (_MAGIC, _FORMAT_VERSION, grid.length, grid.points):
        return None
    values = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).astype(complex)
    return SolveResult(
        profile=Profile(grid, values),
        multiplier=multiplier,
        residual=residual,
        energy=energy,
        iterations=iterations,
        converged=bool(converged),
        stabilization=stabilization,
    )


def cached_solve(cache_dir, s, mass, grid, tol, compute):
    """Return the cached SolveResult for this key, or compute and store it."""
    key = cache_key(s, mass, grid.length, grid.points, tol)
    hit = load_result(cache_dir, key, grid)
    if hit is not None:
        return hit, True
    result = compute()
    store_result(cache_dir, key, result)
    return result, False

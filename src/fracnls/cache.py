"""Content-addressed solve cache.

Each solve is one file, ``<key>.prof``: a 56-byte little-endian header
(magic ``FNLS``, format version, L, M, multiplier, residual, energy,
iterations, converged) followed by the M raw DFT coefficients of the
result as complex doubles, the form the solver returns, so a hit hands
later stages the same bits as the solve did.  The key hashes (s, N, L, M,
tol) together with the artifact version and the solver algorithm, so
stale entries invalidate on a version bump or a change of algorithm.
Cache hits skip recomputation and reproduce results bit-for-bit.  Entries
are written through a temporary file and renamed into place.  An entry is
read back onto the caller's grid, and only when its size, magic, version,
L and M all match; anything else (a crash, a truncated or corrupt file,
an older format) is a miss that costs a recomputation, never a failed
run; so is an entry that cannot be written.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .spectral import SpectralGrid
from .solvers import SolveResult

CACHE_ENV = "FRACNLS_CACHE"

_MAGIC = b"FNLS"
_FORMAT_VERSION = 3
_HEADER = struct.Struct("<4sIdQdddII")


def digest(payload: dict, length: int) -> str:
    """The one content digest: ``length`` hex digits of the SHA-256 of ``payload`` as sorted JSON, floats by repr."""
    text = json.dumps({k: repr(v) if isinstance(v, float) else v for k, v in payload.items()}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:length]


def cache_key(s: float, mass: float, length: float, points: int, tol: float) -> str:
    return digest(
        {
            "version": __version__,
            "s": float(s), "N": float(mass), "L": float(length), "M": int(points), "tol": float(tol),
            # the mass-constrained algorithm: entries of another algorithm
            # differ in the last digits and must miss
            "solver": (
                "newton-numpy-minres-dft/closed-form-lambda/coarse-start-min(1/8,0.5/sqrt(lambda))"
                "/petviashvili-dft-hand-off/parseval-finish"
            ),
        },
        24,
    )


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV, Path.home() / ".cache" / "fracnls"))


def write_atomically(path: Path, chunks) -> None:
    """Write the byte chunks ``chunks`` in turn to a temporary name, then rename it over ``path``.

    Readers see the old file or the new one, never a partial write, and a
    writer that fails midway leaves the old file.  The process id keeps two
    concurrent runs from sharing a temporary file.  It creates the parent
    directory.  Every file the package writes is written this way.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as out:
            for chunk in chunks:
                out.write(chunk)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def store_result(cache_dir, key: str, result: SolveResult) -> None:
    grid = result.grid
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
    )
    coefficients = np.ascontiguousarray(result.coefficients, dtype="<c16")
    write_atomically(Path(cache_dir) / f"{key}.prof", (header, coefficients))


def load_result(cache_dir, key: str, grid: SpectralGrid) -> SolveResult | None:
    """The stored result on ``grid``, or None when the entry is missing or does not match it."""
    try:
        raw = (Path(cache_dir) / f"{key}.prof").read_bytes()
    except OSError:
        return None
    if len(raw) != _HEADER.size + 16 * grid.points:
        return None
    magic, version, length, points, multiplier, residual, energy, iterations, converged = _HEADER.unpack_from(raw)
    if (magic, version, length, points) != (_MAGIC, _FORMAT_VERSION, grid.length, grid.points):
        return None
    coefficients = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).astype(complex)
    return SolveResult(grid, coefficients, multiplier, residual, energy, iterations, bool(converged))


def cached_solve(cache_dir, s, mass, grid, tol, compute):
    """Return the cached SolveResult for this key, or compute and store it (when the entry can be written)."""
    key = cache_key(s, mass, grid.length, grid.points, tol)
    hit = load_result(cache_dir, key, grid)
    if hit is not None:
        return hit, True
    result = compute()
    with contextlib.suppress(OSError):
        store_result(cache_dir, key, result)
    return result, False

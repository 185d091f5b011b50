"""Periodic Fourier pseudospectral discretization of the line.

Grids, transforms, multiplier application, norms and quadrature used by
every other module.  The Fourier convention is fixed once, here: the
forward transform carries the kernel e^{-i xi x}/sqrt(2 pi), so spectral
constants derived in that convention apply verbatim.  The trapezoid rule
on the periodic grid is the single quadrature used for norms/energies.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import scipy.fft

SQRT_2PI = np.sqrt(2.0 * np.pi)

_MAGIC = b"FNLS"
_FORMAT_VERSION = 1
MAX_POINTS = 2**20  # larger grids are refused before allocating (one complex grid array: 16 MiB)


class GridError(ValueError):
    """Invalid grid construction or mismatched grids."""


class SpectralGrid:
    """Uniform periodic grid on [-L/2, L/2) with the symmetric frequency lattice.

    Nodes are x_j = -L/2 + j h with h = L/M; frequencies are the standard
    lattice {2 pi k / L : -M/2 <= k < M/2}, stored in FFT order.  Instances
    are immutable after construction and safe to share between workers.
    """

    def __init__(self, length: float, points: int):
        length = float(length)
        points = int(points)
        if not np.isfinite(length) or length <= 0.0:
            raise GridError(f"L must be positive, got {length}")
        if points < 16:
            raise GridError(f"M must be at least 16, got {points}")
        if points > MAX_POINTS:
            raise GridError(f"M must be at most {MAX_POINTS}, got {points}")
        if points & (points - 1) != 0:
            raise GridError(f"M must be a power of two, got {points}")
        self.length = length
        self.points = points
        self.h = length / points
        self.x = -length / 2.0 + self.h * np.arange(points)
        self.xi = 2.0 * np.pi * np.fft.fftfreq(points, d=self.h)
        # phase aligning numpy's index-based FFT with nodes starting at -L/2
        self._phase = np.exp(1j * self.xi * (length / 2.0))
        for arr in (self.x, self.xi, self._phase):
            arr.flags.writeable = False

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.length

    def fourier_coefficients(self, values: np.ndarray) -> np.ndarray:
        """Continuum-normalized coefficients u_hat(xi_k), FFT ordering.

        u_hat(xi) = (1/sqrt(2 pi)) integral u(x) e^{-i xi x} dx, discretized
        by the trapezoid rule on the nodes.
        """
        return (self.h / SQRT_2PI) * self._phase * fft(values)

    def from_fourier_coefficients(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`fourier_coefficients`."""
        return (SQRT_2PI / self.h) * ifft(coeffs * np.conj(self._phase))

    def sample(self, fn) -> np.ndarray:
        return np.asarray(fn(self.x), dtype=complex)

    def is_compatible(self, other: "SpectralGrid") -> bool:
        return (
            self.points == other.points
            and abs(self.length - other.length) <= 1e-12 * self.length
        )

    def __eq__(self, other):
        return isinstance(other, SpectralGrid) and self.is_compatible(other)

    def __hash__(self):
        return hash((round(self.length, 12), self.points))

    def __repr__(self):
        return f"SpectralGrid(L={self.length:g}, M={self.points})"


def fft(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Raw index-space DFT along `axis` (no normalization); the one transform backend.

    scipy.fft wraps the same pocketfft as numpy.fft and returns the same
    bits on complex input.  Real input is promoted to complex first, as
    numpy does, because scipy's real-input path rounds differently.
    """
    return scipy.fft.fft(np.asarray(values, dtype=complex), axis=axis)


def ifft(coeffs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse of :func:`fft` (1/M normalization), with the same backend and promotion."""
    return scipy.fft.ifft(np.asarray(coeffs, dtype=complex), axis=axis)


def make_grid(length: float, points: int) -> SpectralGrid:
    """Build a periodic spectral grid; L > 0, M a power of two in [16, MAX_POINTS]."""
    return SpectralGrid(length, points)


@dataclass
class Profile:
    """A complex field sampled on a spectral grid, with gauge metadata."""

    grid: SpectralGrid
    values: np.ndarray
    gauge: str = "raw"  # "raw" or "fixed"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.points,):
            raise GridError(
                f"profile has {self.values.shape} values on a grid of {self.grid.points} points"
            )

    def copy(self) -> "Profile":
        return Profile(self.grid, self.values.copy(), self.gauge)

    def mass(self) -> float:
        return float(self.grid.h * np.sum(np.abs(self.values) ** 2))

    def spectrum(self) -> np.ndarray:
        return self.grid.fourier_coefficients(self.values)

    def __add__(self, other: "Profile") -> "Profile":
        _check_same_grid(self, other)
        return Profile(self.grid, self.values + other.values)

    def __sub__(self, other: "Profile") -> "Profile":
        _check_same_grid(self, other)
        return Profile(self.grid, self.values - other.values)

    def __mul__(self, c) -> "Profile":
        return Profile(self.grid, self.values * c)

    __rmul__ = __mul__


def _check_same_grid(u: Profile, v: Profile):
    if not u.grid.is_compatible(v.grid):
        raise GridError(f"grid mismatch: {u.grid} vs {v.grid}")


def multiplier_values(grid: SpectralGrid, sigma) -> np.ndarray:
    """The symbol sampled on the grid frequencies (FFT order), checked finite."""
    vals = sigma(grid.xi) if callable(sigma) else np.asarray(sigma)
    vals = np.broadcast_to(vals, grid.xi.shape)
    finite = np.isfinite(vals)
    if not finite.all():
        bad = grid.xi[~finite]
        raise ValueError(f"multiplier is non-finite at frequencies {bad[:4]}")
    return vals


def apply_multiplier(u: Profile, sigma) -> Profile:
    """Apply the Fourier multiplier sigma(D): spectrum is scaled pointwise.

    `sigma` is a function of frequency (or a precomputed array in FFT
    ordering); it must be finite on every grid frequency.
    """
    vals = multiplier_values(u.grid, sigma)
    return Profile(u.grid, ifft(vals * fft(u.values)), u.gauge)


def inner(u: Profile, v: Profile) -> complex:
    """L2 inner product <u, v> = integral u conj(v)."""
    _check_same_grid(u, v)
    return complex(u.grid.h * np.sum(u.values * np.conj(v.values)))


def lp_norm(u: Profile, p: float) -> float:
    return float((u.grid.h * np.sum(np.abs(u.values) ** p)) ** (1.0 / p))


def sobolev_norm(u: Profile, r: float) -> float:
    """H^r norm via the spectral weight <xi>^r = (1 + xi^2)^{r/2}."""
    coeffs = u.spectrum()
    w = (1.0 + u.grid.xi**2) ** r
    return float(np.sqrt(np.sum(w * np.abs(coeffs) ** 2) * u.grid.dxi))


def quadratic_form(u: Profile, sigma) -> complex:
    """<u, sigma(D) u> computed on the spectral side.

    Real symbols give values that are real up to roundoff; the caller may
    assert this via the returned imaginary part.
    """
    vals = multiplier_values(u.grid, sigma)
    coeffs = u.spectrum()
    return complex(np.sum(vals * np.abs(coeffs) ** 2) * u.grid.dxi)


def norms_and_products(u: Profile, v: Profile, s: float | None = None, sigma=None) -> dict:
    """Bundle of the quadratic quantities used by the energy functionals."""
    _check_same_grid(u, v)
    out = {
        "inner": inner(u, v),
        "l2": lp_norm(u, 2.0),
        "h0": sobolev_norm(u, 0.0),
        "h1": sobolev_norm(u, 1.0),
        "h2": sobolev_norm(u, 2.0),
    }
    if s is not None:
        out["lp"] = lp_norm(u, 2.0 * s + 2.0)
        out["hs2"] = sobolev_norm(u, s / 2.0)
    if sigma is not None:
        out["quad_form"] = quadratic_form(u, sigma)
    return out


def derivative(u: Profile) -> Profile:
    return apply_multiplier(u, 1j * u.grid.xi)


def spectral_interpolate(u: Profile, x: np.ndarray) -> np.ndarray:
    """Evaluate the band-limited interpolant of u at arbitrary points."""
    coeffs = u.spectrum()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # direct evaluation of the truncated Fourier series
    ph = np.exp(1j * np.outer(x, u.grid.xi))
    return (ph @ coeffs) * u.grid.dxi / SQRT_2PI


def translate(u: Profile, a: float) -> Profile:
    """u(. - a), exact for band-limited fields (fractional shifts allowed)."""
    shift = np.exp(-1j * u.grid.xi * a)
    return Profile(u.grid, ifft(fft(u.values) * shift), u.gauge)


def spectral_refine(u: Profile, factor: int) -> Profile:
    """Resample onto a factor-times finer grid by spectral zero padding.

    Exact for band-limited fields; used when a transform needs headroom
    above the source Nyquist (e.g. drift modulation of a wide profile).
    """
    if factor < 1 or factor & (factor - 1):
        raise ValueError("refinement factor must be a power of two")
    if factor == 1:
        return u.copy()
    fine_grid = SpectralGrid(u.grid.length, factor * u.grid.points)
    return Profile(fine_grid, zero_pad(u.values, factor), u.gauge)


def zero_pad(values: np.ndarray, factor: int) -> np.ndarray:
    """Samples of the band-limited interpolant on a factor-times finer grid.

    The spectrum is zero-padded above the source Nyquist; the scaling keeps
    the sampled values, so band-limited fields are reproduced exactly.
    """
    m = values.shape[0]
    coeffs = fft(values)
    padded = np.zeros(factor * m, dtype=complex)
    padded[: m // 2] = coeffs[: m // 2]
    padded[-m // 2 :] = coeffs[-m // 2 :]
    return ifft(padded) * factor


def fourier_restrict(values: np.ndarray, factor: int) -> np.ndarray:
    """Samples of the lowest modes on a factor-times coarser grid.

    The modes zero_pad keeps, coarse Nyquist included, are kept and the
    rest dropped, so this is the exact left inverse of zero_pad.
    """
    m = values.shape[0] // factor
    coeffs = fft(values)
    return ifft(np.concatenate([coeffs[: m // 2], coeffs[-m // 2 :]])) / factor


def pad_evaluate(u_values: np.ndarray, fn) -> np.ndarray:
    """Evaluate a pointwise nonlinearity with 2x zero-padding, then truncate.

    Standard mitigation for non-polynomial nonlinearities; exact adjoint of
    the padding isometry, so gradients of padded energies stay consistent.
    """
    return fourier_restrict(fn(zero_pad(u_values, 2)), 2)


def save_profile(
    path,
    profile: Profile,
    *,
    s: float = np.nan,
    mass: float = np.nan,
    beta: float = np.nan,
    multiplier: float | None = None,
) -> None:
    """Write the documented array-container format.

    Header: magic, format version, L, M, s, N, beta, gauge flag, multiplier
    presence flag and value; then M little-endian complex double pairs.
    """
    gauge_flag = 1 if profile.gauge == "fixed" else 0
    has_mult = 0 if multiplier is None else 1
    header = struct.pack(
        "<4sIdQdddIId",
        _MAGIC,
        _FORMAT_VERSION,
        profile.grid.length,
        profile.grid.points,
        float(s),
        float(mass),
        float(beta),
        gauge_flag,
        has_mult,
        0.0 if multiplier is None else float(multiplier),
    )
    data = np.ascontiguousarray(profile.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def load_profile(path) -> tuple[Profile, dict]:
    """Read a profile container; returns (profile, header metadata)."""
    head_size = struct.calcsize("<4sIdQdddIId")
    with open(path, "rb") as fh:
        raw = fh.read(head_size)
        if len(raw) < head_size:
            raise ValueError(f"truncated profile container: {len(raw)} of {head_size} header bytes")
        magic, version, length, points, s, mass, beta, gauge_flag, has_mult, mult = struct.unpack(
            "<4sIdQdddIId", raw
        )
        if magic != _MAGIC:
            raise ValueError(f"not a profile container: bad magic {magic!r}")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported container version {version}")
        payload = fh.read(int(points) * 16)
        if len(payload) < int(points) * 16:
            raise ValueError(f"truncated profile container: {len(payload)} of {int(points) * 16} data bytes")
        data = np.frombuffer(payload, dtype="<c16").astype(complex)
    grid = SpectralGrid(length, int(points))
    prof = Profile(grid, data, "fixed" if gauge_flag else "raw")
    meta = {
        "s": s,
        "mass": mass,
        "beta": beta,
        "multiplier": mult if has_mult else None,
    }
    return prof, meta

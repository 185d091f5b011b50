"""Periodic Fourier pseudospectral discretization of the line.

Grids, transforms, translation, and the resampling of raw DFT
coefficients between grids of one torus (`resample`) used by every other
module.  The Fourier convention is fixed once, here: the forward
transform carries the kernel e^{-i xi x}/sqrt(2 pi), so spectral
constants derived in that convention apply verbatim.  The trapezoid rule
on the periodic grid is the single quadrature used for masses and
energies.  The quadratic form and zero padding and Fourier restriction
of grid values, symbol values checked finite, multiplier application,
L^p and Sobolev norms, the derivative and spectral refinement, which
only tests read, are test oracles in tests/oracles.py.  The solvers and
the linearization iterate on raw DFT coefficients (`fft` of the grid
values) and take symbols as arrays of their values on the grid
frequencies; the padded nonlinearity `pad_evaluate` maps such
coefficients to coefficients, so each application costs one inverse and
one forward transform on the twice finer grid.  The transforms are
numpy.fft's (`fft`, `ifft`), so this module loads no SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)

MAX_POINTS = 2**20  # larger grids are refused before allocating (one complex grid array: 16 MiB)


class UnresolvedError(RuntimeError):
    """A point that the run's settings cannot resolve: a configuration error, not a solver failure."""


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
            raise ValueError(f"L must be positive, got {length}")
        if points < 16:
            raise ValueError(f"M must be at least 16, got {points}")
        if points > MAX_POINTS:
            raise ValueError(f"M must be at most {MAX_POINTS}, got {points}")
        if points & (points - 1) != 0:
            raise ValueError(f"M must be a power of two, got {points}")
        if not np.isfinite(np.pi * points / length):
            raise ValueError(f"L = {length:g} is too short for M = {points}: the highest frequency pi M/L overflows")
        self.length = length
        self.points = points
        self.h = length / points
        self.x = -length / 2.0 + self.h * np.arange(points)
        self.xi = 2.0 * np.pi * np.fft.fftfreq(points, d=self.h)
        for arr in (self.x, self.xi):
            arr.flags.writeable = False

    def from_fourier_coefficients(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid values of the field whose continuum-normalized coefficients are coeffs (FFT order).

        u_hat(xi) = (1/sqrt(2 pi)) integral u(x) e^{-i xi x} dx; this inverts
        its trapezoid rule on the nodes, (h/sqrt(2 pi)) e^{i xi L/2} fft(u).
        """
        # the phase aligning the index-based FFT with nodes starting at -L/2
        phase = np.exp(1j * self.xi * (self.length / 2.0))
        return (SQRT_2PI / self.h) * ifft(coeffs * np.conj(phase))


def fft(values: np.ndarray) -> np.ndarray:
    """Raw index-space DFT along the last axis (no normalization); the one transform backend.

    numpy.fft, so a process that only solves loads no SciPy.  It wraps the
    same pocketfft as scipy.fft and returned the same bits on complex
    input, on 1-D vectors for M = 16 to 65536 (numpy 2.4, SciPy 1.17).
    Real input is promoted to complex first, because scipy's real-input
    path rounds differently, so records do not depend on which backend a
    caller used.
    """
    return np.fft.fft(np.asarray(values, dtype=complex))


def ifft(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fft` (1/M normalization), with the same backend and promotion."""
    return np.fft.ifft(np.asarray(coeffs, dtype=complex))


@dataclass
class Profile:
    """A complex field sampled on a spectral grid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.points,):
            raise ValueError(
                f"profile has {self.values.shape} values on a grid of {self.grid.points} points"
            )

    def mass(self) -> float:
        return float(self.grid.h * np.sum(np.abs(self.values) ** 2))


def translate(u: Profile, a: float) -> Profile:
    """u(. - a), exact for band-limited fields (fractional shifts allowed)."""
    shift = np.exp(-1j * u.grid.xi * a)
    return Profile(u.grid, ifft(fft(u.values) * shift))


def resample(coeffs: np.ndarray, points: int) -> np.ndarray:
    """Raw DFT coefficients (along axis 0) of the same band-limited field on `points` points of the torus.

    The modes -n/2, ..., n/2 - 1 with n = min(M, points) are kept, a finer
    grid's others are zero, and the scale points/M makes the inverse
    transform sample the same field.  Grid sizes are powers of two, so the
    scale is exact, and resampling to a finer grid and back returns the
    input bitwise.
    """
    m = coeffs.shape[0]
    half = min(m, points) // 2
    kept = np.zeros((points,) + coeffs.shape[1:], dtype=complex)
    kept[:half] = coeffs[:half]
    kept[-half:] = coeffs[-half:]
    kept *= points / m
    return kept


def pad_evaluate(coeffs: np.ndarray, fn) -> np.ndarray:
    """Raw DFT coefficients of fn(u), evaluated with 2x zero padding, from those of u.

    One inverse transform samples u on the twice finer grid, fn acts there
    pointwise, and one forward transform brings back the lowest M modes.
    Standard mitigation for non-polynomial nonlinearities; exact adjoint of
    the padding isometry, so gradients of padded energies stay consistent.
    """
    m = coeffs.shape[0]
    return resample(fft(fn(ifft(resample(coeffs, 2 * m)))), m)

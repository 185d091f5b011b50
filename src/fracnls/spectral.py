"""Periodic Fourier pseudospectral discretization of the line.

Grids, transforms, symbol values, translation, and the zero padding and
truncation of raw DFT coefficients used by every other module.  The
Fourier convention is fixed once, here: the forward transform carries the
kernel e^{-i xi x}/sqrt(2 pi), so spectral constants derived in that
convention apply verbatim.  The trapezoid rule on the periodic grid is the
single quadrature used for masses and energies.  The quadratic form and
zero padding and Fourier restriction of grid values, multiplier
application, L^p and Sobolev norms, the derivative and spectral
refinement, which only tests read, are test oracles in tests/oracles.py.
The solvers and the linearization iterate on raw DFT coefficients
(`fft` of the grid values); the padded nonlinearity `pad_evaluate` maps
such coefficients to coefficients, so each application costs one inverse
and one forward transform on the twice finer grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

SQRT_2PI = np.sqrt(2.0 * np.pi)

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


@dataclass
class Profile:
    """A complex field sampled on a spectral grid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.points,):
            raise GridError(
                f"profile has {self.values.shape} values on a grid of {self.grid.points} points"
            )

    def mass(self) -> float:
        return float(self.grid.h * np.sum(np.abs(self.values) ** 2))


def multiplier_values(grid: SpectralGrid, sigma) -> np.ndarray:
    """The symbol's values on the grid frequencies (FFT order), checked finite."""
    vals = np.broadcast_to(np.asarray(sigma), grid.xi.shape)
    finite = np.isfinite(vals)
    if not finite.all():
        bad = grid.xi[~finite]
        raise ValueError(f"multiplier is non-finite at frequencies {bad[:4]}")
    return vals


def translate(u: Profile, a: float) -> Profile:
    """u(. - a), exact for band-limited fields (fractional shifts allowed)."""
    shift = np.exp(-1j * u.grid.xi * a)
    return Profile(u.grid, ifft(fft(u.values) * shift))


def pad_coefficients(coeffs: np.ndarray, factor: int) -> np.ndarray:
    """Raw DFT coefficients (along axis 0) zero-padded above the source Nyquist mode.

    The inverse transform of the result, times factor, samples the
    band-limited interpolant on a factor-times finer grid.
    """
    m = coeffs.shape[0]
    padded = np.zeros((factor * m,) + coeffs.shape[1:], dtype=complex)
    padded[: m // 2] = coeffs[: m // 2]
    padded[-m // 2 :] = coeffs[-m // 2 :]
    return padded


def truncate_coefficients(coeffs: np.ndarray, points: int) -> np.ndarray:
    """The lowest `points` modes of raw DFT coefficients, coarse Nyquist included: pad_coefficients' left inverse."""
    return np.concatenate([coeffs[: points // 2], coeffs[-points // 2 :]])


def pad_evaluate(coeffs: np.ndarray, fn) -> np.ndarray:
    """Raw DFT coefficients of fn(u), evaluated with 2x zero padding, from those of u.

    One inverse transform samples u on the twice finer grid, fn acts there
    pointwise, and one forward transform brings back the lowest M modes.
    Standard mitigation for non-polynomial nonlinearities; exact adjoint of
    the padding isometry, so gradients of padded energies stay consistent.
    """
    m = coeffs.shape[0]
    return 0.5 * truncate_coefficients(fft(fn(2.0 * ifft(pad_coefficients(coeffs, 2)))), m)

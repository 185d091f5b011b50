"""Numerical verification of the spatial-asymptotics machinery.

The complex root of the continued symbol, the rootlessness of the second
branch by the argument principle, the two-scale kernel expansion against
its predicted constants, far-field reconstruction of solved profiles
through the kernel convolution, tail fitting, and the uniform decay bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics_roots import RootBracketError, find_root_translated, translated_value
from .renorm import gauge_fix
from .spectral import SQRT_2PI, Profile
from .solvers import SolveResult
from .symbols import (
    ModelParams,
    kernel_constants,
    kernel_pointwise,
    kernel_shift,
    laplace_transform,
    residue_data,
)

__all__ = [
    "RootResult",
    "TailFit",
    "find_root_f1",
    "verify_f2_rootless",
    "kernel_expansion_check",
    "far_field_reconstruction",
    "tail_fit",
    "decay_bound_check",
    "RootBracketError",
]

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # log of the largest finite double


@dataclass
class RootResult:
    """A root of the continued symbol branch f1, in the original variable, with |f1(y)|."""

    sign: str
    y: complex
    residual: float


def find_root_f1(sign: str, params: ModelParams, theta: float) -> RootResult:
    """The unique root of f1 in its half-plane region.

    Bisection on the strictly decreasing real part along the polar curve of
    the translated variable, then a complex Newton polish; the lower-sign
    root is the conjugate of the upper one for real theta.  A missing sign
    change reports the mass-threshold failure with both endpoint values.
    The residual is |f1(y)|, f1 = (y+1)^s - s y - 1 + kernel_shift on the
    principal branch.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    s = params.s
    c = kernel_shift(params, theta)
    y_t = find_root_translated(s, c)
    if sign == "-":
        y_t = np.conj(y_t)
    return RootResult(sign=sign, y=complex(y_t - 1.0), residual=float(abs(translated_value(y_t, s, c))))


def _winding_number(path_values: np.ndarray) -> int:
    """Winding of a closed sampled curve about 0 via unwrapped phase."""
    ang = np.unwrap(np.angle(path_values))
    return int(round((ang[-1] - ang[0]) / (2.0 * np.pi)))


_F2_BOX = 10.0  # side of the quarter box
_F2_SAMPLES = 2000  # samples per box edge


def verify_f2_rootless(sign: str, params: ModelParams, theta: float) -> int:
    """The winding of f2 about 0 on the boundary of its quarter box: 0 when f2 has no root there.

    The argument principle on the translated function y^s + s y + s - 1 +
    shift; a nonzero winding is for the caller's check to fail.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    s = params.s
    c = kernel_shift(params, theta)
    if s - 1.0 + c <= 0.0:
        raise ValueError(
            f"constant term s - 1 + shift = {s - 1 + c:.3e} must stay positive"
        )
    sgn = 1.0 if sign == "+" else -1.0
    t = np.linspace(0.0, 1.0, _F2_SAMPLES)
    edge1 = _F2_BOX * t  # 0 -> box on the real axis
    edge2 = _F2_BOX + 1j * sgn * _F2_BOX * t  # up the right edge
    edge3 = _F2_BOX + 1j * sgn * _F2_BOX - _F2_BOX * t  # across the top
    edge4 = 1j * sgn * _F2_BOX * (1.0 - t)  # down the imaginary axis
    path = np.concatenate([edge1, edge2, edge3, edge4])
    # translated f2 on the principal branch: the contour stays in the closed
    # right half plane, where it is analytic
    vals = path**s + s * path + s - 1.0 + c
    if np.any(np.abs(vals) == 0.0):
        raise RuntimeError("f2 vanished on the contour; sampling hit a root")
    return _winding_number(vals)


def _crossover(c1: float, rate: float, alg_coeff: float, power: float) -> float:
    """|x| where the exponential and algebraic model terms match."""
    lo, hi = 1e-3, 1e9
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if c1 * math.exp(-rate * mid) > alg_coeff / mid**power:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _log_linear_fit(t: np.ndarray, values: np.ndarray, fields: str) -> tuple[float, float, float]:
    """Least-squares line through log|values| against t: (rate, amplitude, rms residual).

    The model is |values| ~ amplitude e^{-rate t}; with t = log x the rate
    is the algebraic exponent and the amplitude its coefficient.  A zero
    sample (no logarithm) or an amplitude past the float range would put a
    NaN or an infinity into the record `fields`, so either raises a
    one-line RuntimeError that names them.
    """
    magnitudes = np.abs(values)
    zeros = int(np.count_nonzero(magnitudes == 0.0))
    if zeros:
        raise RuntimeError(f"{fields}: {zeros} of the {len(t)} samples of the log-linear fit window are zero")
    coef, res, *_ = np.polyfit(t, np.log(magnitudes), 1, full=True)
    if not coef[1] < _LOG_FLOAT_MAX:
        raise RuntimeError(f"{fields}: the log-linear fit's amplitude e^{coef[1]:.6g} overflows")
    rms = float(np.sqrt(res[0] / len(t))) if len(res) else 0.0
    return -float(coef[0]), float(np.exp(coef[1])), rms


def _oscillation_frequency(params: ModelParams, theta: float, x0: float) -> float:
    """Phase slope of the kernel's branch-cut part over nine points from x0, resolving 2 pi kappa.

    Abscissae that round together (spacing below an ulp of x0) make the
    slope noise, so they raise a one-line RuntimeError naming the field.
    """
    offsets = math.pi * params.kappa / 4.0 * np.arange(9)
    if (distinct := np.unique(x0 + offsets).size) < offsets.size:
        raise RuntimeError(f"oscillation_frequency: x0 = {x0:.6g} rounds the nine abscissae to {distinct} points")
    phases = np.unwrap(np.angle(kernel_pointwise(x0 + offsets, params, theta, parts=True)[2]))
    # fitted against the offsets: x0 reaches 4.5e5, where abscissae near x0 condition the fit poorly
    return abs(float(np.polyfit(offsets, phases, 1)[0]))


def kernel_expansion_check(params: ModelParams, theta: float) -> dict:
    """Compare the kernel against its two-scale expansion.

    Exponential window: modulus against C1 e^{-sqrt(lam)|x|} where that term
    dominates the algebraic one by >= 10x.  Far window: envelope power and
    coefficient of the residual after removing the exponential part, plus
    the oscillation frequency from the residual's phase slope (expected
    1/kappa).  Windows are derived from the model constants before fitting.
    """
    s = params.s
    lam = params.lam
    kc = kernel_constants(params)
    c1 = kc["C1"]
    rate = math.sqrt(lam)
    alg = kc["c2_envelope"] * kc["n_power"]
    power = s + 1.0
    x_cross = _crossover(c1, rate, alg, power)
    # dominance >= 100x keeps the neglected algebraic term at the 1% level,
    # inside the 2% agreement target (a 10x window would admit 10% bias)
    x_dom = _crossover(c1, rate, 100.0 * alg, power)
    x_lo = 1.0 / rate
    if x_dom <= x_lo:
        raise RuntimeError(
            f"windows cannot be separated: exponential dominance ends at {x_dom:.3g} "
            f"before one decay length {x_lo:.3g} (N too large)"
        )
    xs_exp = np.geomspace(x_lo, x_dom, 25)
    dev_exp = np.abs(kernel_pointwise(xs_exp, params, theta)) / (c1 * np.exp(-rate * xs_exp)) - 1.0
    exp_window_dev = float(np.max(np.abs(dev_exp)))

    xs_far = np.geomspace(3.0 * x_cross, 10.0 * x_cross, 30)
    resid = kernel_pointwise(xs_far, params, theta) - c1 * np.exp(-rate * xs_far)
    alg_exponent, alg_coefficient, _ = _log_linear_fit(np.log(xs_far), resid, "alg_exponent, envelope_ratio")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below, not warned
        envelope_ratio = alg_coefficient / alg
    if not math.isfinite(envelope_ratio):
        raise RuntimeError(
            f"envelope_ratio: the far-window amplitude {alg_coefficient:.6g} over the model envelope "
            f"{alg:.6g} is not finite"
        )
    return {
        "exp_window": (x_lo, x_dom),
        "exp_window_deviation": exp_window_dev,
        "crossover": x_cross,
        "alg_exponent": alg_exponent,
        "alg_coefficient": alg_coefficient,
        "envelope_ratio": envelope_ratio,
        "oscillation_frequency": _oscillation_frequency(params, theta, 3.0 * x_cross),
    }


class _KernelTail:
    """The kernel m_N(w) on the separations between some abscissae and the torus.

    m_N(w) is the closed-form residue part A e^{i|w|rho/kappa} plus the
    branch-cut part, conjugated for w < 0 (`__call__`, the one definition
    of the pair kernel).  The branch-cut part is tabulated as the
    log-modulus/phase of its Laplace factor on a log grid of |w| spanning
    every separation between `x_points` and the torus of `grid`, and
    interpolated by one two-column cubic spline (one interval search per
    call serves both columns).  `bound` bounds |m_N|: |pref| e^{largest
    tabulated log-modulus}, doubled as a margin for the spline between
    knots, plus |A|, since |e^{i|w|rho/kappa}| <= 1.
    """

    def __init__(self, params: ModelParams, theta: float, grid, x_points: np.ndarray):
        from scipy.interpolate import CubicSpline  # loaded on first use: only verify-th4 builds a table

        self.s = params.s
        self.kappa = params.kappa
        self.pref, root, damp = residue_data(params, theta)
        self.residue_amp = self.pref * 2.0 * np.pi * 1j / damp
        self.residue_rate = 1j * root / self.kappa  # Re < 0: the residue part decays in |w|
        ax = np.abs(np.asarray(x_points, dtype=float))
        w_min = max(float(np.min(ax)) - grid.length / 2.0, 1e-6)
        xs = np.geomspace(max(w_min * 0.5, 1e-8), float(np.max(ax)) + grid.length / 2.0 + 1.0, 160)
        vals = laplace_transform(params.s, kernel_shift(params, theta), xs / self.kappa)
        table = np.stack([np.log(np.abs(vals)), np.unwrap(np.angle(vals))], axis=-1)
        self._mod_arg = CubicSpline(np.log(xs), table)  # columns: log-modulus, unwrapped phase
        self._range = (xs[0], xs[-1])
        self.bound = 2.0 * abs(self.pref) * math.exp(float(np.max(table[:, 0]))) + abs(self.residue_amp)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        """m_N(w) = A e^{rate |w|} + pref i e^{logmod(|w|) + i(phase(|w|) - |w|/kappa)}, conjugated for w < 0.

        The branch-cut part holds |w| at the table ends.
        """
        ax = np.abs(w)
        cut = np.clip(ax, self._range[0], self._range[1])
        mod_arg = self._mod_arg(np.log(cut))
        out = self.residue_amp * np.exp(self.residue_rate * ax)
        out += self.pref * 1j * np.exp(mod_arg[..., 0] + 1j * (mod_arg[..., 1] - cut / self.kappa))
        return np.where(w >= 0, out, np.conj(out))


def _support_windows(kern: _KernelTail, y: np.ndarray, g: np.ndarray, xs: np.ndarray) -> tuple:
    """Per abscissa, the grid window [j0, j1) outside of which the convolution's pair terms may be dropped.

    A tail is dropped only if its |g|-mass times `kern.bound` is at most
    2^-54 |m_N(x - y_peak)| |g_peak|, half a unit roundoff of the term at
    the peak of |g|, which the window therefore keeps.  The two tails
    together move the sum by at most one unit roundoff of a kept term,
    inside the rounding error of the full sum.  Found by `searchsorted` on
    the prefix sums of |g| from each end.
    """
    mag = np.abs(g)
    peak = int(np.argmax(mag))
    budget = 2.0**-54 * np.abs(kern(xs - y[peak])) * mag[peak] / kern.bound
    j0 = np.searchsorted(np.cumsum(mag), budget, side="right")
    j1 = len(y) - np.searchsorted(np.cumsum(mag[::-1]), budget, side="right")
    return j0, j1


def far_field_reconstruction(fixed: Profile, params: ModelParams, theta: float, x_points: np.ndarray) -> np.ndarray:
    """Reconstruct the profile beyond the torus through the kernel convolution.

    R(x) = (1/sqrt(2 pi)) integral m_N(x - y) (|R|^{2s} R)(y) dy with the
    kernel m_N at multiplier theta (one `_KernelTail` spanning every
    |x - y|) and the grid-supported nonlinearity of the gauge-fixed
    profile `fixed` (trapezoid rule); the nonlinearity decays
    exponentially, so the torus truncation is controlled.  Valid for |x|
    beyond the torus where grid values are periodization-contaminated.

    One sum of the whole kernel's pair terms m_N(x - y_j) g_j per
    abscissa, residue and branch cut together, over the nonlinearity's
    numerical support only: one contiguous window per abscissa (see
    `_support_windows`), whose dropped tails move the sum by at most one
    unit roundoff of its largest kept term.  Far from the profile's
    support the pair terms cancel by many orders (about 13 past x ~ 300
    at s = 1.5 on the README grid; at s = 1.3, N <= 0.1 at the decay-bound
    points too), and the values keep few or no digits.
    """
    x_points = np.atleast_1d(np.asarray(x_points, dtype=float))
    kern = _KernelTail(params, theta, fixed.grid, x_points)
    y = fixed.grid.x
    g = np.abs(fixed.values) ** (2.0 * params.s) * fixed.values
    out = np.empty(x_points.shape, dtype=complex)
    for i, (x, j0, j1) in enumerate(zip(x_points, *_support_windows(kern, y, g, x_points))):
        out[i] = fixed.grid.h / SQRT_2PI * np.sum(kern(x - y[j0:j1]) * g[j0:j1])
    return out


@dataclass
class TailFit:
    """Two-scale tail fit of a solved profile against the model constants.

    The algebraic fields describe the branch-cut term of the kernel
    convolution over the far window `window_far` in the frozen-phase reading
    (the oscillatory factor of its coefficient treated as constant across
    the convolution); the honest reconstruction there is oscillation-damped
    far below that model term, and no record reads it, so the fit does not
    make it.  `decay_bound` reports the uniform decay bound with the far
    field reconstructed at the decay-bound points alone, by the one
    windowed sum of the whole kernel, made with the fit.
    """

    exp_rate: float
    exp_amplitude: float
    exp_amplitude_oracle: float
    alg_exponent: float
    alg_coefficient: float
    alg_coefficient_model: float
    window_far: tuple
    exp_fit_residual: float
    alg_fit_residual: float
    decay_bound: dict


def _local_nonlinearity_moment(local_r: Profile, s: float, rate: float) -> float:
    """integral e^{rate y} R^{2s+1}(y) dy by grid quadrature of the closed form."""
    vals = np.abs(local_r.values) ** (2.0 * s + 1.0)
    return float(local_r.grid.h * np.sum(np.exp(rate * local_r.grid.x) * vals))


def tail_fit(result: SolveResult, local_r: Profile, params: ModelParams) -> TailFit:
    """Fit the exponential and algebraic tail scales of a converged profile.

    The exponential window lies on the torus (grid samples, |x| <= L/4); the
    far window uses the kernel-convolution reconstruction to escape
    periodization.  The amplitude oracle is the kernel Green's amplitude
    C1/sqrt(2 pi) = 1/(2 sqrt(lam)) times the closed-form nonlinearity
    moment (the local Green's function of -d^2/dx^2 + lam is
    e^{-sqrt(lam)|x|}/(2 sqrt(lam)), which pins the bookkeeping).  The
    decay-bound points are the only abscissae reconstructed, through one
    kernel-tail table.
    """
    s = params.s
    lam = params.lam
    rate_model = math.sqrt(lam)
    kc = kernel_constants(params)
    fixed = gauge_fix(result.profile)
    grid = fixed.grid
    moment = _local_nonlinearity_moment(local_r, s, rate_model)
    amp_oracle = kc["C1"] / SQRT_2PI * moment
    alg_model = kc["c2_envelope"] / SQRT_2PI * kc["n_power"] * _local_nonlinearity_moment(local_r, s, 0.0)
    x_cross = _crossover(amp_oracle, rate_model, alg_model, s + 1.0)
    x_hi = min(grid.length / 4.0, 0.8 * x_cross)
    x_lo = 2.0 / rate_model
    mask = (grid.x >= x_lo) & (grid.x <= x_hi)
    if np.count_nonzero(mask) < 20:
        raise RuntimeError("exponential window has fewer than 20 grid samples")
    exp_rate, exp_amp, exp_resid = _log_linear_fit(grid.x[mask], fixed.values[mask], "exp_rate, exp_amplitude")

    # far window: the frozen-phase algebraic term of the convolution,
    # |m_alg(x)| integral(g) / sqrt(2 pi)
    g_int = complex(grid.h * np.sum(np.abs(fixed.values) ** (2.0 * s) * fixed.values))
    xs_far = np.geomspace(max(3.0 * x_cross, grid.length / 3.0), 8.0 * x_cross, 24)
    x_bound = np.geomspace(grid.length / 3.0, grid.length / 1.5, 12)

    alg_term = kernel_pointwise(xs_far, params, result.multiplier, parts=True)[2] * g_int / SQRT_2PI
    alg_exponent, alg_coefficient, alg_resid = _log_linear_fit(np.log(xs_far), alg_term, "alg_exponent")

    return TailFit(
        exp_rate=exp_rate,
        exp_amplitude=exp_amp,
        exp_amplitude_oracle=amp_oracle,
        alg_exponent=alg_exponent,
        alg_coefficient=alg_coefficient,
        alg_coefficient_model=alg_model,
        window_far=(float(xs_far[0]), float(xs_far[-1])),
        exp_fit_residual=exp_resid,
        alg_fit_residual=alg_resid,
        decay_bound=decay_bound_check(
            fixed, params, x_bound, far_field_reconstruction(fixed, params, result.multiplier, x_bound)
        ),
    )


def decay_bound_check(fixed: Profile, params: ModelParams, x_far: np.ndarray, far: np.ndarray) -> dict:
    """Minimal constant of the uniform two-scale decay bound.

    |R_N(x)| <= C (e^{-sqrt(lam)|x|} + N^{s(2+s)/(2-s)} / (1 + |x|^{s+1}))
    over the grid samples of the gauge-fixed profile (|x| <= L/4) plus the
    far-field samples `far` at `x_far` (reconstructed beyond the torus);
    C always exists for finite samples, and its N-uniformity is the
    assertion made by the acceptance suite.  Reports C_min with its grid
    and far parts C_grid and C_far.

    On the README grid (L = 256, M = 16384) the far part, whose
    reconstruction carries the kernel's branch cut, sets C_min at
    s = 1.2, N >= 0.44 (C_far 5.1706 against C_grid 5.0345 at N = 0.48;
    the residue part alone gives about 1e-13).  At s = 1.5, N <= 0.2
    C_far agrees with C_grid to 4-9 digits and can be C_min.  Elsewhere it
    stays below: at s = 1.3, N = 0.4 C_far is 0.126 against a C_grid of
    2.45, and at s = 1.3, N <= 0.1 it is about 1e-12, the rounding floor of
    its pair sums, with no digit kept.
    """
    s = params.s
    lam = params.lam
    npow = kernel_constants(params)["n_power"]
    grid = fixed.grid

    def envelope(x):
        ax = np.abs(np.asarray(x, dtype=float))
        return np.exp(-math.sqrt(lam) * ax) + npow / (1.0 + ax ** (s + 1.0))

    mask = np.abs(grid.x) <= grid.length / 4.0
    c_grid = float(np.max(np.abs(fixed.values[mask]) / envelope(grid.x[mask])))
    c_far = float(np.max(np.abs(far) / envelope(x_far)))
    return {
        "C_min": max(c_grid, c_far),
        "C_grid": c_grid,
        "C_far": c_far,
    }

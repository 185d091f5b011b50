"""Numerical verification of the spatial-asymptotics machinery.

The complex root of the continued symbol and its polar parametrization, the
rootlessness of the second branch (sampled and by the argument principle),
the two-scale kernel expansion against its predicted constants, far-field
reconstruction of solved profiles through the kernel convolution, tail
fitting, and the uniform decay bound.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .asymptotics_roots import RootBracketError, find_root_translated, n_analytic
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


@dataclass
class RootResult:
    """A root of the continued symbol branch f1 with its polar data.

    The polar angle/radius parametrize the proof's translated variable
    y + 1 = r e^{+-i phi}; the stored root is in the original variable.
    """

    sign: str
    y: complex
    phi: float
    r: float
    residual: float
    params: ModelParams
    theta: float

    def in_region(self) -> bool:
        im_ok = self.y.imag > 0 if self.sign == "+" else self.y.imag < 0
        return im_ok and self.y.real > -1.0


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
    y = y_t - 1.0
    if sign == "-":
        y = np.conj(y)
        y_t = np.conj(y_t)
    res = abs(complex(n_analytic(y, s)) + c)
    return RootResult(
        sign=sign,
        y=complex(y),
        phi=abs(float(np.angle(y_t))),
        r=float(np.abs(y_t)),
        residual=float(res),
        params=params,
        theta=theta,
    )


def _winding_number(path_values: np.ndarray) -> int:
    """Winding of a closed sampled curve about 0 via unwrapped phase."""
    ang = np.unwrap(np.angle(path_values))
    return int(round((ang[-1] - ang[0]) / (2.0 * np.pi)))


_F2_BOX = 10.0  # side of the sampled quarter box
_F2_SAMPLES = 2000  # samples per box edge and along the real axis


def verify_f2_rootless(sign: str, params: ModelParams, theta: float) -> dict:
    """Confirm f2 has no roots in its quarter region.

    Reproduces the sign argument on a dense polar sampling of the translated
    function y^s + s y + s - 1 + shift (imaginary part bounded away from 0
    off the real axis, real part positive on it) and runs an
    argument-principle winding count on the boundary of the quarter box.
    A nonzero winding is raised, never silently passed.
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

    def f2t(y):
        # translated f2: y^s + s y + s - 1 + c (principal branch; the contour
        # stays in the closed right half plane where it is analytic)
        y = np.asarray(y, dtype=complex)
        return y**s + s * y + s - 1.0 + c

    # on-axis positivity
    r_ax = np.linspace(0.0, _F2_BOX, _F2_SAMPLES)
    on_axis = r_ax**s + s * r_ax + s - 1.0 + c
    on_axis_min = float(np.min(on_axis))
    # off-axis imaginary part, sampled on the polar grid
    phi = np.linspace(1e-3, np.pi / 2.0, 120)
    r = np.linspace(1e-3, _F2_BOX, 200)
    rr, pp = np.meshgrid(r, phi)
    f22 = sgn * (rr**s * np.sin(s * pp) + s * rr * np.sin(pp))
    off_axis_min = float(np.min(f22))
    # winding along the boundary of the quarter box
    t = np.linspace(0.0, 1.0, _F2_SAMPLES)
    edge1 = _F2_BOX * t  # 0 -> box on the real axis
    edge2 = _F2_BOX + 1j * sgn * _F2_BOX * t  # up the right edge
    edge3 = _F2_BOX + 1j * sgn * _F2_BOX - _F2_BOX * t  # across the top
    edge4 = 1j * sgn * _F2_BOX * (1.0 - t)  # down the imaginary axis
    path = np.concatenate([edge1, edge2, edge3, edge4])
    vals = f2t(path)
    if np.any(np.abs(vals) == 0.0):
        raise RuntimeError("f2 vanished on the contour; sampling hit a root")
    winding = _winding_number(vals)
    report = {
        "sign": sign,
        "winding": winding,
        "on_axis_min": on_axis_min,
        "off_axis_min": off_axis_min,
    }
    if winding != 0:
        raise RuntimeError(f"argument principle found roots: winding = {winding}, report {report}")
    return report


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


def _oscillation_frequency(params: ModelParams, theta: float, x0: float) -> float:
    """Phase slope of the kernel's branch-cut part over nine points from x0, resolving 2 pi kappa."""
    dx = math.pi * params.kappa / 4.0
    cluster = x0 + dx * np.arange(9)
    phases = np.unwrap(np.angle(kernel_pointwise(cluster, params, theta, parts=True)[2]))
    return abs(float(np.polyfit(cluster, phases, 1)[0]))


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
    coef = np.polyfit(np.log(xs_far), np.log(np.abs(resid)), 1)
    alg_exponent = -float(coef[0])
    alg_coefficient = float(np.exp(coef[1]))
    envelope_ratio = alg_coefficient / alg
    return {
        "C1": c1,
        "exp_window": (x_lo, x_dom),
        "exp_window_deviation": exp_window_dev,
        "crossover": x_cross,
        "alg_exponent": alg_exponent,
        "alg_coefficient": alg_coefficient,
        "alg_coefficient_model": alg,
        "envelope_ratio": envelope_ratio,
        "oscillation_frequency": _oscillation_frequency(params, theta, 3.0 * x_cross),
        "oscillation_frequency_model": kc["oscillation_frequency"],
    }


class _KernelTail:
    """The kernel m_N(w) split for convolution sums over the grid.

    The residue part A e^{i|w|rho/kappa} (conjugated for w < 0) has a closed
    form that `far_field_reconstruction` sums by running prefix sums.  The
    branch-cut part is tabulated as modulus/phase of the Laplace factor on a
    log grid, interpolated by one two-column cubic spline (one interval
    search per call serves both columns) and evaluated per pair by
    `branch_cut`, its phase e^{-i|w|/kappa} left unfactored.
    """

    def __init__(self, params: ModelParams, theta: float, x_min: float, x_max: float):
        from scipy.interpolate import CubicSpline  # loaded on first use: only verify-th4 builds a table

        self.s = params.s
        self.kappa = params.kappa
        self.pref, root, damp = residue_data(params, theta)
        self.residue_amp = self.pref * 2.0 * np.pi * 1j / damp
        self.residue_rate = 1j * root / self.kappa  # Re < 0: the residue part decays in |w|
        xs = np.geomspace(max(x_min, 1e-8), x_max, 160)
        vals = laplace_transform(params.s, kernel_shift(params, theta), xs / self.kappa)
        logx = np.log(xs)
        table = np.stack([np.log(np.abs(vals)), np.unwrap(np.angle(vals))], axis=-1)
        self._mod_arg = CubicSpline(logx, table)  # columns: log-modulus, unwrapped phase
        self._range = (xs[0], xs[-1])

    @classmethod
    def covering(cls, grid, params: ModelParams, theta: float, x_points: np.ndarray) -> _KernelTail:
        """The table for every separation x - y between `x_points` and the torus."""
        ax = np.abs(np.asarray(x_points, dtype=float))
        w_min = max(float(np.min(ax)) - grid.length / 2.0, 1e-6)
        w_max = float(np.max(ax)) + grid.length / 2.0 + 1.0
        return cls(params, theta, max(w_min * 0.5, 1e-8), w_max)

    def branch_cut(self, w: np.ndarray) -> np.ndarray:
        ax = np.clip(np.abs(w), self._range[0], self._range[1])  # held at the table ends
        mod_arg = self._mod_arg(np.log(ax))
        lap = np.exp(mod_arg[..., 0] + 1j * mod_arg[..., 1])
        out = self.pref * 1j * np.exp(-1j * ax / self.kappa) * lap
        return np.where(w >= 0, out, np.conj(out))


def _one_sided_sums(rate: complex, y: np.ndarray, g: np.ndarray, x: np.ndarray, side: str) -> np.ndarray:
    """sum_{y_j <= x_m} e^{rate (x_m - y_j)} g_j for ascending y and x (y_j < x_m with side="left").

    A prefix sum carried from one abscissa to the next: each grid point
    enters once, at the first abscissa at or above it, and the running sum
    is moved on by e^{rate (x_m - x_{m-1})}.  With Re rate < 0 no factor
    exceeds 1 in modulus, so nothing overflows however long the torus is
    (the unscaled e^{-rate y_j} would overflow once -Re rate L/2 > 709).
    """
    ends = np.searchsorted(y, x, side=side)
    out = np.empty(len(x), dtype=complex)
    acc, start, prev = 0j, 0, x[0]
    for m, (xm, end) in enumerate(zip(x, ends)):
        acc = acc * np.exp(rate * (xm - prev)) + np.sum(np.exp(rate * (xm - y[start:end])) * g[start:end])
        out[m], start, prev = acc, end, xm
    return out


def far_field_reconstruction(fixed: Profile, kern: _KernelTail, x_points: np.ndarray) -> np.ndarray:
    """Reconstruct the profile beyond the torus through the kernel convolution.

    R(x) = (1/sqrt(2 pi)) integral m_N(x - y) (|R|^{2s} R)(y) dy with the
    kernel table `kern` (which must cover every |x - y|, see
    `_KernelTail.covering`) and the grid-supported nonlinearity of the
    gauge-fixed profile `fixed` (trapezoid rule); the nonlinearity decays
    exponentially, so the torus truncation is controlled.  Valid for |x|
    beyond the torus where grid values are periodization-contaminated.

    The residue part is summed by prefix sums, forward over y <= x and
    backward over y > x: one pass over the grid per side serves all
    abscissae.  The branch-cut part is summed per pair, its phase
    e^{-i(x-y)/kappa} unfactored.  Past x ~ 300 at the README grid that sum
    cancels by about 13 orders and the values are rounding noise; no
    record reads them.
    """
    x_points = np.atleast_1d(np.asarray(x_points, dtype=float))
    y = fixed.grid.x
    g = np.abs(fixed.values) ** (2.0 * kern.s) * fixed.values
    order = np.argsort(x_points)
    xs = x_points[order]
    forward = _one_sided_sums(kern.residue_rate, y, g, xs, "right")
    backward = _one_sided_sums(np.conj(kern.residue_rate), -y[::-1], g[::-1], -xs[::-1], "left")[::-1]
    residue = np.empty(x_points.shape, dtype=complex)
    residue[order] = kern.residue_amp * forward + np.conj(kern.residue_amp) * backward
    out = np.empty(x_points.shape, dtype=complex)
    for i, x in enumerate(x_points):
        out[i] = fixed.grid.h / SQRT_2PI * (np.sum(kern.branch_cut(x - y) * g) + residue[i])
    return out


@dataclass
class TailFit:
    """Two-scale tail fit of a solved profile against the model constants.

    The algebraic fields describe the branch-cut term of the kernel
    convolution in the frozen-phase reading (the oscillatory factor of its
    coefficient treated as constant across the convolution);
    `far_remainder_max` reports the honest remainder of
    the reconstruction after removing the exponential part, which is
    oscillation-damped far below that model term.  The far window behind it
    is reconstructed on first read, with the fit's kernel-tail table; its
    values past x ~ 300 are rounding noise (see `far_field_reconstruction`),
    and no record reads them.
    `decay_bound` reports the uniform decay bound on the reconstruction at
    the decay-bound points, made with the fit.
    """

    exp_rate: float
    exp_amplitude: float
    exp_amplitude_oracle: float
    alg_exponent: float
    alg_coefficient: float
    alg_coefficient_model: float
    oscillation_frequency: float
    window_far: tuple
    exp_fit_residual: float
    alg_fit_residual: float
    n_samples: tuple
    decay_bound: dict
    _far_remainder: Callable[[], float] = field(repr=False, compare=False)

    @functools.cached_property
    def far_remainder_max(self) -> float:
        return self._far_remainder()

    def window_failure(self) -> bool:
        return self.exp_fit_residual > 0.1 or self.alg_fit_residual > 0.1


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
    e^{-sqrt(lam)|x|}/(2 sqrt(lam)), which pins the bookkeeping).  One
    kernel-tail table covers both the far window and the decay-bound
    points; the decay-bound points are reconstructed here, the far window
    on the first read of `far_remainder_max`.
    """
    s = params.s
    lam = params.lam
    rate_model = math.sqrt(lam)
    kc = kernel_constants(params)
    fixed, _, _ = gauge_fix(result.profile)
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
    xw = grid.x[mask]
    yw = np.log(np.abs(fixed.values[mask]))
    coef, res_e, *_ = np.polyfit(xw, yw, 1, full=True)
    exp_rate = -float(coef[0])
    exp_amp = float(np.exp(coef[1]))
    exp_resid = float(np.sqrt(res_e[0] / mask.sum())) if len(res_e) else 0.0

    # far window: the frozen-phase algebraic term of the convolution,
    # |m_alg(x)| integral(g) / sqrt(2 pi), versus the honest remainder
    g_int = complex(grid.h * np.sum(np.abs(fixed.values) ** (2.0 * s) * fixed.values))
    xs_far = np.geomspace(max(3.0 * x_cross, grid.length / 3.0), 8.0 * x_cross, 24)
    x_bound = np.geomspace(grid.length / 3.0, grid.length / 1.5, 12)

    alg_term = kernel_pointwise(xs_far, params, result.multiplier, parts=True)[2] * g_int / SQRT_2PI
    coef_a, res_a, *_ = np.polyfit(np.log(xs_far), np.log(np.abs(alg_term)), 1, full=True)
    alg_exponent = -float(coef_a[0])
    alg_coefficient = float(np.exp(coef_a[1]))
    alg_resid = float(np.sqrt(res_a[0] / len(xs_far))) if len(res_a) else 0.0
    kern = _KernelTail.covering(grid, params, result.multiplier, np.concatenate([xs_far, x_bound]))

    def far_remainder() -> float:
        rec = far_field_reconstruction(fixed, kern, xs_far)
        return float(np.max(np.abs(rec - exp_amp * np.exp(-exp_rate * xs_far))))

    return TailFit(
        exp_rate=exp_rate,
        exp_amplitude=exp_amp,
        exp_amplitude_oracle=amp_oracle,
        alg_exponent=alg_exponent,
        alg_coefficient=alg_coefficient,
        alg_coefficient_model=alg_model,
        # frozen-phase oscillation frequency, from the kernel branch-cut phase
        oscillation_frequency=_oscillation_frequency(params, result.multiplier, float(xs_far[0])),
        window_far=(float(xs_far[0]), float(xs_far[-1])),
        exp_fit_residual=exp_resid,
        alg_fit_residual=alg_resid,
        n_samples=(int(mask.sum()), len(xs_far)),
        decay_bound=decay_bound_check(fixed, params, x_bound, far_field_reconstruction(fixed, kern, x_bound)),
        _far_remainder=far_remainder,
    )


def decay_bound_check(fixed: Profile, params: ModelParams, x_far: np.ndarray, far: np.ndarray) -> dict:
    """Minimal constant of the uniform two-scale decay bound.

    |R_N(x)| <= C (e^{-sqrt(lam)|x|} + N^{s(2+s)/(2-s)} / (1 + |x|^{s+1}))
    over the grid samples of the gauge-fixed profile (|x| <= L/4) plus the
    far-field samples `far` at `x_far` (reconstructed beyond the torus);
    C always exists for finite samples, and its N-uniformity is the
    assertion made by the acceptance suite.
    """
    s = params.s
    lam = params.lam
    npow = kernel_constants(params)["n_power"]
    grid = fixed.grid
    mask = np.abs(grid.x) <= grid.length / 4.0
    xs = grid.x[mask]
    vals = np.abs(fixed.values[mask])
    bound = np.exp(-math.sqrt(lam) * np.abs(xs)) + npow / (1.0 + np.abs(xs) ** (s + 1.0))
    c_grid = float(np.max(vals / bound))
    x_far = np.abs(np.asarray(x_far, dtype=float))
    bound_far = np.exp(-math.sqrt(lam) * x_far) + npow / (1.0 + x_far ** (s + 1.0))
    c_far = float(np.max(np.abs(far) / bound_far))
    return {
        "C_min": max(c_grid, c_far),
        "C_grid": c_grid,
        "C_far": c_far,
        "n_power": npow,
    }

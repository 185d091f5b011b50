"""Fourier symbols of the reduced traveling-wave problem and the convolution kernel.

Implements the parameters (s, N) of the renormalized problem, the base
symbol n(xi) = |xi+1|^s - s xi - 1, its mass-rescaled version n_N, and a
high-accuracy pointwise evaluator of the kernel m_N = Finv(1/(n_N + theta))
for tail studies.  Nothing here depends on the drift: the drift symbol, its
stationary point and the drift transform are test helpers (tests/drift.py),
and the lower bound of n with its explicit constant C(A) is a test oracle
(tests/oracles.py).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics_roots import find_root_translated, n_series
from .spectral import SQRT_2PI

__all__ = [
    "ModelParams",
    "lambda_of_s",
    "symbol_n",
    "symbol_nN",
    "kernel_pointwise",
    "laplace_transform",
    "kernel_constants",
    "kernel_shift",
    "residue_data",
]


def lambda_of_s(s: float) -> tuple[float, float]:
    """(rho0, lambda(s)), rho0 the mass of the unit-multiplier ground state.

    rho0 is the closed-form mass of (s+1)^{1/s} sech^{2/s}(s x), by
    integral sech^{2a} = sqrt(pi) Gamma(a) / Gamma(a + 1/2) with a = 1/s;
    lambda(s) = ((s(s-1)/2) rho0^s)^(-2/(2-s)).
    """
    if not 1.0 < s < 2.0:
        raise ValueError("lambda(s) requires 1 < s < 2")
    a = 1.0 / s
    rho0 = (s + 1.0) ** a * math.sqrt(math.pi) * math.gamma(a) / (s * math.gamma(a + 0.5))
    lam = ((s * (s - 1.0) / 2.0) * rho0**s) ** (-2.0 / (2.0 - s))
    return rho0, lam


@dataclass
class ModelParams:
    """The parameters (s, N) of the renormalized problem, 1 < s < 2, N > 0, plus the derived scalars.

    The drift is not among them: the reduction removes it, and the drift
    functions of the tests (tests/drift.py) take it as an argument of their own.
    """

    s: float
    N: float

    def __post_init__(self):
        if not 1.0 < self.s < 2.0:
            raise ValueError(f"s must lie in (1, 2) (got {self.s})")
        if self.N <= 0.0:
            raise ValueError("mass N must be positive")

    @property
    def kappa(self) -> float:
        return self.N ** (self.s / (2.0 - self.s))

    @property
    def s0(self) -> float:
        return (self.s * (self.s - 1.0) / 2.0) ** (-1.0 / self.s)

    @property
    def lam(self) -> float:
        """Multiplier lambda(s) of the small-mass limit profile."""
        return lambda_of_s(self.s)[1]


def symbol_n(xi, s: float):
    """n(xi) = |xi + 1|^s - s xi - 1, 1 < s < 2; nonnegative with strict minimum 0 at 0.

    Small arguments are evaluated through the Taylor series of the analytic
    branch so the quadratic minimum keeps full relative accuracy.
    """
    if not 1.0 < s < 2.0:
        raise ValueError(f"s must lie in (1, 2), got {s}")
    xi = np.asarray(xi, dtype=float)
    direct = np.abs(xi + 1.0) ** s - s * xi - 1.0
    small = np.abs(xi) <= 0.5
    if direct.ndim == 0:  # a 0-d result is a numpy scalar, which takes no item assignment
        return n_series(xi, s) if small else direct
    direct[small] = n_series(xi[small], s)  # the series runs on the small entries alone
    return direct


def symbol_nN(xi, params: ModelParams):
    """Rescaled symbol n_N(xi) = 2 n(kappa xi) / (s (s-1) kappa^2)."""
    s, k = params.s, params.kappa
    return 2.0 * symbol_n(k * np.asarray(xi, dtype=float), s) / (s * (s - 1.0) * k**2)


def kernel_shift(params: ModelParams, theta: float) -> float:
    """Constant shift c = (s(s-1)/2) kappa^2 theta in the unscaled symbol n + c.

    This is the shift appearing in the analytic continuations f1/f2; the
    factor s(s-1)/2 converts the multiplier of the rescaled equation to the
    normalization of n, so it is also the multiplier eta of the
    beta-independent equation (convert_multipliers in tests/drift.py).
    """
    s = params.s
    return 0.5 * s * (s - 1.0) * params.kappa**2 * theta


def kernel_constants(params: ModelParams) -> dict:
    """Constants of the two-scale kernel expansion.

    C1 multiplies the exponential term; the algebraic term has envelope
    c2_envelope * N^{s(2+s)/(2-s)} / |x|^{s+1} and oscillation frequency
    1/kappa.  c2_envelope carries the factor s^2 |i^{s+1} + (-i)^{s+1}|
    required for consistency with the contour computation (it vanishes at
    s = 2, where the kernel tail is purely exponential).
    """
    s = params.s
    lam = params.lam
    gam = math.gamma(s)
    c1 = math.sqrt(math.pi / (2.0 * lam))
    env = s**2 * math.sin(math.pi * s / 2.0) * gam / (SQRT_2PI * (s - 1.0))
    return {
        "C1": c1,
        "c2_envelope": env,
        "n_power": params.N ** (s * (2.0 + s) / (2.0 - s)),
    }


# -- pointwise evaluator -----------------------------------------------------


def _branch_cut_integrand(t, s: float, c: float):
    """1/fa(t) - 1/fb(t) on the vertical branch cut, fa, fb = (+-i)^s t^s - i s t + s - 1 + c.

    Written as (fb - fa)/(fa fb) to avoid cancellation.
    """
    ipow = np.exp(1j * np.pi * s / 2.0)  # i^s
    impow = np.exp(-1j * np.pi * s / 2.0)  # (-i)^s
    ts = t**s
    fa = ipow * ts - 1j * s * t + s - 1.0 + c
    fb = impow * ts - 1j * s * t + s - 1.0 + c
    return (impow - ipow) * ts / (fa * fb)


# trapezoid rule in u = log t: nodes umin + h k, k = 0..n-1, reaching
# e^{-X t} < e^{-74} at the top for every X >= _LAPLACE_X_FLOOR
_LAPLACE_UMIN = -40.0
_LAPLACE_H = 0.2
_LAPLACE_X_FLOOR = 1e-8
_LAPLACE_BLOCK = 8192  # nodes x abscissae per block of the exponential table


def laplace_transform(s: float, c: float, X, *, derivatives: int = 0):
    """integral_0^inf e^{-X t} diff(t) dt for every X > 0, diff the `_branch_cut_integrand`.

    After t = e^u the integrand is analytic in a strip around the real u-axis
    and decays at both ends, so the plain trapezoid rule converges like
    e^{-2 pi d / h} (Trefethen & Weideman, SIAM Rev. 56 (2014) 385).  The
    strip half-width d is set by the pole of diff at t = -i y, y the residue
    root, whose angle below the axis is pi/2 - arg y; the step is the
    smaller of 0.2 and the one that keeps the aliasing error near 1e-15.
    All X >= 1e-8 share one node set, so a value does not depend on the
    other abscissae of the call (for one s, c); smaller X extend it upwards.

    With derivatives=k > 0, returns the transform and its first k
    X-derivatives as a tuple: the j-th is the same rule on the same
    exponentials with the weights times (-t)^j.
    """
    X = np.asarray(X, dtype=float)
    if np.any(~(X > 0.0)):
        raise ValueError("Laplace abscissae must be positive")
    d = np.pi / 2.0 - np.angle(find_root_translated(s, c))
    h = min(_LAPLACE_H, 2.0 * np.pi * d / 36.0)
    x_lo = min(float(X.min()), _LAPLACE_X_FLOOR)
    n = int(math.ceil((math.log(45.0 / x_lo) + 0.5 - _LAPLACE_UMIN) / h)) + 1
    t = np.exp(_LAPLACE_UMIN + h * np.arange(n))
    weights = h * t * _branch_cut_integrand(t, s, c)
    weight_rows = [weights]
    for _ in range(derivatives):
        weight_rows.append(-t * weight_rows[-1])
    flat = X.ravel()
    out = np.empty((len(weight_rows),) + flat.shape, dtype=complex)
    rows = max(1, _LAPLACE_BLOCK // n)
    for i in range(0, flat.size, rows):
        # e^{-X t} underflows to 0 silently; a clamp at 746 would only leave subnormals
        decay = np.exp(np.multiply.outer(flat[i : i + rows], -t))
        for k, row_weights in enumerate(weight_rows):
            # a row sum runs over the nodes alone, whatever the block height
            out[k, i : i + rows] = (decay * row_weights).sum(axis=1)
    out = out.reshape((len(weight_rows),) + X.shape)
    return tuple(out[k, ...] for k in range(len(weight_rows))) if derivatives else out[0, ...]


def _laplace_quad(func, X: float) -> complex:
    """integral_0^inf e^{-X t} func(t) dt, func smooth with ~t^s growth at 0, ~t^-s decay.

    Test oracle for `laplace_transform`: two adaptive scalar QUADPACK calls
    per abscissa.  Trusted for X >= ~1e-5 only: below that the unscaled
    integrand spreads over t ~ 1/X and QUADPACK returns errors up to ~1e-2
    relative (at s = 1.4, X = 8.1e-7) behind its muted IntegrationWarning.
    It stays in the package while the benchmark's tracer wraps it here, and
    loads scipy.integrate only when called.

    For X >= 1 the variable is rescaled to tau = X t so the integrand stays
    O(1)-localized however large X gets; for small X the original variable is
    kept (the rescaled form would concentrate an integrable spike at 0).
    """
    from scipy.integrate import IntegrationWarning, quad

    if X >= 1.0:

        def re_part(tau):
            return math.exp(-tau) * func(tau / X).real

        def im_part(tau):
            return math.exp(-tau) * func(tau / X).imag

        scale = 1.0 / X
    else:

        def re_part(t):
            return math.exp(-min(X * t, 746.0)) * func(t).real

        def im_part(t):
            return math.exp(-min(X * t, 746.0)) * func(t).imag

        scale = 1.0

    out = 0.0 + 0.0j
    with warnings.catch_warnings():
        # roundoff-level extrapolation warnings; the achieved accuracy is
        # cross-checked against the independent real-axis evaluator
        warnings.simplefilter("ignore", IntegrationWarning)
        for part, unit in ((re_part, 1.0), (im_part, 1j)):
            val, _ = quad(part, 0.0, np.inf, epsabs=1e-300, epsrel=1e-11, limit=400)
            out += unit * val
    return out * scale


def residue_data(params: ModelParams, theta: float) -> tuple[float, complex, complex]:
    """(pref, y, f1'(y)) of the residue term pref 2 pi i e^{i X y} / f1'(y), X = |x|/kappa."""
    s = params.s
    pref = s * (s - 1.0) * params.kappa / (2.0 * SQRT_2PI)
    y_t = find_root_translated(s, kernel_shift(params, theta))  # root of y^s - s y + s - 1 + c
    y_root = y_t - 1.0  # back to the untranslated variable
    df = s * ((y_root + 1.0) ** (s - 1.0) - 1.0)
    return pref, y_root, df


def kernel_pointwise(x, params: ModelParams, theta: float, *, parts: bool = False):
    """High-accuracy evaluation of m_N(x) off the grid, |x| > 0, as an array of x's shape.

    The Fourier inversion integral is evaluated after exact contour
    deformation (split at the symbol kink xi = -1/kappa): a residue term at
    the single upper root of the continued symbol plus two Laplace-type
    integrals along the vertical branch cut.  Both pieces are free of
    oscillatory cancellation, so the result keeps full relative accuracy far
    into the tail.  For x < 0 the Hermitian symmetry of the real symbol gives
    m_N(-x) = conj(m_N(x)).  An array x is evaluated in one Laplace rule
    call; each entry with |x|/kappa >= 1e-8 equals the call at that x alone.

    With parts=True, returns (total, exponential part, algebraic part).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise ValueError("pointwise evaluator requires |x| > 0; use the grid sample at 0")
    X = np.abs(x) / params.kappa
    pref, y_root, df = residue_data(params, theta)
    exp_term = pref * 2.0 * np.pi * 1j * np.exp(1j * X * y_root) / df
    vert = 1j * np.exp(-1j * X) * laplace_transform(params.s, kernel_shift(params, theta), X)
    alg_term = pref * vert

    total = exp_term + alg_term
    out = tuple(np.where(x < 0, np.conj(v), v) for v in (total, exp_term, alg_term))
    return out if parts else out[0]

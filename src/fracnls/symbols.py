"""Fourier symbols of the reduced traveling-wave problem and the convolution kernel.

Implements the base symbol n(xi) = |xi+1|^s - s xi - 1, its mass-rescaled
version n_N, the drift symbol m_beta, the lower bound with the explicit
constant C(A), and the kernel m_N = Finv(1/(n_N + theta)) with both a
grid-sampled (periodized) form and a high-accuracy pointwise evaluator for
tail studies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .asymptotics_roots import find_root_translated, n_series
from .spectral import SQRT_2PI, Profile, SpectralGrid, apply_multiplier

__all__ = [
    "ModelParams",
    "KernelField",
    "symbol_n",
    "symbol_nN",
    "symbol_mbeta",
    "stationary_point",
    "check_lower_bound",
    "build_kernel",
    "kernel_pointwise",
    "laplace_transform",
    "kernel_constants",
    "kernel_shift",
]


@lru_cache(maxsize=64)
def _rho0_lambda(s: float) -> tuple[float, float]:
    # rho0 = mass of the unit-multiplier local ground state (s+1)^{1/s} sech^{2/s}(s x):
    # integral sech^{2a} = sqrt(pi) Gamma(a) / Gamma(a + 1/2), here with a = 1/s
    a = 1.0 / s
    rho0 = (s + 1.0) ** a * math.sqrt(math.pi) * math.gamma(a) / (s * math.gamma(a + 0.5))
    lam = ((s * (s - 1.0) / 2.0) * rho0**s) ** (-2.0 / (2.0 - s)) if s < 2.0 else np.nan
    return rho0, lam


@dataclass
class ModelParams:
    """Parameter bundle (s, beta, N) plus the derived scalars.

    s = 2 is accepted only with validation=True (symbol identities and the
    local-limit oracle); solver paths require s < 2.
    """

    s: float
    beta: float = 0.0
    N: float = 1.0
    validation: bool = False

    def __post_init__(self):
        if not (1.0 < self.s < 2.0) and not (self.s == 2.0 and self.validation):
            raise ValueError(f"s must lie in (1, 2) (got {self.s}); s = 2 needs validation mode")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
        if self.N <= 0.0:
            raise ValueError("mass N must be positive")

    @property
    def xi_star(self) -> float:
        if self.beta == 0.0:
            return 0.0
        return (2.0 * self.beta / self.s) ** (1.0 / (self.s - 1.0))

    @property
    def kappa(self) -> float:
        return self.N ** (self.s / (2.0 - self.s)) if self.s < 2.0 else np.nan

    @property
    def s0(self) -> float:
        return (self.s * (self.s - 1.0) / 2.0) ** (-1.0 / self.s)

    @property
    def rho0(self) -> float:
        return _rho0_lambda(self.s)[0]

    @property
    def lam(self) -> float:
        """Multiplier lambda(s) of the small-mass limit profile."""
        return _rho0_lambda(self.s)[1]

    def with_mass(self, N: float) -> "ModelParams":
        return ModelParams(self.s, self.beta, N, self.validation)


def symbol_n(xi, s: float):
    """n(xi) = |xi + 1|^s - s xi - 1; nonnegative with strict minimum 0 at 0.

    Small arguments are evaluated through the Taylor series of the analytic
    branch so the quadratic minimum keeps full relative accuracy.
    """
    if not (1.0 < s <= 2.0):
        raise ValueError(f"s must lie in (1, 2], got {s}")
    xi = np.asarray(xi, dtype=float)
    direct = np.abs(xi + 1.0) ** s - s * xi - 1.0
    small = np.abs(xi) <= 0.5
    if np.any(small):
        direct = np.where(small, n_series(np.where(small, xi, 0.0), s), direct)
    return direct


def symbol_nN(xi, params: ModelParams):
    """Rescaled symbol n_N(xi) = 2 n(kappa xi) / (s (s-1) kappa^2)."""
    s, k = params.s, params.kappa
    return 2.0 * symbol_n(k * np.asarray(xi, dtype=float), s) / (s * (s - 1.0) * k**2)


def symbol_mbeta(xi, params: ModelParams):
    """Drift symbol m_beta(xi) = |xi|^s - 2 beta xi."""
    xi = np.asarray(xi, dtype=float)
    return np.abs(xi) ** params.s - 2.0 * params.beta * xi


def stationary_point(params: ModelParams) -> tuple[float, float]:
    """The minimizer xi* of m_beta and its value -(xi*)^s (s-1).

    Degenerate at beta = 0 (xi* = 0), which is reported as an error.
    """
    if params.beta <= 0.0:
        raise ValueError("stationary point degenerates at beta = 0")
    xs = params.xi_star
    val = -(xs**params.s) * (params.s - 1.0)
    return xs, val


_LOWER_BOUND_SAMPLES = 4001


def check_lower_bound(A: float, s: float) -> tuple[float, bool]:
    """Constant C(A) with n(xi) - A|xi|^s >= (1-A)|xi|^s / 2 - C(A).

    C(A) = (A+1) c1(A)^s with c1(A) = (2^{s+3} (1-A)^{-1})^{1/(s-1)}; the
    inequality is confirmed on _LOWER_BOUND_SAMPLES points of |xi| <= 10 c1(A).
    """
    if not 0.0 <= A < 1.0:
        raise ValueError(f"A must lie in [0, 1), got {A}")
    c1 = (2.0 ** (s + 3.0) / (1.0 - A)) ** (1.0 / (s - 1.0))
    c_a = (A + 1.0) * c1**s
    xi = np.linspace(-10.0 * c1, 10.0 * c1, _LOWER_BOUND_SAMPLES)
    lhs = symbol_n(xi, s) - A * np.abs(xi) ** s
    rhs = 0.5 * (1.0 - A) * np.abs(xi) ** s - c_a
    verified = bool(np.all(lhs >= rhs - 1e-12 * (1.0 + np.abs(rhs))))
    return c_a, verified


def kernel_shift(params: ModelParams, theta: float) -> float:
    """Constant shift c = (s(s-1)/2) kappa^2 theta in the unscaled symbol n + c.

    This is the shift appearing in the analytic continuations f1/f2; the
    factor s(s-1)/2 converts the multiplier of the rescaled equation to the
    normalization of n.
    """
    s = params.s
    return 0.5 * s * (s - 1.0) * params.kappa**2 * theta


def kernel_constants(params: ModelParams, theta: float | None = None) -> dict:
    """Constants of the two-scale kernel expansion.

    C1 multiplies the exponential term; the algebraic term has envelope
    c2_envelope * N^{s(2+s)/(2-s)} / |x|^{s+1} and oscillation frequency
    1/kappa.  c2_envelope carries the factor s^2 |i^{s+1} + (-i)^{s+1}|
    required for consistency with the contour computation (it vanishes at
    s = 2, where the kernel tail is purely exponential); the variant with a
    single s-factor is also reported for reference.
    """
    s = params.s
    lam = params.lam
    gam = math.gamma(s)
    c1 = math.sqrt(math.pi / (2.0 * lam))
    env = s**2 * math.sin(math.pi * s / 2.0) * gam / (SQRT_2PI * (s - 1.0))
    env_single = (
        abs(s * np.exp(1j * np.pi * (s + 1) / 2.0) + np.exp(-1j * np.pi * (s + 1) / 2.0))
        * gam
        / (2.0 * SQRT_2PI * (s - 1.0))
    )
    out = {
        "C1": c1,
        "c2_envelope": env,
        "c2_envelope_single_s": float(env_single),
        "algebraic_power": s + 1.0,
        "oscillation_frequency": 1.0 / params.kappa,
        "n_power": params.N ** (s * (2.0 + s) / (2.0 - s)),
    }
    if theta is not None:
        out["decay_rate"] = math.sqrt(theta)
    return out


@dataclass
class KernelField:
    """Grid samples of m_N = Finv(1/(n_N + theta)) plus convolution handles.

    Grid samples are the periodized kernel; tail comparisons beyond |x| = L/4
    must use the pointwise evaluator instead (periodization bias is
    O(L^{-(s+1)}) and visible at the accuracy targets).
    """

    params: ModelParams
    theta: float
    grid: SpectralGrid
    values: np.ndarray = field(repr=False)
    symbol: np.ndarray = field(repr=False)

    def convolve(self, u: Profile) -> Profile:
        """Spectral convolution: identical to applying 1/(n_N + theta)."""
        return apply_multiplier(u, 1.0 / self.symbol)

    def export_csv(self, path) -> None:
        data = np.column_stack([self.grid.x, self.values.real, self.values.imag])
        np.savetxt(path, data, header="x re_mN im_mN", comments="# ")


def build_kernel(grid: SpectralGrid, params: ModelParams, theta: float) -> KernelField:
    """Sample m_N on the grid via the normalized inverse transform."""
    denom = symbol_nN(grid.xi, params) + theta
    if np.any(denom <= 0.0):
        raise ValueError("kernel symbol n_N + theta is nonpositive at some grid frequency")
    # sampling Finv(sigma) on the nodes is the Riemann sum over the lattice,
    # i.e. exactly the normalized inverse with sigma as the coefficients
    values = grid.from_fourier_coefficients(1.0 / denom)
    return KernelField(params, theta, grid, values, denom)


# -- pointwise evaluator -----------------------------------------------------


def _vertical_integrand_factory(s: float, c: float):
    ipow = np.exp(1j * np.pi * s / 2.0)  # i^s
    impow = np.exp(-1j * np.pi * s / 2.0)  # (-i)^s

    def fa(t):
        return ipow * t**s - 1j * s * t + s - 1.0 + c

    def fb(t):
        return impow * t**s - 1j * s * t + s - 1.0 + c

    def diff(t):
        # 1/fa - 1/fb, written to avoid cancellation: (fb - fa)/(fa fb)
        return (impow - ipow) * t**s / (fa(t) * fb(t))

    return diff


# trapezoid rule in u = log t: nodes umin + h k, k = 0..n-1, reaching
# e^{-X t} < e^{-74} at the top for every X >= _LAPLACE_X_FLOOR
_LAPLACE_UMIN = -40.0
_LAPLACE_H = 0.2
_LAPLACE_X_FLOOR = 1e-8
_LAPLACE_BLOCK = 8192  # nodes x abscissae per block of the exponential table


def laplace_transform(s: float, c: float, X) -> np.ndarray:
    """integral_0^inf e^{-X t} diff(t) dt for every X > 0, diff the branch-cut integrand.

    After t = e^u the integrand is analytic in a strip around the real u-axis
    and decays at both ends, so the plain trapezoid rule converges like
    e^{-2 pi d / h} (Trefethen & Weideman, SIAM Rev. 56 (2014) 385).  The
    strip half-width d is set by the pole of diff at t = -i y, y the residue
    root, whose angle below the axis is pi/2 - arg y; the step is the
    smaller of 0.2 and the one that keeps the aliasing error near 1e-15.
    All X >= 1e-8 share one node set, so a value does not depend on the
    other abscissae of the call (for one s, c); smaller X extend it upwards.
    """
    X = np.asarray(X, dtype=float)
    if np.any(~(X > 0.0)):
        raise ValueError("Laplace abscissae must be positive")
    d = np.pi / 2.0 - np.angle(find_root_translated(s, c))
    h = min(_LAPLACE_H, 2.0 * np.pi * d / 36.0)
    x_lo = min(float(X.min()), _LAPLACE_X_FLOOR)
    n = int(math.ceil((math.log(45.0 / x_lo) + 0.5 - _LAPLACE_UMIN) / h)) + 1
    t = np.exp(_LAPLACE_UMIN + h * np.arange(n))
    weights = h * t * _vertical_integrand_factory(s, c)(t)
    flat = X.ravel()
    out = np.empty(flat.shape, dtype=complex)
    rows = max(1, _LAPLACE_BLOCK // n)
    for i in range(0, flat.size, rows):
        # e^{-X t} underflows to 0 silently; a clamp at 746 would only leave subnormals
        decay = np.exp(np.multiply.outer(flat[i : i + rows], -t))
        # a row sum runs over the nodes alone, whatever the block height
        out[i : i + rows] = (decay * weights).sum(axis=1)
    return out.reshape(X.shape)


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


def _residue_data(params: ModelParams, theta: float) -> tuple[float, complex, complex]:
    """(pref, y, f1'(y)) of the residue term pref 2 pi i e^{i X y} / f1'(y), X = |x|/kappa."""
    s = params.s
    pref = s * (s - 1.0) * params.kappa / (2.0 * SQRT_2PI)
    y_t = find_root_translated(s, kernel_shift(params, theta))  # root of y^s - s y + s - 1 + c
    y_root = y_t - 1.0  # back to the untranslated variable
    df = s * ((y_root + 1.0) ** (s - 1.0) - 1.0)
    return pref, y_root, df


def kernel_pointwise(x, params: ModelParams, theta: float, *, parts: bool = False):
    """High-accuracy evaluation of m_N(x) off the grid, |x| > 0, for a scalar or an array x.

    The Fourier inversion integral is evaluated after exact contour
    deformation (split at the symbol kink xi = -1/kappa): a residue term at
    the single upper root of the continued symbol plus two Laplace-type
    integrals along the vertical branch cut.  Both pieces are free of
    oscillatory cancellation, so the result keeps full relative accuracy far
    into the tail.  For x < 0 the Hermitian symmetry of the real symbol gives
    m_N(-x) = conj(m_N(x)).  An array x is evaluated in one Laplace rule
    call; each entry with |x|/kappa >= 1e-8 equals the scalar call at that x.

    With parts=True, returns (total, exponential part, algebraic part).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise ValueError("pointwise evaluator requires |x| > 0; use the grid sample at 0")
    X = np.abs(x) / params.kappa
    pref, y_root, df = _residue_data(params, theta)
    exp_term = pref * 2.0 * np.pi * 1j * np.exp(1j * X * y_root) / df
    vert = 1j * np.exp(-1j * X) * laplace_transform(params.s, kernel_shift(params, theta), X)
    alg_term = pref * vert

    total = exp_term + alg_term
    out = tuple(np.where(x < 0, np.conj(v), v) for v in (total, exp_term, alg_term))
    if x.ndim == 0:
        out = tuple(complex(v) for v in out)
    return out if parts else out[0]

"""Changes of variables and multiplier conversions between the three problems.

The drift transform tau_beta, the mass rescaling between the
beta-independent and the renormalized minimizers, their composite, the
bijection between the three Lagrange-multiplier parametrizations, and the
gauge fixing that quotients the phase/translation symmetry.

Dilations are implemented by reinterpreting the grid metadata (exact and
lossless); the drift modulation is exact on the torus only when the grid
length is a multiple of 2 pi, otherwise the modulation frequency is
snapped to the nearest lattice point, and a snap beyond _SNAP_TOL is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Profile, SpectralGrid, translate
from .symbols import ModelParams, kernel_shift

__all__ = [
    "MultiplierTriple",
    "tau_beta",
    "tau_beta_inverse",
    "scale_S_to_R",
    "scale_R_to_S",
    "full_map_Q_to_R",
    "convert_multipliers",
    "gauge_fix",
]


_TRIPLE_RTOL = 1e-12
_SNAP_TOL = 0.05  # largest relative lattice snap of the drift frequency


@dataclass
class MultiplierTriple:
    """The three equivalent Lagrange multipliers of one traveling wave.

    gamma multiplies the drifted equation for Q_beta, eta the
    beta-independent equation for S, theta the renormalized equation for R;
    gamma = (xi*)^s (eta + s - 1) and eta = (s(s-1)/2) N^{2s/(2-s)} theta
    (the mass factor drops out at N = 1; it is forced by the exact scaling
    between the two equations and by the shift of the analytic
    continuations in the tail analysis).
    """

    gamma: float
    eta: float
    theta: float
    params: ModelParams

    def check(self) -> bool:
        """Whether the three multipliers satisfy both relations to _TRIPLE_RTOL."""
        s = self.params.s
        xs = self.params.xi_star
        g = xs**s * (self.eta + s - 1.0)
        e = kernel_shift(self.params, self.theta)
        ok_g = abs(g - self.gamma) <= _TRIPLE_RTOL * max(1.0, abs(self.gamma))
        ok_e = abs(e - self.eta) <= _TRIPLE_RTOL * max(1.0, abs(self.eta))
        return ok_g and ok_e


def convert_multipliers(
    params: ModelParams,
    gamma: float | None = None,
    eta: float | None = None,
    theta: float | None = None,
) -> MultiplierTriple:
    """Populate all three multipliers from exactly one of them."""
    given = [v is not None for v in (gamma, eta, theta)]
    if sum(given) != 1:
        raise ValueError("provide exactly one of gamma, eta, theta")
    s = params.s
    if gamma is not None and params.beta <= 0.0:
        raise ValueError("gamma-involving conversions need beta > 0")
    xs = params.xi_star
    mass_factor = kernel_shift(params, 1.0)
    if theta is not None:
        eta = kernel_shift(params, theta)
        gamma = xs**s * (eta + s - 1.0)
    elif eta is not None:
        theta = eta / mass_factor
        gamma = xs**s * (eta + s - 1.0)
    else:
        eta = gamma / xs**s - (s - 1.0)
        theta = eta / mass_factor
    return MultiplierTriple(float(gamma), float(eta), float(theta), params)


def _lattice_factor(params: ModelParams, source_length: float) -> float:
    """Nearest lattice-compatible modulation frequency, in units of the ideal 1.

    The drift phase at the source nodes is e^{i x_j}; on the torus that is a
    pure frequency shift iff L is a multiple of 2 pi.  Otherwise the
    frequency is snapped to (2 pi m / L) with m = round(L / 2 pi); a snap
    beyond _SNAP_TOL, or beta = 0, is refused.
    """
    if params.beta <= 0.0:
        raise ValueError("tau_beta needs beta > 0 (xi* = 0 is degenerate)")
    m = max(1, round(source_length / (2.0 * math.pi)))
    factor = 2.0 * math.pi * m / source_length
    if abs(factor - 1.0) > _SNAP_TOL:
        raise ValueError(
            f"xi* off-lattice: snap of {abs(factor - 1.0):.3%} exceeds tolerance {_SNAP_TOL:.3%}"
        )
    return factor


def tau_beta(u: Profile, params: ModelParams) -> Profile:
    """(tau_beta u)(x) = (xi*)^{1/2} e^{i xi* x} u(xi* x), mass preserving.

    The dilation is a metadata reinterpretation (new torus length L/xi*);
    the modulation phase at the new nodes reduces to e^{i x_j} at the old
    ones and is snapped to the source lattice, so the transform is exact
    whenever L is a multiple of 2 pi.
    """
    factor = _lattice_factor(params, u.grid.length)
    xs = params.xi_star
    new_grid = SpectralGrid(u.grid.length / xs, u.grid.points)
    phase = np.exp(1j * factor * u.grid.x)
    return Profile(new_grid, math.sqrt(xs) * phase * u.values, u.gauge)


def tau_beta_inverse(q: Profile, params: ModelParams) -> Profile:
    """Inverse drift transform: u(y) = (xi*)^{-1/2} e^{-i y} q(y / xi*)."""
    xs = params.xi_star
    source_length = q.grid.length * xs
    factor = _lattice_factor(params, source_length)
    new_grid = SpectralGrid(source_length, q.grid.points)
    phase = np.exp(-1j * factor * new_grid.x)
    return Profile(new_grid, phase * q.values / math.sqrt(xs), q.gauge)


def scale_S_to_R(s_prof: Profile, params: ModelParams) -> Profile:
    """R_N(x) = s0^{1/2} N^{-1/(2-s)} S_N(x / N^{s/(2-s)}): mass N -> s0."""
    s = params.s
    amp = math.sqrt(params.s0) * params.N ** (-1.0 / (2.0 - s))
    new_grid = SpectralGrid(s_prof.grid.length * params.kappa, s_prof.grid.points)
    return Profile(new_grid, amp * s_prof.values, s_prof.gauge)


def scale_R_to_S(r_prof: Profile, params: ModelParams) -> Profile:
    """Inverse of scale_S_to_R: mass s0 -> N."""
    s = params.s
    amp = params.N ** (1.0 / (2.0 - s)) / math.sqrt(params.s0)
    new_grid = SpectralGrid(r_prof.grid.length / params.kappa, r_prof.grid.points)
    return Profile(new_grid, amp * r_prof.values, r_prof.gauge)


def full_map_Q_to_R(q_prof: Profile, params: ModelParams) -> Profile:
    """Composite rescaling/demodulation from Q_{beta,N} to R_N.

    Equals scale_S_to_R(tau_beta^{-1}(Q)); the direct formula is
    R_N(x) = s0^{1/2} N^{-1/(2-s)} (xi*)^{-1/2} e^{-i x/kappa}
             Q(x / (kappa xi*)).
    """
    return scale_S_to_R(tau_beta_inverse(q_prof, params), params)


def gauge_fix(u: Profile) -> tuple[Profile, float, float]:
    """Quotient the phase/translation symmetry.

    Translates so the mass centroid (circular mean of |u|^2 on the torus)
    is 0, then rotates the phase so the zero-frequency Fourier coefficient
    is real and nonnegative.  Returns (fixed profile, shift, phase): for
    u = e^{i phi} v(. - y) with v already fixed, shift ~ y and phase ~ phi.
    """
    vals = u.values
    dens = np.abs(vals) ** 2
    total = float(np.sum(dens))
    if total == 0.0:
        raise ValueError("cannot gauge-fix the zero profile")
    z = np.sum(dens * np.exp(2j * np.pi * u.grid.x / u.grid.length))
    shift = float(np.angle(z) * u.grid.length / (2.0 * np.pi))
    centered = translate(u, -shift)
    zero_mode = np.sum(centered.values)
    phase = float(np.angle(zero_mode)) if zero_mode != 0 else 0.0
    fixed = Profile(u.grid, centered.values * np.exp(-1j * phase), gauge="fixed")
    return fixed, shift, phase

"""The drift reduction and the changes of variables between the three problems.

A test helper, not package code: no command reads Q_beta or gamma, so the
drift layer lives beside the criteria and module tests that check it.  The
drift beta enters here and nowhere else: its stationary point xi*, the
drift symbol m_beta and the drift transform tau_beta take beta as an
argument, and `xi_star` is the one place that refuses beta <= 0.  The
package works on the renormalized problem, whose ModelParams is (s, N).
The module also holds the mass rescaling between the beta-independent and
the renormalized minimizers, their composite, and the bijection between the
three Lagrange-multiplier parametrizations.

Dilations are implemented by reinterpreting the grid metadata (exact and
lossless); the drift modulation is exact on the torus only when the grid
length is a multiple of 2 pi, otherwise the modulation frequency is
snapped to the nearest lattice point, and a snap beyond _SNAP_TOL is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fracnls.spectral import Profile, SpectralGrid
from fracnls.symbols import ModelParams, kernel_shift

_TRIPLE_RTOL = 1e-12
_SNAP_TOL = 0.05  # largest relative lattice snap of the drift frequency


def xi_star(s: float, beta: float) -> float:
    """The stationary point xi* = (2 beta / s)^{1/(s-1)} of m_beta; refuses beta <= 0."""
    if beta <= 0.0:
        raise ValueError(f"the drift reduction needs beta > 0, got {beta} (xi* = 0 is degenerate)")
    return (2.0 * beta / s) ** (1.0 / (s - 1.0))


def symbol_mbeta(xi, s: float, beta: float):
    """Drift symbol m_beta(xi) = |xi|^s - 2 beta xi."""
    xi = np.asarray(xi, dtype=float)
    return np.abs(xi) ** s - 2.0 * beta * xi


def stationary_point(s: float, beta: float) -> tuple[float, float]:
    """The minimizer xi* of m_beta and its value -(xi*)^s (s-1)."""
    xs = xi_star(s, beta)
    return xs, -(xs**s) * (s - 1.0)


@dataclass
class MultiplierTriple:
    """The three equivalent Lagrange multipliers of one traveling wave, at drift beta.

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
    beta: float

    def check(self) -> bool:
        """Whether the three multipliers satisfy both relations to _TRIPLE_RTOL."""
        s = self.params.s
        xs = xi_star(s, self.beta)
        g = xs**s * (self.eta + s - 1.0)
        e = kernel_shift(self.params, self.theta)
        ok_g = abs(g - self.gamma) <= _TRIPLE_RTOL * max(1.0, abs(self.gamma))
        ok_e = abs(e - self.eta) <= _TRIPLE_RTOL * max(1.0, abs(self.eta))
        return ok_g and ok_e


def convert_multipliers(
    params: ModelParams,
    beta: float,
    *,
    gamma: float | None = None,
    eta: float | None = None,
    theta: float | None = None,
) -> MultiplierTriple:
    """Populate all three multipliers at drift beta from exactly one of them."""
    given = [v is not None for v in (gamma, eta, theta)]
    if sum(given) != 1:
        raise ValueError("provide exactly one of gamma, eta, theta")
    s = params.s
    xs = xi_star(s, beta)
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
    return MultiplierTriple(float(gamma), float(eta), float(theta), params, beta)


def _lattice_factor(source_length: float) -> float:
    """Nearest lattice-compatible modulation frequency, in units of the ideal 1.

    The drift phase at the source nodes is e^{i x_j}; on the torus that is a
    pure frequency shift iff L is a multiple of 2 pi.  Otherwise the
    frequency is snapped to (2 pi m / L) with m = round(L / 2 pi); a snap
    beyond _SNAP_TOL is refused.
    """
    m = max(1, round(source_length / (2.0 * math.pi)))
    factor = 2.0 * math.pi * m / source_length
    if abs(factor - 1.0) > _SNAP_TOL:
        raise ValueError(
            f"xi* off-lattice: snap of {abs(factor - 1.0):.3%} exceeds tolerance {_SNAP_TOL:.3%}"
        )
    return factor


def tau_beta(u: Profile, s: float, beta: float) -> Profile:
    """(tau_beta u)(x) = (xi*)^{1/2} e^{i xi* x} u(xi* x), mass preserving.

    The dilation is a metadata reinterpretation (new torus length L/xi*);
    the modulation phase at the new nodes reduces to e^{i x_j} at the old
    ones and is snapped to the source lattice, so the transform is exact
    whenever L is a multiple of 2 pi.
    """
    xs = xi_star(s, beta)
    factor = _lattice_factor(u.grid.length)
    new_grid = SpectralGrid(u.grid.length / xs, u.grid.points)
    phase = np.exp(1j * factor * u.grid.x)
    return Profile(new_grid, math.sqrt(xs) * phase * u.values)


def tau_beta_inverse(q: Profile, s: float, beta: float) -> Profile:
    """Inverse drift transform: u(y) = (xi*)^{-1/2} e^{-i y} q(y / xi*)."""
    xs = xi_star(s, beta)
    source_length = q.grid.length * xs
    factor = _lattice_factor(source_length)
    new_grid = SpectralGrid(source_length, q.grid.points)
    phase = np.exp(-1j * factor * new_grid.x)
    return Profile(new_grid, phase * q.values / math.sqrt(xs))


def scale_S_to_R(s_prof: Profile, params: ModelParams) -> Profile:
    """R_N(x) = s0^{1/2} N^{-1/(2-s)} S_N(x / N^{s/(2-s)}): mass N -> s0."""
    s = params.s
    amp = math.sqrt(params.s0) * params.N ** (-1.0 / (2.0 - s))
    new_grid = SpectralGrid(s_prof.grid.length * params.kappa, s_prof.grid.points)
    return Profile(new_grid, amp * s_prof.values)


def scale_R_to_S(r_prof: Profile, params: ModelParams) -> Profile:
    """Inverse of scale_S_to_R: mass s0 -> N."""
    s = params.s
    amp = params.N ** (1.0 / (2.0 - s)) / math.sqrt(params.s0)
    new_grid = SpectralGrid(r_prof.grid.length / params.kappa, r_prof.grid.points)
    return Profile(new_grid, amp * r_prof.values)


def full_map_Q_to_R(q_prof: Profile, params: ModelParams, beta: float) -> Profile:
    """Composite rescaling/demodulation from Q_{beta,N} to R_N.

    Equals scale_S_to_R(tau_beta^{-1}(Q)); the direct formula is
    R_N(x) = s0^{1/2} N^{-1/(2-s)} (xi*)^{-1/2} e^{-i x/kappa}
             Q(x / (kappa xi*)).
    """
    return scale_S_to_R(tau_beta_inverse(q_prof, params.s, beta), params)

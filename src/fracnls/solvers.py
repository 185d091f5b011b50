"""Ground states and traveling-wave minimizers.

A Petviashvili fixed-point iteration solves at a fixed multiplier; with the
mass constrained it hands over to Newton-MINRES steps on the profile and the
multiplier.  The solvers operate on the renormalized problem, where profiles
have O(1) width; the exact rescalings to the other formulations are test
helpers (tests/drift.py).  Both iterate in Fourier space, on the
raw DFT coefficients u_hat = fft(u): the symbol acts diagonally there;
residuals, masses and pairings are sums over the coefficients (Parseval,
sum |u|^2 = sum |u_hat|^2 / M); the padded nonlinearity maps coefficients
to coefficients; and a Newton correction is added to u_hat as it comes
out of the Krylov solve, with no transform.  Grid values are formed only
where a pointwise potential or the returned profile needs them.  The
secant loop on the multiplier and the mass-projected descent that
cross-check them are test oracles in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linearized import LinearizedOperator, bordered_solve
from .renorm import gauge_fix
from .spectral import (
    Profile,
    SpectralGrid,
    fft,
    ifft,
    multiplier_values,
    pad_evaluate,
    quadratic_form,
    zero_pad,
)
from .symbols import ModelParams, symbol_nN

__all__ = [
    "SolveResult",
    "ConvergenceError",
    "local_ground_state",
    "petviashvili_solve",
    "petviashvili_mass_constrained",
    "fractional_ground_state",
    "functional_energy",
]


class ConvergenceError(RuntimeError):
    """Solver failed to converge; carries the partial iteration log."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or {}


@dataclass
class SolveResult:
    """A converged profile with its multiplier, residual, energy, and log."""

    profile: Profile
    multiplier: float
    residual: float
    energy: float
    iterations: int
    converged: bool
    stabilization: float = np.nan  # final Petviashvili factor, when applicable
    history: dict = field(default_factory=dict, repr=False)


def _nonlinear_term(coeffs: np.ndarray, p: float) -> np.ndarray:
    """The raw DFT coefficients of |u|^{p-1} u, with 2x zero padding (|u|^{p-1} := 0 at u = 0), from those of u."""
    q = p - 1.0

    def fn(v):
        a = np.abs(v)
        return np.where(a > 0.0, a**q, 0.0) * v

    return pad_evaluate(coeffs, fn)


def _power_integral(grid: SpectralGrid, values: np.ndarray, p: float) -> float:
    """integral |u|^{p+1} with the same padded quadrature as the nonlinearity."""
    return float(grid.h / 2.0 * np.sum(np.abs(zero_pad(values, 2)) ** (p + 1.0)))


def functional_energy(grid: SpectralGrid, values: np.ndarray, sigma, p: float) -> float:
    """E(u) = 1/2 <u, sigma(D) u> - (1/(p+1)) integral |u|^{p+1}.

    With sigma = n_N this is the renormalized energy; with sigma = n it is
    the beta-independent energy; with sigma = |xi|^2 the local one.
    """
    quad = quadratic_form(Profile(grid, values), sigma)
    return 0.5 * quad - _power_integral(grid, values, p) / (p + 1.0)


def local_ground_state(s: float, lam: float, grid: SpectralGrid) -> Profile:
    """Closed-form positive even solution of -R'' + lam R - R^{2s+1} = 0.

    R(x) = ((s+1) lam)^{1/(2s)} sech^{1/s}(s sqrt(lam) x), sampled on the
    grid; evaluated through logs so large arguments cannot overflow.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    amp = ((s + 1.0) * lam) ** (1.0 / (2.0 * s))
    u = np.abs(s * math.sqrt(lam) * grid.x)
    sech_pow = np.exp((math.log(2.0) - u - np.log1p(np.exp(-2.0 * u))) / s)
    return Profile(grid, amp * sech_pow)


_PETVIASHVILI_MAX_ITER = 2000


def petviashvili_solve(
    grid: SpectralGrid,
    sigma,
    theta: float,
    p: float,
    init: Profile,
    tol: float = 1e-10,
) -> SolveResult:
    """Petviashvili iteration for sigma(D)u + theta u = |u|^{p-1}u.

    u <- M^gamma (sigma(D)+theta)^{-1}(|u|^{p-1}u) with the stabilization
    factor M = <(sigma(D)+theta)u, u> / <|u|^{p-1}u, u> and the
    contraction-optimal exponent gamma = p/(p-1), iterated on the DFT
    coefficients: one padded nonlinearity (two transforms on the twice
    finer grid) per iteration serves the residual and the next step, and
    the pairings are coefficient sums.  Divergence is declared
    when M leaves [0.5, 2] for 50 consecutive iterations, and failure after
    _PETVIASHVILI_MAX_ITER iterations.
    """
    sig = multiplier_values(grid, sigma)
    denom = sig + theta
    if np.any(denom <= 0.0):
        raise ValueError("sigma + theta must be positive on all grid frequencies")
    if not np.any(init.values):
        raise ValueError("initial guess must be nonzero")
    gamma = p / (p - 1.0)
    uh = fft(init.values)
    wh = _nonlinear_term(uh, p)
    m_hist, res_hist = [], []
    bad_streak = 0
    for it in range(1, _PETVIASHVILI_MAX_ITER + 1):
        num = float(np.real(np.sum(denom * np.abs(uh) ** 2)))
        den = float(np.real(np.sum(wh * np.conj(uh))))
        if den <= 0.0:
            raise ConvergenceError(
                f"nonlinear pairing lost positivity at iteration {it}",
                {"M": m_hist, "residual": res_hist},
            )
        m_fac = num / den
        m_hist.append(m_fac)
        bad_streak = bad_streak + 1 if not 0.5 <= m_fac <= 2.0 else 0
        if bad_streak >= 50:
            raise ConvergenceError(
                f"stabilization factor out of [0.5, 2] for 50 iterations (M={m_fac:.3g})",
                {"M": m_hist, "residual": res_hist},
            )
        uh = (m_fac**gamma) * wh / denom
        wh = _nonlinear_term(uh, p)  # also the next iteration's nonlinearity
        res = float(np.linalg.norm(denom * uh - wh) / np.linalg.norm(uh))
        res_hist.append(res)
        # a residual can pass spuriously mid-collapse onto near-null symbol
        # modes; genuine fixed points also drive the stabilization to 1
        if res <= tol and abs(m_fac - 1.0) <= 1e-6:
            u = ifft(uh)
            prof = Profile(grid, u)
            energy = functional_energy(grid, u, sig, p)
            return SolveResult(
                prof, float(theta), res, energy, it, True,
                stabilization=m_fac, history={"M": m_hist, "residual": res_hist},
            )
    raise ConvergenceError(
        f"petviashvili did not reach tol={tol:g} in {_PETVIASHVILI_MAX_ITER} iterations "
        f"(residual {res_hist[-1]:.3e})",
        {"M": m_hist, "residual": res_hist},
    )


_HANDOFF_TOL = 1e-3  # Petviashvili residual at which Newton takes over
_FORCING_MAX = 1e-2  # MINRES rtol = min(_FORCING_MAX, _FORCING_FACTOR * error)
_FORCING_FACTOR = 0.1
_NEWTON_MAX_STEPS = 10
_MASS_TOL = 1e-11  # relative mass error at which the mass-constrained solve stops


def petviashvili_mass_constrained(
    grid: SpectralGrid,
    params: ModelParams,
    init: Profile | None = None,
    tol: float = 1e-10,
) -> SolveResult:
    """Solve n_N(D)R + theta R = |R|^{2s}R with the mass constraint.

    One Petviashvili solve at theta = lambda(s) to residual _HANDOFF_TOL
    brings the start into the ground-state basin; Newton steps on
    F(R, theta) = ((n_N + theta)R - |R|^{2s}R, (sum |R|^2 - s0/h)/2) then
    enforce both equations (Knoll & Keyes 2004), on the DFT coefficients
    of R.  Each step solves the bordered linearization at the iterate by
    MINRES (linearized.bordered_solve, on stacked coefficients) to the forcing
    rtol min(_FORCING_MAX, _FORCING_FACTOR * error), where the error is
    the larger of the relative residual and the relative mass error.  The
    steps stop when the residual is at most tol and the mass error at most
    _MASS_TOL.  A MINRES failure, a step that leaves n_N + theta not
    positive somewhere (its preconditioner would be indefinite), an iterate
    whose symmetry directions iR and dR/dx are linearly dependent (a
    collapsed profile, where the step's complement is undefined), an error
    that fails to halve over two consecutive steps, or _NEWTON_MAX_STEPS
    steps raise ConvergenceError.
    The history holds theta, residual and mass error at every iterate and
    the MINRES iterations of every step; `iterations` counts the
    Petviashvili and MINRES iterations.
    """
    s = params.s
    p = 2.0 * s + 1.0
    target = params.s0
    sig = symbol_nN(grid.xi, params)
    sig_min = float(sig.min())
    if init is None:
        init = local_ground_state(s, params.lam, grid)
    start = petviashvili_solve(grid, sig, params.lam, p, init, tol=_HANDOFF_TOL)
    # the iterate lives in Fourier space: a correction added there carries
    # roundoff relative to each mode, while one added on the grid would
    # leave 1e-16 white noise that n_N + theta amplifies into the residual
    uh, theta = fft(start.profile.values), params.lam
    history = {"theta": [], "residual": [], "mass_error": [], "minres_iterations": []}
    errors = []
    for step in range(_NEWTON_MAX_STEPS + 1):
        fh = (sig + theta) * uh - _nonlinear_term(uh, p)
        sq = float(np.sum(np.abs(uh) ** 2)) / grid.points  # sum |u|^2, by Parseval
        res = float(np.linalg.norm(fh) / math.sqrt(grid.points * sq))
        mass_err = abs(grid.h * sq - target) / target
        for key, value in (("theta", theta), ("residual", res), ("mass_error", mass_err)):
            history[key].append(value)
        if res <= tol and mass_err <= _MASS_TOL:
            break
        errors.append(max(res, mass_err))
        stalled = len(errors) >= 3 and errors[-1] > 0.5 * errors[-2] and errors[-2] > 0.5 * errors[-3]
        if stalled or step == _NEWTON_MAX_STEPS:
            why = "residual failed to halve over two steps" if stalled else "step cap reached"
            raise ConvergenceError(
                f"newton stopped after {step} steps: {why} (residual {res:.3e}, "
                f"mass error {mass_err:.3e})",
                history,
            )
        op = LinearizedOperator.at(params, Profile(grid, ifft(uh)), theta)
        try:
            duh, dtheta, iters = bordered_solve(
                op, fh, 0.5 * (sq - target / grid.h), min(_FORCING_MAX, _FORCING_FACTOR * errors[-1])
            )
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"newton step {step + 1}: the iterate collapsed: {exc} (residual {res:.3e}, "
                f"mass error {mass_err:.3e})",
                history,
            ) from exc
        history["minres_iterations"].append(iters)
        if duh is None:
            raise ConvergenceError(
                f"newton step {step + 1}: MINRES did not converge in {iters} iterations "
                f"(residual {res:.3e})",
                history,
            )
        uh = uh + duh
        theta += dtheta
        if theta + sig_min <= 0.0:
            raise ConvergenceError(
                f"newton step {step + 1} moved theta to {theta:.3e}, where n_N + theta is not positive",
                history,
            )
    total_iters = start.iterations + sum(history["minres_iterations"])
    return _renormalized_result(grid, sig, p, target, uh, tol, total_iters, history)


def _renormalized_result(grid, sig, p, target, uh, tol, iterations, history) -> SolveResult:
    # exact renormalization, then report the Rayleigh multiplier; at that
    # multiplier the residual is L2-orthogonal to the profile, so the
    # stabilization functional evaluates to 1 up to roundoff.  The Fourier
    # iterate uh is scaled and paired by Parseval, not transformed again
    # from the grid values: that transform's white roundoff, lifted by
    # n_N + theta, would floor the residual (about 1.2e-11 at s = 1.3, N = 0.1)
    sq = float(np.sum(np.abs(uh) ** 2))
    uh = uh * math.sqrt(grid.points * target / (grid.h * sq))
    sq = float(np.sum(np.abs(uh) ** 2))
    wh = _nonlinear_term(uh, p)
    # theta = <w - sigma(D)u, u> / <u, u>, the L2 pairing identity
    theta = float(np.real(np.sum((wh - sig * uh) * np.conj(uh))) / sq)
    res = float(np.linalg.norm((sig + theta) * uh - wh) / math.sqrt(sq))
    vals = ifft(uh)
    energy = functional_energy(grid, vals, sig, p)
    num = float(np.real(np.sum((sig + theta) * np.abs(uh) ** 2)))
    den = float(np.real(np.sum(wh * np.conj(uh))))
    return SolveResult(
        Profile(grid, vals), theta, res, energy, iterations, res <= 10 * tol,
        stabilization=num / den, history=history,
    )


def fractional_ground_state(s: float, grid: SpectralGrid | None = None) -> tuple[Profile, float, float]:
    """Ground state Q of |D|^s Q + Q = Q^{2s+1} and the sharp constant.

    Returns (Q, C_s, <Q,Q>) with C_s = (s+1)/<Q,Q>^s; s = 2 is the local
    limit, the quintic soliton.  Q has an algebraic tail for s < 2, so the
    default torus is generous (L = 256).
    """
    if not 1.0 < s <= 2.0:
        raise ValueError(f"fractional ground state requires 1 < s <= 2 (got {s})")
    if grid is None:
        grid = SpectralGrid(256.0, 8192)
    init = Profile(grid, np.exp(-grid.x**2))
    sig = np.abs(grid.xi) ** s
    result = petviashvili_solve(grid, sig, 1.0, 2.0 * s + 1.0, init, tol=1e-12)
    q = result.profile
    # the solve is phase/translation-neutral: recentre and strip the phase
    q = gauge_fix(q)
    mass = q.mass()
    c_s = (s + 1.0) / mass**s
    return q, c_s, mass

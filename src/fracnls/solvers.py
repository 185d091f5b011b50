"""Ground states and traveling-wave minimizers.

A Petviashvili fixed-point iteration solves at a fixed multiplier; with the
mass constrained, Newton-MINRES steps on the profile and the multiplier
take over, started from the same solve on the coarse grid of spacing
min(1/8, 0.5/sqrt(lambda(s))) when the requested grid is finer (mesh
sequencing), else from a Petviashvili hand-off.  The solvers operate on the
renormalized problem, where profiles have O(1) width; the exact rescalings
to the other formulations are test helpers (tests/drift.py).  Both iterate
in Fourier space, on the raw DFT coefficients u_hat = fft(u): the symbol
acts diagonally there; residuals, masses and pairings are sums over the
coefficients (Parseval, sum |u|^2 = sum |u_hat|^2 / M); the padded
nonlinearity maps coefficients to coefficients; and a Newton correction is
added to u_hat as it comes out of the Krylov solve, with no transform.  A
solve's result is its coefficients: the Petviashvili iteration takes and
returns them, a mass-constrained solve hands them from its start to the
coarse level, to the hand-off, to the Newton steps and from each step, with
the symbol values, to its linearization, and a SolveResult holds them.
Grid values are formed only where a pointwise potential needs them, and
where a caller reads SolveResult.profile.  A solve ends from the
nonlinearity its last residual check padded: the energy is a coefficient
sum (integral |u|^{p+1} = (h/M) Re sum w_hat conj(u_hat)), and the mass
renormalization by c scales that nonlinearity by c^p, so the finish makes
no transform.  The secant loop on the multiplier, the mass-projected
descent and the energy functional on grid values that cross-check them are
test oracles in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linearized import LinearizedOperator, bordered_solve
from .renorm import gauge_fix
from .spectral import Profile, SpectralGrid, fft, ifft, pad_evaluate, resample
from .symbols import ModelParams, symbol_nN

__all__ = [
    "SolveResult",
    "ConvergenceError",
    "local_ground_state",
    "petviashvili_solve",
    "petviashvili_mass_constrained",
    "fractional_ground_state",
]


class ConvergenceError(RuntimeError):
    """Solver failed to converge; carries the partial iteration log."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or {}


@dataclass
class SolveResult:
    """A solve's raw DFT coefficients on its grid, with its multiplier, residual, energy, and log."""

    grid: SpectralGrid
    coefficients: np.ndarray = field(repr=False)
    multiplier: float
    residual: float
    energy: float
    iterations: int
    converged: bool
    history: dict = field(default_factory=dict, repr=False)

    @property
    def profile(self) -> Profile:
        """The grid values, ifft(coefficients); each read makes one transform."""
        return Profile(self.grid, ifft(self.coefficients))


def _nonlinear_term(coeffs: np.ndarray, p: float) -> np.ndarray:
    """The raw DFT coefficients of |u|^{p-1} u, with 2x zero padding (|u|^{p-1} := 0 at u = 0), from those of u."""
    q = p - 1.0

    def fn(v):
        return np.abs(v) ** q * v  # q > 0, so 0**q = 0

    return pad_evaluate(coeffs, fn)


def _parseval_energy(grid: SpectralGrid, quad: float, den: float, p: float) -> float:
    """E(u) = 1/2 <u, sigma(D) u> - (1/(p+1)) integral |u|^{p+1} from coefficient sums.

    quad = sum sigma |u_hat|^2 and den = Re sum w_hat conj(u_hat), with w_hat
    the padded nonlinearity of u_hat: by Parseval on the twice finer grid,
    den is M/h times the padded quadrature of integral |u|^{p+1}.
    """
    return grid.h / grid.points * (0.5 * quad - den / (p + 1.0))


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
    sig: np.ndarray,
    theta: float,
    p: float,
    uh: np.ndarray,
    tol: float = 1e-10,
) -> SolveResult:
    """Petviashvili iteration for sigma(D)u + theta u = |u|^{p-1}u, from the raw DFT coefficients uh.

    sig holds sigma's values on the grid frequencies (FFT order).
    u <- M^gamma (sigma(D)+theta)^{-1}(|u|^{p-1}u) with the stabilization
    factor M = <(sigma(D)+theta)u, u> / <|u|^{p-1}u, u> and the
    contraction-optimal exponent gamma = p/(p-1), iterated on the DFT
    coefficients: one padded nonlinearity (two transforms on the twice
    finer grid) per iteration serves the residual and the next step, and
    the pairings are coefficient sums.  Divergence is declared
    when M leaves [0.5, 2] for 50 consecutive iterations, and failure after
    _PETVIASHVILI_MAX_ITER iterations.
    """
    denom = sig + theta
    if not np.all(denom > 0.0):
        raise ValueError("sigma + theta must be positive on all grid frequencies")
    if not np.any(uh):
        raise ValueError("initial guess must be nonzero")
    gamma = p / (p - 1.0)
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
            quad = float(np.sum(sig * np.abs(uh) ** 2))
            den = float(np.real(np.sum(wh * np.conj(uh))))
            energy = _parseval_energy(grid, quad, den, p)
            return SolveResult(
                grid, uh, float(theta), res, energy, it, True, {"M": m_hist, "residual": res_hist}
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
_COARSE_SPACING = 1.0 / 8.0  # largest spacing of the coarse level the Newton steps start from
# and at most this fraction of the core width 1/sqrt(lambda(s)): at s <= 1.1, where
# lambda(s) > 16, spacing 1/8 under-resolves the core and the coarse level fails
_COARSE_CORE_FRACTION = 0.5


def _coarse_points(grid: SpectralGrid, lam: float) -> int:
    """The points of the coarsest grid of length L whose spacing is at most the coarse spacing.

    The coarse spacing is min(_COARSE_SPACING, _COARSE_CORE_FRACTION /
    sqrt(lam)).  grid.points when there is none coarser; a grid keeps
    SpectralGrid's least 16 points.
    """
    spacing = min(_COARSE_SPACING, _COARSE_CORE_FRACTION / math.sqrt(lam))
    points = grid.points
    while points // 2 >= 16 and grid.length / (points // 2) <= spacing:
        points //= 2
    return points


def petviashvili_mass_constrained(
    grid: SpectralGrid,
    params: ModelParams,
    init: Profile | None = None,
    tol: float = 1e-10,
) -> SolveResult:
    """Solve n_N(D)R + theta R = |R|^{2s}R with the mass constraint.

    Newton steps on F(R, theta) = ((n_N + theta)R - |R|^{2s}R,
    (sum |R|^2 - s0/h)/2) enforce both equations (Knoll & Keyes 2004), on
    the DFT coefficients of R.  They start from a coarse level when the
    grid has one (mesh sequencing, Knoll & Keyes 2004, section 3): the
    coefficients of init are resampled to the coarsest grid of the same
    length whose spacing is at most min(_COARSE_SPACING,
    _COARSE_CORE_FRACTION / sqrt(lambda(s))) (_coarse_points), solved
    there at the same tol, renormalized to the target mass, and resampled
    back with their Rayleigh multiplier.  The profile's core is O(1) wide,
    so the resampled coarse solve usually meets the stop rule on the
    requested grid at once; the grid's length holds the algebraic tail.  Without a
    coarser grid, or when the coarse solve raises ConvergenceError, one
    Petviashvili solve at theta = lambda(s) to residual _HANDOFF_TOL
    brings the start into the ground-state basin instead.  Each step
    solves the bordered linearization at the iterate by MINRES
    (linearized.bordered_solve, on stacked coefficients) to the forcing
    rtol min(_FORCING_MAX, _FORCING_FACTOR * error), where the error is
    the larger of the relative residual and the relative mass error.  The
    steps stop when the residual on the requested grid is at most tol and
    the mass error at most _MASS_TOL.  A MINRES failure, a step that leaves
    n_N + theta not positive somewhere (its preconditioner would be
    indefinite), an iterate whose symmetry directions iR and dR/dx are
    linearly dependent (a collapsed profile, where the step's complement is
    undefined), an error that fails to halve over two consecutive steps, or
    _NEWTON_MAX_STEPS steps raise ConvergenceError, whose history is the
    log of the failing grid's steps.  The result's history holds theta,
    residual, mass error and grid points at every iterate and the MINRES
    iterations of every step, the coarse level's first; `iterations`
    counts the Petviashvili and MINRES iterations of both levels.
    """
    if init is None:
        init = local_ground_state(params.s, params.lam, grid)
    return _sequenced_newton(grid, params, fft(init.values), tol)


def _sequenced_newton(grid, params, uh, tol) -> SolveResult:
    """The mass-constrained solve on grid from the coefficients uh, started from its coarse level's result."""
    p = 2.0 * params.s + 1.0
    sig = symbol_nN(grid.xi, params)
    points = _coarse_points(grid, params.lam)
    start = None
    if points < grid.points:
        try:
            start = _sequenced_newton(SpectralGrid(grid.length, points), params, resample(uh, points), tol)
        except ConvergenceError:
            pass  # the hand-off below starts the requested grid instead
    if start is None:
        start = petviashvili_solve(grid, sig, params.lam, p, uh, tol=_HANDOFF_TOL)
        uh, theta, history = start.coefficients, params.lam, {}
    else:
        uh, theta, history = resample(start.coefficients, grid.points), start.multiplier, start.history
    uh, wh, log = _newton_steps(grid, params, sig, p, uh, theta, tol)
    log["points"] = [grid.points] * len(log["theta"])
    for key, value in log.items():
        history.setdefault(key, []).extend(value)
    iterations = start.iterations + sum(log["minres_iterations"])
    return _renormalized_result(grid, sig, p, params.s0, uh, wh, tol, iterations, history)


def _newton_steps(grid, params, sig, p, uh, theta, tol):
    """Newton-MINRES steps from (uh, theta) to the stop rule.

    Returns the final uh, its padded nonlinearity (the last residual's) and the grid's log.
    """
    target = params.s0
    sig_min = float(sig.min())
    history = {"theta": [], "residual": [], "mass_error": [], "minres_iterations": []}
    errors = []
    for step in range(_NEWTON_MAX_STEPS + 1):
        wh = _nonlinear_term(uh, p)
        fh = (sig + theta) * uh - wh
        sq = float(np.sum(np.abs(uh) ** 2)) / grid.points  # sum |u|^2, by Parseval
        res = float(np.linalg.norm(fh) / math.sqrt(grid.points * sq))
        mass_err = abs(grid.h * sq - target) / target
        for key, value in (("theta", theta), ("residual", res), ("mass_error", mass_err)):
            history[key].append(value)
        if res <= tol and mass_err <= _MASS_TOL:
            return uh, wh, history
        errors.append(max(res, mass_err))
        stalled = len(errors) >= 3 and errors[-1] > 0.5 * errors[-2] and errors[-2] > 0.5 * errors[-3]
        if stalled or step == _NEWTON_MAX_STEPS:
            why = "residual failed to halve over two steps" if stalled else "step cap reached"
            raise ConvergenceError(
                f"newton stopped after {step} steps: {why} (residual {res:.3e}, "
                f"mass error {mass_err:.3e})",
                history,
            )
        op = LinearizedOperator.at(params, grid, uh, sig, theta)
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


def _renormalized_result(grid, sig, p, target, uh, wh, tol, iterations, history) -> SolveResult:
    """The result at uh scaled by c > 0 to the target mass, with its Rayleigh multiplier, residual and Parseval energy.

    |cu|^{p-1} cu = c^p |u|^{p-1} u, so the padded nonlinearity wh is
    scaled, not padded again; theta = <w - sigma(D)u, u> / <u, u>, the L2
    pairing identity, from sq = sum |u_hat|^2, quad = sum sigma |u_hat|^2,
    den = Re sum w_hat conj(u_hat).  The result keeps the scaled
    coefficients: transforming grid values back would add white roundoff
    that n_N + theta lifts into a residual floor (1.2e-11 at s = 1.3, N = 0.1).
    """
    c = math.sqrt(grid.points * target / (grid.h * float(np.sum(np.abs(uh) ** 2))))
    uh = uh * c
    wh = wh * c**p
    sq = float(np.sum(np.abs(uh) ** 2))
    quad = float(np.sum(sig * np.abs(uh) ** 2))
    den = float(np.real(np.sum(wh * np.conj(uh))))
    theta = (den - quad) / sq
    res = float(np.linalg.norm((sig + theta) * uh - wh) / math.sqrt(sq))
    return SolveResult(
        grid, uh, theta, res, _parseval_energy(grid, quad, den, p), iterations, res <= 10 * tol, history
    )


def fractional_ground_state(s: float, grid: SpectralGrid) -> tuple[Profile, float, float]:
    """Ground state Q of |D|^s Q + Q = Q^{2s+1} and the sharp constant, on grid.

    Returns (Q, C_s, <Q,Q>) with C_s = (s+1)/<Q,Q>^s; s = 2 is the local
    limit, the quintic soliton.  Q has an algebraic tail for s < 2, so a
    desk torus moves <Q,Q> in its fourth digit: the README solves on
    L = 256, M = 8192.
    """
    if not 1.0 < s <= 2.0:
        raise ValueError(f"fractional ground state requires 1 < s <= 2 (got {s})")
    sig = np.abs(grid.xi) ** s
    result = petviashvili_solve(grid, sig, 1.0, 2.0 * s + 1.0, fft(np.exp(-grid.x**2)), tol=1e-12)
    q = result.profile
    # the solve is phase/translation-neutral: recentre and strip the phase
    q = gauge_fix(q)
    mass = q.mass()
    c_s = (s + 1.0) / mass**s
    return q, c_s, mass

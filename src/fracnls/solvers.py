"""Ground states and traveling-wave minimizers.

Two independent methods are implemented so that each serves as the other's
oracle: a Petviashvili fixed-point iteration (handing over to Newton-MINRES
on the profile and the multiplier when the mass is constrained) and a
mass-projected descent on the energy.  Both operate on the renormalized
problem, where profiles have O(1) width; all other formulations are reached
through the exact rescalings in :mod:`fracnls.renorm`.  The secant loop on
the multiplier over full Petviashvili solves stays as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, minres

from .linearized import LinearizedOperator, _stack, _unstack
from .spectral import (
    Profile,
    SpectralGrid,
    fft,
    ifft,
    make_grid,
    multiplier_values,
    pad_evaluate,
    zero_pad,
)
from .symbols import ModelParams, _rho0_lambda, symbol_nN

__all__ = [
    "SolveResult",
    "ContinuationPath",
    "ConvergenceError",
    "local_ground_state",
    "lambda_of_s",
    "petviashvili_solve",
    "petviashvili_mass_constrained",
    "gradient_flow_minimize",
    "descend_symbol",
    "secant_mass_constrained",
    "fractional_ground_state",
    "continuation_in_N",
    "el_residual",
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
    method: str
    stabilization: float = np.nan  # final Petviashvili factor, when applicable
    history: dict = field(default_factory=dict, repr=False)


@dataclass
class ContinuationPath:
    entries: list  # ordered (N, SolveResult)
    s: float
    direction: str

    def masses(self):
        return [n for n, _ in self.entries]

    def multipliers(self):
        return [r.multiplier for _, r in self.entries]


def _nonlinear_term(values: np.ndarray, p: float) -> np.ndarray:
    """|u|^{p-1} u evaluated with 2x zero padding (|u|^{p-1} := 0 at u = 0)."""
    q = p - 1.0

    def fn(v):
        a = np.abs(v)
        return np.where(a > 0.0, a**q, 0.0) * v

    return pad_evaluate(values, fn)


def _power_integral(grid: SpectralGrid, values: np.ndarray, p: float) -> float:
    """integral |u|^{p+1} with the same padded quadrature as the nonlinearity."""
    return float(grid.h / 2.0 * np.sum(np.abs(zero_pad(values, 2)) ** (p + 1.0)))


def functional_energy(grid: SpectralGrid, values: np.ndarray, sigma, p: float) -> float:
    """E(u) = 1/2 <u, sigma(D) u> - (1/(p+1)) integral |u|^{p+1}.

    With sigma = n_N this is the renormalized energy; with sigma = n it is
    the beta-independent energy; with sigma = |xi|^2 the local one.
    """
    sig = multiplier_values(grid, sigma)
    coeffs = fft(values)
    quad = grid.h / grid.points * float(np.sum(sig * np.abs(coeffs) ** 2))
    return 0.5 * quad - _power_integral(grid, values, p) / (p + 1.0)


def el_residual(grid: SpectralGrid, values: np.ndarray, sigma, theta: float, p: float) -> float:
    """Relative L2 norm of sigma(D)u + theta u - |u|^{p-1}u."""
    sig = multiplier_values(grid, sigma)
    w = _nonlinear_term(values, p)
    r = ifft((sig + theta) * fft(values)) - w
    return float(np.linalg.norm(r) / np.linalg.norm(values))


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
    return Profile(grid, amp * sech_pow, gauge="fixed")


def lambda_of_s(s: float) -> tuple[float, float]:
    """(rho0, lambda(s)) from the unit-multiplier ground state mass.

    rho0 is the quadrature mass of the closed form that ModelParams.lam also
    uses; lambda(s) = ((s(s-1)/2) rho0^s)^(-2/(2-s)).
    """
    if not 1.0 < s < 2.0:
        raise ValueError("lambda(s) requires 1 < s < 2")
    return _rho0_lambda(s)


def petviashvili_solve(
    grid: SpectralGrid,
    sigma,
    theta: float,
    p: float,
    init: Profile,
    tol: float = 1e-10,
    max_iter: int = 2000,
) -> SolveResult:
    """Petviashvili iteration for sigma(D)u + theta u = |u|^{p-1}u.

    u <- M^gamma (sigma(D)+theta)^{-1}(|u|^{p-1}u) with the stabilization
    factor M = <(sigma(D)+theta)u, u> / <|u|^{p-1}u, u> and the
    contraction-optimal exponent gamma = p/(p-1).  Divergence is declared
    when M leaves [0.5, 2] for 50 consecutive iterations.
    """
    sig = multiplier_values(grid, sigma)
    denom = sig + theta
    if np.any(denom <= 0.0):
        raise ValueError("sigma + theta must be positive on all grid frequencies")
    if not np.any(init.values):
        raise ValueError("initial guess must be nonzero")
    gamma = p / (p - 1.0)
    u = init.values.astype(complex)
    w = _nonlinear_term(u, p)
    m_hist, res_hist = [], []
    bad_streak = 0
    for it in range(1, max_iter + 1):
        uh = fft(u)
        wh = fft(w)
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
        uh_next = (m_fac**gamma) * wh / denom
        u = ifft(uh_next)
        w = _nonlinear_term(u, p)  # also the next iteration's nonlinearity
        res = float(np.linalg.norm(ifft(denom * uh_next) - w) / np.linalg.norm(u))
        res_hist.append(res)
        # a residual can pass spuriously mid-collapse onto near-null symbol
        # modes; genuine fixed points also drive the stabilization to 1
        if res <= tol and abs(m_fac - 1.0) <= 1e-6:
            prof = Profile(grid, u)
            energy = functional_energy(grid, u, sig, p)
            return SolveResult(
                prof, float(theta), res, energy, it, True, "petviashvili",
                stabilization=m_fac, history={"M": m_hist, "residual": res_hist},
            )
    raise ConvergenceError(
        f"petviashvili did not reach tol={tol:g} in {max_iter} iterations "
        f"(residual {res_hist[-1]:.3e})",
        {"M": m_hist, "residual": res_hist},
    )


_HANDOFF_TOL = 1e-3  # Petviashvili residual at which Newton takes over
_FORCING_MAX = 1e-2  # MINRES rtol = min(_FORCING_MAX, _FORCING_FACTOR * error)
_FORCING_FACTOR = 0.1
_NEWTON_MAX_STEPS = 10
_NEWTON_MINRES_MAXITER = 1000
_MASS_TOL = 1e-11  # relative mass error at which both mass-constrained solvers stop
_SECANT_TOL = 1e-10  # residual of each Petviashvili solve in the secant oracle
_DESCENT_MAX_ITER = 20000
_DESCENT_STEP0 = 0.1  # first descent step; grown by 1.5 on success up to _DESCENT_STEP_MAX
_DESCENT_STEP_MAX = 1.0


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
    enforce both equations (Knoll & Keyes 2004).  Each step solves the
    symmetric bordered system [[L, R], [R^T, 0]] by MINRES, L the
    linearization at the iterate, preconditioned by the positive
    diag(1/(n_N + theta), 1/(R^T (n_N + theta)^{-1} R)), to the forcing
    rtol min(_FORCING_MAX, _FORCING_FACTOR * error), where the error is
    the larger of the relative residual and the relative mass error.  The
    steps stop when the residual is at most tol and the mass error at most
    _MASS_TOL.  A MINRES failure, an error that fails to halve over two
    consecutive steps, or _NEWTON_MAX_STEPS steps raise ConvergenceError.
    The history holds theta, residual and mass error at every iterate and
    the MINRES iterations of every step; `iterations` counts the
    Petviashvili and MINRES iterations.
    """
    s = params.s
    p = 2.0 * s + 1.0
    target = params.s0
    sig = symbol_nN(grid.xi, params)
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
        u = ifft(uh)
        f = ifft((sig + theta) * uh) - _nonlinear_term(u, p)
        sq = float(np.sum(np.abs(u) ** 2))
        res = float(np.linalg.norm(f) / math.sqrt(sq))
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
        op = LinearizedOperator.at(params, Profile(grid, u), theta)
        delta, iters = _bordered_solve(
            op, -np.append(_stack(f), 0.5 * (sq - target / grid.h)),
            min(_FORCING_MAX, _FORCING_FACTOR * errors[-1]),
        )
        history["minres_iterations"].append(iters)
        if delta is None:
            raise ConvergenceError(
                f"newton step {step + 1}: MINRES did not converge in {iters} iterations "
                f"(residual {res:.3e})",
                history,
            )
        uh = uh + fft(_unstack(delta[:-1]))
        theta += float(delta[-1])
    total_iters = start.iterations + sum(history["minres_iterations"])
    return _renormalized_result(grid, sig, p, target, uh, tol, total_iters, history)


def _bordered_solve(op: LinearizedOperator, rhs: np.ndarray, rtol: float):
    """MINRES on [[L, R], [R^T, 0]] in stacked coordinates: (solution or None, iterations).

    iR and dR/dx are near-null at the iterate (eigenvalues of the order of
    the residual).  Left in, MINRES roundoff grows a phase and translation
    drift there, far above the step, which costs mass at second order and
    inflates the solution norm that MINRES's stopping test divides by.  So,
    as in constrained_solve, the iterates stay on their orthogonal
    complement; neither direction changes the solution.
    """
    r = _stack(op.profile.values)
    n = rhs.size
    project = op.complement_projector()
    schur = float(r @ op.solve_symbol_stacked(r))

    def matvec(x):
        v = project(x[:-1])
        return np.append(project(op.apply_stacked(v) + x[-1] * r), r @ v)

    def precond(x):
        return np.append(project(op.solve_symbol_stacked(project(x[:-1]))), x[-1] / schur)

    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    sol, status = minres(
        LinearOperator((n, n), matvec=matvec, dtype=float),
        np.append(project(rhs[:-1]), rhs[-1]),
        rtol=rtol,
        maxiter=_NEWTON_MINRES_MAXITER,
        M=LinearOperator((n, n), matvec=precond, dtype=float),
        callback=count,
    )
    return (sol if status == 0 else None), iters


def _renormalized_result(grid, sig, p, target, uh, tol, iterations, history) -> SolveResult:
    # exact renormalization, then report the Rayleigh multiplier; at that
    # multiplier the residual is L2-orthogonal to the profile, so the
    # stabilization functional evaluates to 1 up to roundoff.  The Fourier
    # iterate uh is scaled, not transformed again from the grid values: that
    # transform's white roundoff, lifted by n_N + theta, would floor the
    # residual (about 1.2e-11 at s = 1.3, N = 0.1)
    vals = ifft(uh)
    scale = math.sqrt(target / float(grid.h * np.sum(np.abs(vals) ** 2)))
    vals, uh = vals * scale, uh * scale
    w = _nonlinear_term(vals, p)
    # theta = <w - sigma(D)u, u> / <u, u>, the L2 pairing identity
    su = ifft(sig * uh)
    theta = float(np.real(np.sum((w - su) * np.conj(vals))) / np.real(np.sum(vals * np.conj(vals))))
    res = float(np.linalg.norm(ifft((sig + theta) * uh) - w) / np.linalg.norm(vals))
    energy = functional_energy(grid, vals, sig, p)
    num = float(np.real(np.sum((sig + theta) * np.abs(uh) ** 2)))
    den = float(np.real(np.sum(fft(w) * np.conj(uh))))
    return SolveResult(
        Profile(grid, vals), theta, res, energy, iterations, res <= 10 * tol,
        "petviashvili", stabilization=num / den, history=history,
    )


def descend_symbol(
    grid: SpectralGrid,
    sigma,
    p: float,
    mass: float,
    init: Profile,
    tol: float = 1e-10,
) -> SolveResult:
    """Mass-projected descent on E(u) = 1/2 <u,sigma(D)u> - |u|^{p+1}/(p+1).

    Steps along the negative Riemannian gradient sigma(D)u + theta u - w
    (theta the Rayleigh multiplier, w the nonlinearity) in the
    (sigma(D) + theta)^{-1} metric, renormalizes the mass after every step,
    and backtracks by halving on any energy increase; the step is re-grown
    on success so the iteration count stays at desk scale.  Terminates when
    the Euler-Lagrange residual drops below tol, or fails when the step
    underflows with non-monotone energy.
    """
    sig = multiplier_values(grid, sigma)
    if np.any(sig < 0.0):
        raise ValueError("descent preconditioner requires a nonnegative symbol")
    u = init.values.astype(complex)
    u *= math.sqrt(mass / (grid.h * np.sum(np.abs(u) ** 2)))
    tau = _DESCENT_STEP0
    energy = functional_energy(grid, u, sig, p)
    e_hist, res_hist = [energy], []
    for it in range(1, _DESCENT_MAX_ITER + 1):
        w = _nonlinear_term(u, p)
        uh = fft(u)
        su = ifft(sig * uh)
        den = float(np.real(np.sum(u * np.conj(u))))
        theta = float(np.real(np.sum((w - su) * np.conj(u))) / den)
        grad = su + theta * u - w
        res = float(np.linalg.norm(grad) / np.linalg.norm(u))
        res_hist.append(res)
        if res <= tol:
            prof = Profile(grid, u)
            return SolveResult(
                prof, theta, res, energy, it, True, "gradient-flow",
                history={"energy": e_hist, "residual": res_hist},
            )
        shift = max(abs(theta), 1e-6)
        step_hat = fft(grad) / (sig + shift)
        # energy roundoff floor: increments below a few ulps of the kinetic
        # scale are accepted so the line search cannot stall at convergence
        slack = 1e-13 * (1.0 + abs(energy))
        while True:
            cand = u - tau * ifft(step_hat)
            cand *= math.sqrt(mass / (grid.h * np.sum(np.abs(cand) ** 2)))
            e_cand = functional_energy(grid, cand, sig, p)
            if e_cand <= energy + slack:
                u = cand
                energy = e_cand
                e_hist.append(energy)
                tau = min(tau * 1.5, _DESCENT_STEP_MAX)
                break
            tau *= 0.5
            if tau < 1e-14:
                raise ConvergenceError(
                    "descent step underflow with non-monotone energy",
                    {"energy": e_hist, "residual": res_hist},
                )
    raise ConvergenceError(
        f"descent did not reach tol={tol:g} in {_DESCENT_MAX_ITER} iterations "
        f"(residual {res_hist[-1]:.3e})",
        {"energy": e_hist, "residual": res_hist},
    )


def secant_mass_constrained(
    grid: SpectralGrid,
    params: ModelParams,
    init: Profile | None = None,
) -> SolveResult:
    """Test oracle for petviashvili_mass_constrained, with no production caller.

    A secant loop on theta enforces integral |R|^2 = s0, each step a full
    Petviashvili solve at fixed theta to residual _SECANT_TOL (the
    mass-to-multiplier map is monotone near the small-mass limit), until
    the relative mass error is at most _MASS_TOL.  The final
    renormalization is the production solver's.
    """
    s = params.s
    p = 2.0 * s + 1.0
    target = params.s0
    sig = symbol_nN(grid.xi, params)
    if init is None:
        init = local_ground_state(s, params.lam, grid)
    th0 = params.lam
    th1 = th0 * 1.05

    u = init
    solves = []

    def mass_at(theta, seed):
        r = petviashvili_solve(grid, sig, theta, p, seed, tol=_SECANT_TOL)
        solves.append(r)
        return r.profile.mass(), r

    m0, r0 = mass_at(th0, u)
    m1, r1 = mass_at(th1, r0.profile)
    th_prev, m_prev = th0, m0
    th_cur, m_cur, r_cur = th1, m1, r1
    for _ in range(60):
        if abs(m_cur - target) <= _MASS_TOL * target:
            break
        if m_cur == m_prev:
            raise ConvergenceError("secant loop stalled: mass insensitive to theta")
        th_next = th_cur - (m_cur - target) * (th_cur - th_prev) / (m_cur - m_prev)
        if th_next <= 0.0:
            th_next = th_cur / 2.0
        th_prev, m_prev = th_cur, m_cur
        m_cur, r_cur = mass_at(th_next, r_cur.profile)
        th_cur = th_next
    else:
        raise ConvergenceError(
            f"mass constraint not met: |mass - target| = {abs(m_cur - target):.3e}"
        )
    total_iters = sum(r.iterations for r in solves)
    return _renormalized_result(
        grid, sig, p, target, fft(r_cur.profile.values), _SECANT_TOL, total_iters,
        {"outer_thetas": [r.multiplier for r in solves]},
    )


def gradient_flow_minimize(
    functional: str,
    mass: float,
    init: Profile | None,
    tol: float,
    *,
    grid: SpectralGrid,
    params: ModelParams,
) -> SolveResult:
    """Constrained minimization of the reduced energies.

    functional "Y_N": the renormalized problem at mass s0 (the native solver
    problem).  functional "I": the beta-independent problem at mass N; the
    minimizer has width 1/kappa, so the descent runs on the renormalized
    problem and the result is mapped back through the exact mass/energy
    scalings (profile on the metadata-rescaled grid, eta multiplier,
    energy I(S_N)).
    """
    from .renorm import scale_R_to_S  # deferred: renorm imports nothing from here

    s = params.s
    p = 2.0 * s + 1.0
    if functional == "Y_N":
        if abs(mass - params.s0) > 1e-12 * params.s0:
            raise ValueError("the renormalized problem fixes mass = s0")
        if init is None:
            init = local_ground_state(s, params.lam, grid)
        sig = symbol_nN(grid.xi, params)
        return descend_symbol(grid, sig, p, params.s0, init, tol=tol)
    if functional == "I":
        prm = params.with_mass(mass)
        renorm_res = gradient_flow_minimize("Y_N", prm.s0, init, tol, grid=grid, params=prm)
        s_prof = scale_R_to_S(renorm_res.profile, prm)
        eta = 0.5 * s * (s - 1.0) * prm.kappa**2 * renorm_res.multiplier
        e_scale = prm.s0 ** (s + 1.0) * mass ** (-(2.0 + s) / (2.0 - s))
        energy_i = renorm_res.energy / e_scale
        return SolveResult(
            s_prof, eta, renorm_res.residual, energy_i, renorm_res.iterations,
            renorm_res.converged, "gradient-flow", history=renorm_res.history,
        )
    raise ValueError(f"unknown functional {functional!r} (expected 'I' or 'Y_N')")


def fractional_ground_state(
    s: float, grid: SpectralGrid | None = None, validation: bool = False
) -> tuple[Profile, float, float]:
    """Ground state Q of |D|^s Q + Q = Q^{2s+1} and the sharp constant.

    Returns (Q, C_s, <Q,Q>) with C_s = (s+1)/<Q,Q>^s.  Q has an algebraic
    tail for s < 2, so the default torus is generous (L = 256).
    """
    if not (1.0 < s < 2.0) and not (s == 2.0 and validation):
        raise ValueError("fractional ground state requires 1 < s < 2 (s = 2 in validation mode)")
    if grid is None:
        grid = make_grid(256.0, 8192)
    init = Profile(grid, np.exp(-grid.x**2))
    sig = np.abs(grid.xi) ** s
    result = petviashvili_solve(grid, sig, 1.0, 2.0 * s + 1.0, init, tol=1e-12)
    q = result.profile
    # the solve is phase/translation-neutral: recentre and strip the phase
    from .renorm import gauge_fix

    q, _, _ = gauge_fix(q)
    mass = q.mass()
    c_s = (s + 1.0) / mass**s
    return q, c_s, mass


def continuation_in_N(
    s: float,
    n_list,
    grid: SpectralGrid,
    direction: str = "down",
    tol: float = 1e-10,
    mass_threshold: float | None = None,
) -> ContinuationPath:
    """Solve along a mass path, seeding each mass-constrained solve from its neighbor.

    direction "down": descending masses, Gaussian seed at the largest N.
    direction "up": ascending masses, seeded from the closed-form local
    profile (the N -> 0 limit shape).  Both variants must agree after gauge
    fixing; that uniqueness probe lives in the test suite.
    """
    n_list = list(n_list)
    if direction == "down":
        n_sorted = sorted(n_list, reverse=True)
        seed = None  # Gaussian default inside the first solve
    elif direction == "up":
        n_sorted = sorted(n_list)
        seed = local_ground_state(s, lambda_of_s(s)[1], grid)
    else:
        raise ValueError("direction must be 'down' or 'up'")
    if mass_threshold is not None:
        over = [n for n in n_sorted if n >= mass_threshold]
        if over:
            raise ValueError(f"masses {over} are not below the threshold {mass_threshold}")

    entries = []
    prev_prof = seed
    for n in n_sorted:
        prm = ModelParams(s, 0.0, n)
        init = prev_prof
        if init is None:
            init = Profile(grid, np.exp(-grid.x**2) * math.sqrt(prm.s0))
        try:
            res = petviashvili_mass_constrained(grid, prm, init=init, tol=tol)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"continuation aborted at N={n}: {exc}",
                {"partial_path": entries, "failed_N": n},
            ) from exc
        if entries:
            prev = entries[-1][1].profile.values
            rel = np.linalg.norm(res.profile.values - prev) / np.linalg.norm(prev)
            if rel > 0.5:
                raise ConvergenceError(
                    f"continuation step too large at N={n}: relative change {rel:.2f}",
                    {"partial_path": entries, "failed_N": n},
                )
        entries.append((n, res))
        prev_prof = res.profile
    return ContinuationPath(entries, s, direction)

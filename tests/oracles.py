"""Test oracles: independent cross-checks of the package's production paths.

None of these has a caller in the package.  Each reproduces a quantity the
package computes another way:

- `secant_mass_constrained`: the mass constraint by a secant loop on the
  multiplier over full Petviashvili solves (the production solver takes
  Newton-MINRES steps);
- `descend_symbol` and `gradient_flow_minimize`: the ground state by
  mass-projected descent on the energy, a second solver;
- `kernel_zero_value` and `kernel_realaxis_quadrature`: the kernel m_N by
  QUADPACK on the real axis (the package deforms the contour);
- `local_dense`: the local-limit operators L+/L- as dense matrices;
- `spectral_interpolate`: the band-limited interpolant summed directly
  as a Fourier series (the package translates by a spectral phase).

`symbols._laplace_quad` and `LinearizedOperator.dense` are oracles too, but
stay in the package while the benchmark's tracer wraps them there.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import circulant

from fracnls.linearized import LocalOperator
from fracnls.renorm import scale_R_to_S
from fracnls.solvers import (
    _MASS_TOL,
    ConvergenceError,
    SolveResult,
    _nonlinear_term,
    _renormalized_result,
    functional_energy,
    local_ground_state,
    petviashvili_solve,
)
from fracnls.spectral import SQRT_2PI, Profile, SpectralGrid, fft, ifft, multiplier_values
from fracnls.symbols import ModelParams, symbol_nN

_SECANT_TOL = 1e-10  # residual of each Petviashvili solve in the secant oracle
_DESCENT_MAX_ITER = 20000
_DESCENT_STEP0 = 0.1  # first descent step; grown by 1.5 on success up to _DESCENT_STEP_MAX
_DESCENT_STEP_MAX = 1.0


# -- solvers -------------------------------------------------------------------


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
                prof, theta, res, energy, it, True,
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
    """Oracle for petviashvili_mass_constrained.

    A secant loop on theta enforces integral |R|^2 = s0, each step a full
    Petviashvili solve at fixed theta to residual _SECANT_TOL (the
    mass-to-multiplier map is monotone near the small-mass limit), until
    the relative mass error is at most the production solver's _MASS_TOL.
    The final renormalization is the production solver's.
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
            renorm_res.converged, history=renorm_res.history,
        )
    raise ValueError(f"unknown functional {functional!r} (expected 'I' or 'Y_N')")


# -- the kernel on the real axis -----------------------------------------------


def kernel_zero_value(params: ModelParams, theta: float) -> float:
    """m_N(0) = (1/sqrt(2 pi)) integral dxi / (n_N + theta), by quadrature."""

    def integrand(xi):
        return 1.0 / (float(symbol_nN(xi, params)) + theta)

    acc = 0.0
    kink = 1.0 / params.kappa
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in ((-np.inf, -kink), (-kink, 0.0), (0.0, kink), (kink, np.inf)):
            val, _ = quad(integrand, a, b, epsabs=1e-14, epsrel=1e-11, limit=400)
            acc += val
    return acc / SQRT_2PI


def kernel_realaxis_quadrature(x: float, params: ModelParams, theta: float) -> complex:
    """Independent oscillatory-quadrature evaluation of m_N(x) on the real axis.

    Adaptive panels with QUADPACK's oscillatory weights, split at the symbol
    kink; infinite tails use the Fourier-integral routine.  Loses relative
    accuracy once |m_N| falls below ~1e-13 of the integrand scale, so it
    serves as the mid-range cross-check of the contour evaluator.
    """
    if x == 0.0:
        return complex(kernel_zero_value(params, theta))
    w = abs(x)

    def f(xi):
        return 1.0 / (float(symbol_nN(xi, params)) + theta)

    # even/odd split avoids the cancellation that defeats the oscillatory
    # quadrature when the small odd component rides on the O(1) even bulk
    def f_even(xi):
        return 0.5 * (f(xi) + f(-xi))

    def f_odd(xi):
        return 0.5 * (f(xi) - f(-xi))

    cut = min(1.0 / params.kappa, 200.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        ce_, _ = quad(f_even, 0.0, cut, weight="cos", wvar=w, epsabs=1e-14, epsrel=1e-11, limit=1000)
        ct_, _ = quad(f_even, cut, np.inf, weight="cos", wvar=w, epsabs=1e-13, limit=1000)
        se_, _ = quad(f_odd, 0.0, cut, weight="sin", wvar=w, epsabs=1e-14, epsrel=1e-11, limit=1000)
        st_, _ = quad(f_odd, cut, np.inf, weight="sin", wvar=w, epsabs=1e-13, limit=1000)
    cos_int = 2.0 * (ce_ + ct_)
    sin_int = 2.0 * (se_ + st_)
    return complex((cos_int + 1j * np.sign(x) * sin_int) / SQRT_2PI)


# -- dense matrices --------------------------------------------------------------


def local_dense(op: LocalOperator) -> np.ndarray:
    """The real M x M matrix of a local-limit operator L+ or L-."""
    col = ifft(op.grid.xi**2 + op.lam).real
    return circulant(col) - np.diag(op.potential)


# -- interpolation ---------------------------------------------------------------


def spectral_interpolate(u: Profile, x: np.ndarray) -> np.ndarray:
    """Evaluate the band-limited interpolant of u at arbitrary points."""
    coeffs = u.spectrum()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # direct evaluation of the truncated Fourier series
    ph = np.exp(1j * np.outer(x, u.grid.xi))
    return (ph @ coeffs) * u.grid.dxi / SQRT_2PI

"""Test oracles: independent cross-checks of the package's production paths.

None of these has a caller in the package.  Each reproduces a quantity the
package computes another way, or measures what only a criterion or a module
test reads:

- `functional_energy`: the energy E(u) = 1/2 <u, sigma(D) u> -
  integral |u|^{p+1}/(p+1) of grid values, by a fresh transform and a
  padded power integral (the solvers sum it from the coefficients and the
  nonlinearity they already hold);
- `secant_mass_constrained`: the mass constraint by a secant loop on the
  multiplier over full Petviashvili solves (the production solver takes
  Newton-MINRES steps);
- `descend_symbol` and `gradient_flow_minimize`: the ground state by
  mass-projected descent on the energy, a second solver;
- `el_residual`: the Euler-Lagrange residual of grid values, for the
  solvers' cross-checks;
- `stabilization_factor`: the Petviashvili factor at a solve's result,
  which a solution drives to 1 (no result stores it);
- `kernel_zero_value` and `kernel_realaxis_quadrature`: the kernel m_N by
  QUADPACK on the real axis (the package deforms the contour);
- `kernel_grid_samples`: the periodized kernel m_N sampled on a grid by the
  inverse transform of its symbol;
- `far_field_exact`: the far-field convolution of a profile's
  nonlinearity with m_N by `kernel_pointwise` on every grid pair, summed
  exactly (the package sums an interpolated kernel over a window);
- `symbol_n_where` and `n_series_out_of_place`: the symbol n with its
  small-argument series run on the whole array and chosen by np.where, by
  an out-of-place Horner loop (the package runs the series in place, on
  the small arguments alone);
- `check_lower_bound`: the lower bound of the symbol n with its explicit
  constant C(A);
- `in_region` and `window_failure`: whether a root of f1 lies in its
  half-plane region, and whether a tail fit's windows failed;
- `LocalOperator`, `local_limit_operators` and `local_dense`: the
  local-limit operators L+/L-, matrix-free and as dense matrices;
- `apply`: the linearization L on a complex field's grid values, through
  its coefficients (the package applies it to coefficients only);
- `constrained_solve`: L f = F on the complement of span{iR, dR/dx} by
  MINRES, the stability quotient of the uniqueness argument;
- `quadratic_form`, `zero_pad`, `fourier_restrict`, `multiplier_values`,
  `apply_multiplier`, `derivative`, `lp_norm`, `sobolev_norm` and
  `spectral_refine`: the quadratic form, symbol values checked finite,
  Fourier multipliers, norms, zero padding, Fourier restriction and
  spectral refinement on grid values;
- `spectral_interpolate`: the band-limited interpolant summed directly
  as a Fourier series (the package translates by a spectral phase), from
  the continuum-normalized coefficients of `fourier_coefficients`.

The drift reduction and its changes of variables are in tests/drift.py.
`symbols._laplace_quad` and `LinearizedOperator.dense` are oracles too, but
stay in the package while the benchmark's tracer wraps them there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import circulant
from scipy.sparse.linalg import minres

from fracnls.asymptotics import RootResult, TailFit
from fracnls.asymptotics_roots import binomial_tail_coeffs
from fracnls.linearized import LinearizedOperator, _operator, _raw, _unitary
from fracnls.solvers import (
    _MASS_TOL,
    ConvergenceError,
    SolveResult,
    _nonlinear_term,
    _renormalized_result,
    local_ground_state,
    petviashvili_solve,
)
from fracnls.spectral import (
    SQRT_2PI,
    Profile,
    SpectralGrid,
    fft,
    ifft,
    pad_coefficients,
    truncate_coefficients,
)
from fracnls.symbols import ModelParams, kernel_pointwise, symbol_n, symbol_nN
from drift import scale_R_to_S

_SECANT_TOL = 1e-10  # residual of each Petviashvili solve in the secant oracle
_DESCENT_MAX_ITER = 20000
_DESCENT_STEP0 = 0.1  # first descent step; grown by 1.5 on success up to _DESCENT_STEP_MAX
_DESCENT_STEP_MAX = 1.0
_LOWER_BOUND_SAMPLES = 4001
_MINRES_RTOL = 1e-13  # constrained_solve's tolerance
_MINRES_MAXITER = 1000
_OVERLAP_TOL = 1e-8  # removed symmetry part, relative to the right-hand side, that counts as a projection


# -- the energy functional on grid values ---------------------------------------


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
        uh = fft(u)
        w = ifft(_nonlinear_term(uh, p))
        su = ifft(sig * uh)
        den = float(np.real(np.sum(u * np.conj(u))))
        theta = float(np.real(np.sum((w - su) * np.conj(u))) / den)
        grad = su + theta * u - w
        res = float(np.linalg.norm(grad) / np.linalg.norm(u))
        res_hist.append(res)
        if res <= tol:
            return SolveResult(
                grid, uh, theta, res, energy, it, True, {"energy": e_hist, "residual": res_hist}
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

    solves = []

    def mass_at(theta, seed):
        r = petviashvili_solve(grid, sig, theta, p, seed, tol=_SECANT_TOL)
        solves.append(r)
        return r.profile.mass(), r

    m0, r0 = mass_at(th0, fft(init.values))
    m1, r1 = mass_at(th1, r0.coefficients)
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
        m_cur, r_cur = mass_at(th_next, r_cur.coefficients)
        th_cur = th_next
    else:
        raise ConvergenceError(
            f"mass constraint not met: |mass - target| = {abs(m_cur - target):.3e}"
        )
    total_iters = sum(r.iterations for r in solves)
    uh = r_cur.coefficients
    return _renormalized_result(
        grid, sig, p, target, uh, _nonlinear_term(uh, p), _SECANT_TOL, total_iters,
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
        prm = ModelParams(params.s, mass)
        renorm_res = gradient_flow_minimize("Y_N", prm.s0, init, tol, grid=grid, params=prm)
        s_prof = scale_R_to_S(renorm_res.profile, prm)
        eta = 0.5 * s * (s - 1.0) * prm.kappa**2 * renorm_res.multiplier
        e_scale = prm.s0 ** (s + 1.0) * mass ** (-(2.0 + s) / (2.0 - s))
        energy_i = renorm_res.energy / e_scale
        return SolveResult(
            s_prof.grid, fft(s_prof.values), eta, renorm_res.residual, energy_i, renorm_res.iterations,
            renorm_res.converged, renorm_res.history,
        )
    raise ValueError(f"unknown functional {functional!r} (expected 'I' or 'Y_N')")


def stabilization_factor(result: SolveResult, sig: np.ndarray, p: float) -> float:
    """The Petviashvili factor <(sigma(D)+theta)u, u> / <|u|^{p-1}u, u> at a result.

    From its coefficients, its multiplier and a fresh padded nonlinearity;
    it is 1 at a solution, and sig holds sigma's values on the grid.
    """
    uh = result.coefficients
    num = float(np.sum((sig + result.multiplier) * np.abs(uh) ** 2))
    return num / float(np.real(np.sum(_nonlinear_term(uh, p) * np.conj(uh))))


def el_residual(grid: SpectralGrid, values: np.ndarray, sigma, theta: float, p: float) -> float:
    """Relative L2 norm of sigma(D)u + theta u - |u|^{p-1}u, by Parseval on the coefficients."""
    sig = multiplier_values(grid, sigma)
    uh = fft(values)
    return float(np.linalg.norm((sig + theta) * uh - _nonlinear_term(uh, p)) / np.linalg.norm(uh))


# -- symbols and the kernel's analysis ------------------------------------------


def n_series_out_of_place(z, s: float):
    """n_series with a fresh array per Horner step: the form the package evaluates in place."""
    acc = np.zeros_like(z)
    for c in reversed(binomial_tail_coeffs(s)):
        acc = acc * z + c
    return acc * z * z


def symbol_n_where(xi, s: float):
    """symbol_n with the series run on the whole array and chosen by np.where.

    The package runs it on the |xi| <= 1/2 entries alone; both give the same bits.
    """
    xi = np.asarray(xi, dtype=float)
    direct = np.abs(xi + 1.0) ** s - s * xi - 1.0
    small = np.abs(xi) <= 0.5
    if np.any(small):
        direct = np.where(small, n_series_out_of_place(np.where(small, xi, 0.0), s), direct)
    return direct


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


def in_region(root: RootResult) -> bool:
    im_ok = root.y.imag > 0 if root.sign == "+" else root.y.imag < 0
    return im_ok and root.y.real > -1.0


def window_failure(fit: TailFit) -> bool:
    return fit.exp_fit_residual > 0.1 or fit.alg_fit_residual > 0.1


# -- the kernel by other routes ------------------------------------------------


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


def kernel_grid_samples(grid: SpectralGrid, params: ModelParams, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid samples of m_N = Finv(1/(n_N + theta)), with the symbol n_N + theta on the grid.

    The samples are the periodized kernel: beyond |x| = L/4 its
    periodization bias, O(L^{-(s+1)}), is visible at the accuracy targets,
    so tail comparisons use the pointwise evaluator instead.
    """
    symbol = symbol_nN(grid.xi, params) + theta
    if np.any(symbol <= 0.0):
        raise ValueError("kernel symbol n_N + theta is nonpositive at some grid frequency")
    # sampling Finv(sigma) on the nodes is the Riemann sum over the lattice,
    # i.e. exactly the normalized inverse with sigma as the coefficients
    return grid.from_fourier_coefficients(1.0 / symbol), symbol


def far_field_exact(fixed: Profile, params: ModelParams, theta: float, x_points: np.ndarray) -> np.ndarray:
    """The far field (1/sqrt(2 pi)) h sum_j m_N(x - y_j) g_j, g = |R|^{2s} R, over the whole grid.

    Each pair's kernel is `kernel_pointwise`, the contour evaluator, not
    the package's interpolated table, and each abscissa's M terms are
    summed by an exactly rounded `math.fsum`.
    """
    y = fixed.grid.x
    g = np.abs(fixed.values) ** (2.0 * params.s) * fixed.values
    out = []
    for x in np.atleast_1d(np.asarray(x_points, dtype=float)):
        terms = kernel_pointwise(x - y, params, theta) * g
        out.append(complex(math.fsum(terms.real), math.fsum(terms.imag)) * fixed.grid.h / SQRT_2PI)
    return np.array(out)


# -- the linearization ----------------------------------------------------------


@dataclass
class LocalOperator:
    """One of the real local-limit operators L+ / L- around the closed form."""

    grid: SpectralGrid
    lam: float
    potential: np.ndarray = field(repr=False)

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = ifft(self.grid.xi**2 * fft(values))
        return out + self.lam * values - self.potential * values


def local_limit_operators(s: float, lam: float, grid: SpectralGrid, base: Profile):
    """L+ h = |D|^2 h + lam h - (2s+1) R^{2s} h and L- g = |D|^2 g + lam g - R^{2s} g.

    `base` is the closed-form profile from local_ground_state(s, lam, grid);
    the operators act on real fields.
    """
    pot = np.abs(base.values) ** (2.0 * s)
    lplus = LocalOperator(grid, lam, (2.0 * s + 1.0) * pot)
    lminus = LocalOperator(grid, lam, pot)
    return lplus, lminus


def apply(op: LinearizedOperator, values: np.ndarray) -> np.ndarray:
    """L on a complex field's grid values, through its coefficients."""
    return ifft(op.apply_coefficients(fft(values)))


def local_dense(op: LocalOperator) -> np.ndarray:
    """The real M x M matrix of a local-limit operator L+ or L-."""
    col = ifft(op.grid.xi**2 + op.lam).real
    return circulant(col) - np.diag(op.potential)


def constrained_solve(op: LinearizedOperator, rhs: Profile) -> tuple[Profile, dict]:
    """Solve L f = F on the orthogonal complement of span{iR, dR/dx}.

    MINRES on P L P over stacked DFT coefficients, where P is the
    orthogonal projector onto the complement of the two constraint columns,
    preconditioned by P (n_N + theta)^{-1} P; the iterates stay in the
    complement.  The right-hand side is projected first, and reported as projected when the
    removed part exceeds _OVERLAP_TOL of its norm.  The returned info carries
    the stability quotient ||f||_{H^{s/2}} / ||F||_{H^{-s/2}} in the weighted
    spectral norms.  A solve that does not converge raises RuntimeError.
    """
    grid = op.grid
    c1, c2 = (_unitary(c) for c in op.kernel_coefficients())
    raw = _unitary(fft(rhs.values))
    project = op.complement_projector()
    f_vec = project(raw)
    info = {"projected": bool(np.linalg.norm(raw - f_vec) > _OVERLAP_TOL * np.linalg.norm(raw))}
    n2 = f_vec.size
    sol, status = minres(
        _operator(n2, lambda v: project(op.apply_stacked(project(v)))),
        f_vec,
        rtol=_MINRES_RTOL,
        maxiter=_MINRES_MAXITER,
        M=_operator(n2, lambda v: project(op.solve_symbol_stacked(project(v)))),
    )
    if status != 0:
        raise RuntimeError(f"MINRES on the constrained complement did not converge (status {status})")
    f_prof = Profile(grid, ifft(_raw(sol)))
    rhs_proj = Profile(grid, ifft(_raw(f_vec)))
    num = sobolev_norm(f_prof, op.params.s / 2.0)
    den = sobolev_norm(rhs_proj, -op.params.s / 2.0)
    info["stability_constant"] = num / den if den > 0 else np.inf
    # the real L2 pairing h sum Re(f conj c); unitary coefficients keep it (Parseval)
    info["constraint_residuals"] = (grid.h * float(sol @ c1), grid.h * float(sol @ c2))
    return f_prof, info


# -- multipliers, norms and interpolation on grid values ----------------------------


def multiplier_values(grid: SpectralGrid, sigma) -> np.ndarray:
    """The symbol's values on the grid frequencies (FFT order), checked finite."""
    vals = np.broadcast_to(np.asarray(sigma), grid.xi.shape)
    finite = np.isfinite(vals)
    if not finite.all():
        bad = grid.xi[~finite]
        raise ValueError(f"multiplier is non-finite at frequencies {bad[:4]}")
    return vals


def apply_multiplier(u: Profile, sigma) -> Profile:
    """Apply the Fourier multiplier sigma(D): spectrum is scaled pointwise.

    `sigma` holds the symbol's values on `u.grid.xi` (FFT order); it must
    be finite on every grid frequency.
    """
    vals = multiplier_values(u.grid, sigma)
    return Profile(u.grid, ifft(vals * fft(u.values)))


def quadratic_form(u: Profile, sigma) -> float:
    """<u, sigma(D) u> for a real symbol, by Parseval: (h/M) sum sigma |fft u|^2."""
    vals = multiplier_values(u.grid, sigma)
    return u.grid.h / u.grid.points * float(np.sum(vals * np.abs(fft(u.values)) ** 2))


def lp_norm(u: Profile, p: float) -> float:
    return float((u.grid.h * np.sum(np.abs(u.values) ** p)) ** (1.0 / p))


def sobolev_norm(u: Profile, r: float) -> float:
    """H^r norm via the spectral weight <xi>^r = (1 + xi^2)^{r/2}."""
    return float(np.sqrt(quadratic_form(u, (1.0 + u.grid.xi**2) ** r)))


def derivative(u: Profile) -> Profile:
    return apply_multiplier(u, 1j * u.grid.xi)


def zero_pad(values: np.ndarray, factor: int) -> np.ndarray:
    """Samples of the band-limited interpolant on a factor-times finer grid.

    The spectrum is zero-padded above the source Nyquist; the scaling keeps
    the sampled values, so band-limited fields are reproduced exactly.
    """
    return ifft(pad_coefficients(fft(values), factor)) * factor


def fourier_restrict(values: np.ndarray, factor: int) -> np.ndarray:
    """Samples of the lowest modes on a factor-times coarser grid.

    The modes pad_coefficients keeps, coarse Nyquist included, are kept and
    the rest dropped, so this is the exact left inverse of zero padding.
    """
    return ifft(truncate_coefficients(fft(values), values.shape[0] // factor)) / factor


def spectral_refine(u: Profile, factor: int) -> Profile:
    """Resample onto a factor-times finer grid by spectral zero padding.

    Exact for band-limited fields; used when a transform needs headroom
    above the source Nyquist (e.g. drift modulation of a wide profile).
    """
    if factor < 1 or factor & (factor - 1):
        raise ValueError("refinement factor must be a power of two")
    fine_grid = SpectralGrid(u.grid.length, factor * u.grid.points)
    return Profile(fine_grid, zero_pad(u.values, factor))



def fourier_coefficients(u: Profile) -> np.ndarray:
    """Continuum-normalized coefficients u_hat(xi_k), FFT ordering.

    u_hat(xi) = (1/sqrt(2 pi)) integral u(x) e^{-i xi x} dx by the trapezoid
    rule on the nodes x_j = -L/2 + j h: (h/sqrt(2 pi)) e^{i xi L/2} fft(u).
    `SpectralGrid.from_fourier_coefficients` is its inverse.
    """
    grid = u.grid
    return (grid.h / SQRT_2PI) * np.exp(1j * grid.xi * (grid.length / 2.0)) * fft(u.values)


def spectral_interpolate(u: Profile, x: np.ndarray) -> np.ndarray:
    """Evaluate the band-limited interpolant of u at arbitrary points."""
    coeffs = fourier_coefficients(u)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # direct evaluation of the truncated Fourier series, frequency step 2 pi / L
    ph = np.exp(1j * np.outer(x, u.grid.xi))
    return (ph @ coeffs) * (2.0 * np.pi / u.grid.length) / SQRT_2PI

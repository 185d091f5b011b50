"""Linearized operator around a converged minimizer and its kernel structure.

The conjugation term makes the linearization real-linear but not
complex-linear: it is a real symmetric operator on the stacked real
coordinates (Re f, Im f), whose inner product is the real pairing
Re<a, b> of the complex fields.  The Krylov solves use the raw DFT
coefficients f_hat = fft(f), complex, with that pairing: there the symbol
n_N + theta is diagonal, so the operator is
S f_hat - fft(v1 g + w conj g) with g = ifft(f_hat), two transforms per
application, and the preconditioner 1/(n_N + theta) is a plain division.
The raw DFT is sqrt(M) times a unitary map, which acts on stacked
coordinates as an orthogonal one, so the operator stays symmetric, its
spectrum and eigen-residuals are those on grid values, and preconditioned
MINRES takes the same iterates in exact arithmetic (Paige & Saunders 1975).
An operator takes R's raw DFT coefficients and n_N's values from its
caller (a Newton step passes those it holds, build_linearized those of
the solve's result) and keeps the coefficients.
Eigenanalysis, the two symmetry null directions, coercivity diagnostics
and the bordered solve of the solver's Newton steps live here.  Both run
matrix-free (LOBPCG and MINRES, preconditioned by the inverse of the
positive symbol); LOBPCG starts from the lowest eigenvectors of the same
linearization on a coarse grid, resampled in coefficient space.  Both are
this module's own loops in numpy (_lobpcg, _minres), on complex
coefficients with the real pairing, and the coarse start is a
numpy.linalg.eigh of the stacked coarse matrix: the module imports no
SciPy.  The dense matrix, on grid values, is a small-grid test oracle.
The constrained linear solve of the uniqueness argument, the local-limit
operators L+/L-, and the Newton step and the eigenanalysis by SciPy's
MINRES and LOBPCG are test oracles in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .spectral import SpectralGrid, UnresolvedError, fft, ifft, resample
from .symbols import ModelParams, symbol_nN

if TYPE_CHECKING:  # solvers builds its Newton steps on this module
    from .solvers import SolveResult

__all__ = [
    "LinearizedOperator",
    "LinearizedReport",
    "build_linearized",
    "kernel_diagnostics",
    "bordered_solve",
    "DENSE_MAX_POINTS",
]

DENSE_MAX_POINTS = 2048  # dense() refuses larger grids: (2M)^2 doubles is 128 MiB here
_RANK_TOL = 1e-10  # QR diagonal ratio below which the symmetry pair iR, dR/dx counts as dependent


def _stack(values: np.ndarray) -> np.ndarray:
    return np.concatenate([values.real, values.imag])


def _unstack(vec: np.ndarray) -> np.ndarray:
    m = vec.shape[0] // 2
    return vec[:m] + 1j * vec[m:]


def _pairing(a: np.ndarray, b: np.ndarray) -> float:
    """The real pairing Re<a, b> of two complex vectors, the stacked coordinates' inner product."""
    return float(a.view(float) @ b.view(float))


@dataclass
class LinearizedOperator:
    """L f = n_N(D) f + theta f - (s+1)|R|^{2s} f - s |R|^{2s-2} R^2 conj(f)."""

    params: ModelParams
    grid: SpectralGrid
    coefficients: np.ndarray = field(repr=False)  # the raw DFT coefficients of R
    theta: float
    symbol: np.ndarray = field(repr=False)  # n_N + theta on the grid frequencies
    v1: np.ndarray = field(repr=False)  # (s+1)|R|^{2s}
    w: np.ndarray = field(repr=False)  # s |R|^{2s-2} R^2 (conjugation coupling)

    @classmethod
    def at(cls, params: ModelParams, grid: SpectralGrid, coefficients: np.ndarray, sig: np.ndarray,
           theta: float) -> "LinearizedOperator":
        """The linearization around R and theta, converged or not, from R's raw DFT coefficients and n_N on grid."""
        s = params.s
        r = ifft(coefficients)
        absr = np.abs(r)
        pow2s = absr ** (2.0 * s)
        # |R|^{2s-2} R^2 = |R|^{2s} (R/|R|)^2, continuous (-> 0) at zeros of R
        phase2 = np.where(absr > 0.0, (r / np.where(absr > 0.0, absr, 1.0)) ** 2, 0.0)
        return cls(
            params=params,
            grid=grid,
            coefficients=coefficients,
            theta=theta,
            symbol=sig + theta,
            v1=(s + 1.0) * pow2s,
            w=s * pow2s * phase2,
        )

    def apply_coefficients(self, coeffs: np.ndarray) -> np.ndarray:
        """L on raw DFT coefficients, of one field or of each row of a (k, M) block.

        The symbol acts diagonally; the potentials act on the grid values
        g = ifft(coeffs), so one application costs one inverse and one
        forward transform.
        """
        g = ifft(coeffs)
        return self.symbol * coeffs - fft(self.v1 * g + self.w * np.conj(g))

    def apply_stacked(self, vec: np.ndarray) -> np.ndarray:
        """L on stacked DFT coefficients (vector or block of columns)."""
        return _stack(self.apply_coefficients(_unstack(vec).T).T)

    def dense(self) -> np.ndarray:
        """Real symmetric 2M x 2M matrix on stacked (Re, Im) coordinates.

        A test oracle for small grids only: M > DENSE_MAX_POINTS is refused
        before anything is allocated.  It stays in the package while the
        benchmark's tracer wraps it here.
        """
        m = self.grid.points
        if m > DENSE_MAX_POINTS:
            raise ValueError(
                f"dense operator refused at M={m}: the {2 * m}x{2 * m} matrix needs "
                f"{(2 * m) ** 2 * 8 / 2**20:.0f} MiB (limit M={DENSE_MAX_POINTS})"
            )
        col = ifft(self.symbol)  # circulant column of the symbol part
        i = np.arange(m)
        wrap = (i[:, None] - i[None, :]) % m  # entry (i, j) of a circulant is col[(i - j) % m]
        a = col.real[wrap]
        b = col.imag[wrap]
        v1 = np.diag(self.v1)
        wr = np.diag(self.w.real)
        wi = np.diag(self.w.imag)
        top = np.hstack([a - v1 - wr, -b - wi])
        bot = np.hstack([b - wi, a - v1 + wr])
        mat = np.vstack([top, bot])
        return 0.5 * (mat + mat.T)  # symmetrize roundoff

    def kernel_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """The symmetry null directions iR and dR/dx, as raw DFT coefficients."""
        return 1j * self.coefficients, 1j * self.grid.xi * self.coefficients

    def complement_projector(self):
        """The orthogonal projector onto the complement of span{iR, dR/dx}, on complex DFT coefficients.

        Orthogonal in the real pairing Re<a, b>, which the stacked
        coordinates carry, and the same on raw and on unitary coefficients.
        The two directions are not mutually orthogonal (the complex profile
        carries momentum), so they are orthonormalized by QR.  A pair that
        is linearly dependent, as at a collapsed (spatially constant or
        vanishing) profile, leaves no well-defined complement and raises
        numpy.linalg.LinAlgError.
        """
        cmat = np.stack([c.view(float) for c in self.kernel_coefficients()], axis=1)
        basis, tri = np.linalg.qr(cmat)
        diag = np.abs(np.diag(tri))
        ratio = diag.min() / diag.max() if diag.max() > 0.0 else 0.0
        if not ratio > _RANK_TOL:
            raise np.linalg.LinAlgError(
                f"its symmetry directions iR and dR/dx are linearly dependent (QR diagonal ratio {ratio:.1e})"
            )
        rows = np.ascontiguousarray(basis.T)  # the orthonormal pair, as real vectors and as complex ones
        directions = rows.view(complex)

        def project(coeffs):
            return coeffs - (rows @ coeffs.view(float)) @ directions

        return project


def build_linearized(result: SolveResult, params: ModelParams) -> LinearizedOperator:
    """Assemble the linearization around a converged renormalized minimizer.

    An unconverged solve is a solver failure and raises RuntimeError.
    """
    if not result.converged:
        raise RuntimeError(f"linearization needs a converged solve (residual {result.residual:.3e})")
    sig = symbol_nN(result.grid.xi, params)
    return LinearizedOperator.at(params, result.grid, result.coefficients, sig, result.multiplier)


@dataclass
class LinearizedReport:
    eigenvalues: np.ndarray  # the discrete ones, below theta, ascending
    near_zero: np.ndarray  # eigenvalues with |ev| below the kernel threshold
    correlations: tuple  # projection of (iR, dR) onto the near-zero eigenspace
    coercivity: float  # min(theta, smallest discrete |ev| outside the kernel pair)
    norm_estimate: float
    threshold: float
    iterations: int  # LOBPCG iterations after the start block's Rayleigh-Ritz step
    kernel_residual_ratio: float  # max of ||L v|| / ||v|| over v in {iR, dR/dx}, over the threshold


_BLOCK = 8  # LOBPCG block width
_COARSE_POINTS = 128  # grid of the start block's dense eigensolve (a 256 x 256 matrix)
_EIG_TOL = 1e-10  # eigen-residual bound, relative to the operator-norm bound
# iteration cap; README grid: 2, 14, 16 iterations at s = 1.5, 1.4, 1.3;
# 15 at s = 1.2 on M = 2048 and 16 at s = 1.1 on M = 4096
_EIG_MAXITER = 400
_KERNEL_REL_THRESHOLD = 1e-6  # kernel eigenvalues lie below this times the norm bound
# iR and dR/dx must be annihilated to below this times the kernel threshold;
# resolved grids read at most 4e-6 (s = 1.3, README grid), unresolved ones 0.5 and more
_RESOLVED_REL = 1e-3
# the ratio of iR fell at least 1.2e3-fold per doubling of M (L = 128, s = 1.1 to 1.3)
_FALL_PER_DOUBLING = 1e3
_MINRES_MAXITER = 1000


def _coarse_start(op: LinearizedOperator) -> np.ndarray:
    """The _BLOCK lowest eigenvectors of the same linearization on a coarse grid, on op's grid.

    The coarse grid has the same length and min(M, _COARSE_POINTS) points
    (op itself when that is M); its profile's coefficients are op's,
    resampled, at the same theta.  The coarse matrix is the stacked
    operator applied to the identity; its _BLOCK lowest eigenvectors, as
    complex DFT coefficients, are resampled to op's grid: the rows of the
    start block.
    """
    points = min(op.grid.points, _COARSE_POINTS)
    coarse = op
    if points < op.grid.points:
        grid = SpectralGrid(op.grid.length, points)
        coarse = LinearizedOperator.at(op.params, grid, resample(op.coefficients, points),
                                       symbol_nN(grid.xi, op.params), op.theta)
    _, vecs = np.linalg.eigh(coarse.apply_stacked(np.eye(2 * points)))
    return resample(_unstack(vecs[:, :_BLOCK]), op.grid.points).T.copy()


def _resolution_guard(op: LinearizedOperator, threshold: float) -> float:
    """max ||L v|| / ||v|| over v in {iR, dR/dx}, over the kernel threshold; above _RESOLVED_REL, UnresolvedError.

    The one-line refusal names a finer grid: at least one doubling of M, and
    as many as bring iR's ratio to the limit at _FALL_PER_DOUBLING each.  The
    spatially constant state, whose dR/dx is roundoff, is refused before
    (cli.constant_state_guard): no grid resolves it.
    """
    block = np.stack(op.kernel_coefficients())
    ratios = np.linalg.norm(op.apply_coefficients(block), axis=1) / np.linalg.norm(block, axis=1) / threshold
    ratio = float(np.max(ratios))
    if ratio <= _RESOLVED_REL:
        return ratio
    length, points = op.grid.length, op.grid.points
    doublings = max(1, math.ceil(math.log(max(ratios[0], _RESOLVED_REL) / _RESOLVED_REL, _FALL_PER_DOUBLING)))
    raise UnresolvedError(
        f"the grid (L = {length:g}, M = {points}) does not resolve s = {op.params.s:g}, N = {op.params.N:g}: "
        f"kernel residual of iR, dR/dx is {ratio:.3g} x the kernel threshold (limit {_RESOLVED_REL:g}); "
        f"refine the grid: --grid-l {length:g} --grid-m {points << doublings}"
    )


def kernel_diagnostics(op: LinearizedOperator) -> LinearizedReport:
    """The discrete eigenpairs, below theta: kernel pair, correlations, coercivity.

    An unresolved grid is refused first (_resolution_guard).  LOBPCG
    (_lobpcg) on the complex DFT coefficients, preconditioned by the exact
    inverse symbol 1/(n_N + theta), which is positive, and started from the
    lowest eigenvectors of the same linearization on a grid of
    _COARSE_POINTS points (_coarse_start).  The start is deterministic, so
    reruns are bitwise identical, and exact when op's grid is no finer.
    On the line the essential spectrum is [theta, oo) (Weyl); LOBPCG stops
    once the Ritz pairs below theta reach residual _EIG_TOL times the
    operator-norm bound, so the torus's continuum just above theta does not
    set the count, or after _EIG_MAXITER iterations.
    Exactly two eigenvalues are expected below _KERNEL_REL_THRESHOLD times
    the norm bound; their eigenspace is compared against span{iR, dR/dx}
    through orthogonal projections.  Some Ritz value must reach theta, and
    theta must lie above the threshold: Ritz values bound eigenvalues from
    above, so, as far as LOBPCG found the lowest ones, the unseen spectrum
    starts at or above theta, and near_zero and coercivity hold for the
    whole spectrum.  Either failure, or discrete residuals above the bound
    at the cap, raises RuntimeError.
    """
    # operator-norm bound max(n_N + theta) + ||v1||_inf + ||w||_inf
    norm_est = float(np.max(op.symbol) + np.max(np.abs(op.v1)) + np.max(np.abs(op.w)))
    threshold = _KERNEL_REL_THRESHOLD * norm_est
    kernel_residual_ratio = _resolution_guard(op, threshold)
    bound = _EIG_TOL * norm_est
    evals, evecs, residual, iterations = _lobpcg(
        op.apply_coefficients, lambda rows: rows / op.symbol, _coarse_start(op), op.theta, bound, _EIG_MAXITER
    )
    if residual > bound:
        raise RuntimeError(
            f"LOBPCG did not converge: eigen-residual {residual:.3e} above "
            f"{_EIG_TOL:g} x norm bound {norm_est:.6g} within {_EIG_MAXITER} iterations"
        )
    if not (np.max(evals) >= op.theta > threshold):
        raise RuntimeError(
            f"the {_BLOCK} lowest Ritz values do not reach past the kernel pair "
            f"(highest {np.max(evals):.6g}, theta {op.theta:.6g}, threshold {threshold:.6g})"
        )
    discrete = evals < op.theta
    evals, evecs = evals[discrete], evecs[discrete]
    order = np.argsort(np.abs(evals))
    kernel_pair = order[:2]
    coercivity = float(np.min(np.abs(evals[order[2:]]), initial=op.theta))
    correlations = tuple(float(np.linalg.norm(_gram(evecs[kernel_pair], cand[None])) / np.linalg.norm(cand))
                         for cand in op.kernel_coefficients())
    return LinearizedReport(
        eigenvalues=evals,
        near_zero=evals[order][np.abs(evals[order]) <= threshold],
        correlations=correlations,
        coercivity=coercivity,
        norm_estimate=norm_est,
        threshold=threshold,
        iterations=iterations,
        kernel_residual_ratio=kernel_residual_ratio,
    )


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The real pairings Re<a_i, b_j> (_pairing) of the rows of two complex blocks, by one real product."""
    return a.view(float) @ b.view(float).T


def _mix(coef: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows sum_j coef[i, j] rows[j] of a complex block, coef real, by one real product."""
    return (coef @ rows.view(float)).view(complex)


def _orthonormal(rows: np.ndarray, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C^-1 rows and C^-1 image, C the Cholesky factor of the rows' Gram matrix (numpy.linalg.LinAlgError if singular)."""
    inverse = np.linalg.inv(np.linalg.cholesky(_gram(rows, rows)))
    return _mix(inverse, rows), _mix(inverse, image)


def _lobpcg(matvec, psolve, x: np.ndarray, theta: float, tol: float, maxiter: int):
    """LOBPCG (Knyazev 2001) from the block x: (Ritz values ascending, Ritz vectors, residual, iterations).

    A block is a C-contiguous array of complex rows, such as DFT
    coefficients; matvec is symmetric and psolve positive in their real
    pairing (_pairing), and both map a block to a block.  Each iteration
    orthonormalizes [X, W, P] by Cholesky, X the Ritz vectors, W their
    preconditioned residuals and P the last step (dropping P when the Gram
    matrix is numerically singular), and takes the Rayleigh-Ritz pairs of
    their span by numpy.linalg.eigh.  It stops once the Ritz pairs below
    theta reach residual tol, or at maxiter iterations; residual is the
    largest of theirs (0 when none lies below theta).
    """
    k = x.shape[0]
    basis, image = _orthonormal(x, matvec(x))
    p = None
    for iteration in range(maxiter + 1):
        evals, coef = np.linalg.eigh(_gram(basis, image))
        evals, coef = evals[:k], coef[:, :k].T
        x, ax = _mix(coef, basis), _mix(coef, image)
        if iteration:
            p = (_mix(coef[:, k:], basis[k:]), _mix(coef[:, k:], image[k:]))
        r = ax - evals[:, None] * x
        residual = float(np.max(np.linalg.norm(r[evals < theta], axis=1), initial=0.0))
        if residual <= tol or iteration == maxiter:
            return evals, x, residual, iteration
        w = psolve(r)
        blocks = [(x, ax), (w, matvec(w))] + ([p] if p is not None else [])
        try:
            basis, image = _orthonormal(*map(np.concatenate, zip(*blocks)))
        except np.linalg.LinAlgError:  # P nearly in span[X, W]: restart without it
            basis, image = _orthonormal(*map(np.concatenate, zip(*blocks[:2])))


def _minres(matvec, psolve, b: np.ndarray, rtol: float, maxiter: int):
    """Preconditioned MINRES (Paige & Saunders 1975) from x = 0: (x, converged, iterations).

    matvec is symmetric and psolve positive in the real pairing of the
    complex vectors (_pairing).  These are the recurrences and stopping
    tests of scipy.sparse.linalg.minres: success once ||r|| / (||A|| ||x||)
    or ||A r|| / (||A|| ||r||) reaches rtol (or roundoff, 1 + test <= 1),
    the condition estimate reaches 0.1/eps, ||A|| ||x|| eps reaches the
    preconditioned right-hand side's norm, or the first Lanczos step ends
    the Krylov space; failure at maxiter iterations.  An indefinite
    preconditioner raises ValueError, from the square root, as SciPy's does.
    """
    eps = np.finfo(float).eps
    x = np.zeros_like(b)
    y = psolve(b)
    beta1 = _pairing(b, y)
    if beta1 == 0.0:
        return x, True, 0
    beta1 = math.sqrt(beta1)
    r1 = r2 = b
    w, w1, w2 = np.zeros_like(b), np.zeros_like(b), np.zeros_like(b)
    beta, oldb, dbar, epsln, phibar = beta1, 0.0, 0.0, 0.0, beta1
    tnorm2, gmax, gmin, cs, sn = 0.0, 0.0, np.inf, -1.0, 0.0
    for itn in range(1, maxiter + 1):
        v = (1.0 / beta) * y
        y = matvec(v)
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = _pairing(v, y)
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        y = psolve(r2)
        oldb, beta = beta, math.sqrt(_pairing(r2, y))
        tnorm2 += alfa**2 + oldb**2 + beta**2
        # the previous rotation, then the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.hypot(gbar, dbar)
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2, w = w2, w, w1  # the new direction overwrites the oldest one
        np.subtract(v, np.multiply(oldeps, w1, out=w), out=w)
        w -= delta * w2
        w *= 1.0 / gamma
        x += phi * w
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm = math.sqrt(tnorm2)
        ynorm = math.sqrt(_pairing(x, x))
        test = min(phibar / (anorm * ynorm) if ynorm > 0.0 else math.inf, root / anorm)
        if (test <= max(rtol, 0.5 * eps) or gmax / gmin >= 0.1 / eps or anorm * ynorm * eps >= beta1
                or (itn == 1 and beta / beta1 <= 10.0 * eps)):
            return x, True, itn
    return x, False, maxiter


def bordered_solve(op: LinearizedOperator, fh: np.ndarray, mass_residual: float, rtol: float):
    """The Newton step (du_hat or None, dtheta, MINRES iterations) at op's profile R and multiplier.

    fh and du_hat are the raw DFT coefficients of the residual f and of the
    step.  Solves L du + dtheta R = -f, R^T du = -mass_residual (the real
    pairing) on the unitary DFT coefficients fft(.)/sqrt(M), complex, and the
    border scalar, with the inner product Re<a, b> + alpha beta: an
    orthogonal image of the stacked grid values, so MINRES's norms read as
    on grid values (its estimate of the operator norm includes the
    right-hand side's preconditioned norm, which raw coefficients would
    inflate by sqrt(M)).  MINRES (_minres, in numpy) runs on the symmetric
    bordered matrix [[L, R], [R^T, 0]], preconditioned by the positive
    diag(1/(n_N + theta), 1/(R^T (n_N + theta)^{-1} R)); the symbol is
    diagonal there, so each iteration applies L once, two transforms, and
    the preconditioner is a division.
    du_hat is None when MINRES fails to reach rtol in _MINRES_MAXITER iterations.
    A rank-deficient symmetry pair raises numpy.linalg.LinAlgError
    (complement_projector).

    iR and dR/dx are near-null at the iterate (eigenvalues of the order of
    the residual).  Left in, MINRES roundoff grows a phase and translation
    drift there, far above the step, which costs mass at second order and
    inflates the solution norm that MINRES's stopping test divides by.  So
    the iterates stay on their orthogonal complement (complement_projector);
    neither direction changes the solution.
    """
    scale = math.sqrt(op.grid.points)
    r = op.coefficients / scale
    project = op.complement_projector()
    schur = _pairing(r, r / op.symbol)

    def matvec(x):
        v = project(x[:-1])
        out = np.empty_like(x)
        out[:-1] = project(op.apply_coefficients(v) + x[-1].real * r)
        out[-1] = _pairing(r, v)
        return out

    def precond(x):
        out = np.empty_like(x)
        out[:-1] = project(project(x[:-1]) / op.symbol)
        out[-1] = x[-1] / schur
        return out

    rhs = np.empty(r.size + 1, dtype=complex)
    rhs[:-1] = project(fh / -scale)
    rhs[-1] = -mass_residual
    sol, converged, iters = _minres(matvec, precond, rhs, rtol, _MINRES_MAXITER)
    return (sol[:-1] * scale if converged else None), float(sol[-1].real), iters

"""Linearized operator around a converged minimizer and its kernel structure.

The conjugation term makes the linearization real-linear but not
complex-linear, so the operator is represented on stacked real
coordinates, where it is a real symmetric operator.  The Krylov solves use
the stacked raw DFT coefficients (Re f_hat, Im f_hat), f_hat = fft(f):
there the symbol n_N + theta is diagonal, so the operator is
S f_hat - fft(v1 g + w conj g) with g = ifft(f_hat), two transforms per
application, and the preconditioner 1/(n_N + theta) is a plain division.
The raw DFT is sqrt(M) times a unitary map, which acts on stacked
coordinates as an orthogonal one, so the operator stays symmetric, its
spectrum and eigen-residuals are those on grid values, and preconditioned
MINRES takes the same iterates in exact arithmetic (Paige & Saunders 1975).
An operator takes R's raw DFT coefficients and n_N's values from its
caller (a Newton step passes those it holds) and keeps the coefficients.
Eigenanalysis, the two symmetry null directions, coercivity diagnostics
and the bordered solve of the solver's Newton steps live here.  Both run
matrix-free (LOBPCG and MINRES, preconditioned by the inverse of the
positive symbol); LOBPCG starts from the lowest eigenvectors of the same
linearization on a coarse grid, zero-padded in coefficient space.  The
dense matrix, on grid values, is a small-grid test oracle.  The constrained
linear solve of the uniqueness argument and the local-limit operators L+/L-
are test oracles in tests/oracles.py.  scipy.sparse.linalg is imported
where it runs, so processes that never need it skip loading it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .spectral import SpectralGrid, fft, ifft, pad_coefficients, truncate_coefficients
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


def _unitary(coeffs: np.ndarray) -> np.ndarray:
    """Stacked unitary DFT coefficients fft(f)/sqrt(M) from raw ones: the MINRES coordinates.

    They are an orthogonal image of the stacked grid values, so MINRES's
    norms read as on grid values.  That matters for its stopping test:
    SciPy's estimate of the operator norm includes the right-hand side's
    preconditioned norm, which raw coefficients would inflate by sqrt(M).
    """
    return _stack(coeffs) / math.sqrt(coeffs.shape[0])


def _raw(vec: np.ndarray) -> np.ndarray:
    """Raw DFT coefficients from stacked unitary ones, the inverse of _unitary."""
    return _unstack(vec) * math.sqrt(vec.shape[0] // 2)


def _along_rows(grid_field: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A grid field shaped to scale a single field or each column of a block."""
    return grid_field.reshape((-1,) + (1,) * (values.ndim - 1))


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
        pow2s = np.where(absr > 0.0, absr ** (2.0 * s), 0.0)
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
        """L on raw DFT coefficients, of one field or of each column of an (M, k) block.

        The symbol acts diagonally; the potentials act on the grid values
        g = ifft(coeffs), so one application costs one inverse and one
        forward transform.
        """
        g = ifft(coeffs, axis=0)
        pointwise = _along_rows(self.v1, g) * g + _along_rows(self.w, g) * np.conj(g)
        return _along_rows(self.symbol, coeffs) * coeffs - fft(pointwise, axis=0)

    def apply_stacked(self, vec: np.ndarray) -> np.ndarray:
        """L on stacked DFT coefficients (vector or block of columns)."""
        return _stack(self.apply_coefficients(_unstack(vec)))

    def solve_symbol_stacked(self, vec: np.ndarray) -> np.ndarray:
        """The preconditioner 1/(n_N + theta) on stacked DFT coefficients (vector or block)."""
        return vec / _along_rows(np.concatenate([self.symbol, self.symbol]), vec)

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
        """The orthogonal projector onto the complement of span{iR, dR/dx}, on stacked DFT coefficients.

        The two directions are not mutually orthogonal (the complex profile
        carries momentum), so they are orthonormalized by QR.  A pair that
        is linearly dependent, as at a collapsed (spatially constant or
        vanishing) profile, leaves no well-defined complement and raises
        numpy.linalg.LinAlgError.
        """
        cmat = np.stack([_stack(c) for c in self.kernel_coefficients()], axis=1)
        basis, tri = np.linalg.qr(cmat)
        diag = np.abs(np.diag(tri))
        ratio = diag.min() / diag.max() if diag.max() > 0.0 else 0.0
        if not ratio > _RANK_TOL:
            raise np.linalg.LinAlgError(
                f"its symmetry directions iR and dR/dx are linearly dependent (QR diagonal ratio {ratio:.1e})"
            )

        def project(vec):
            return vec - basis @ (basis.T @ vec)

        return project


def build_linearized(result: SolveResult, params: ModelParams) -> LinearizedOperator:
    """Assemble the linearization around a converged renormalized minimizer.

    An unconverged solve is a solver failure and raises RuntimeError.
    """
    if not result.converged:
        raise RuntimeError(f"linearization needs a converged solve (residual {result.residual:.3e})")
    grid = result.profile.grid
    sig = symbol_nN(grid.xi, params)
    return LinearizedOperator.at(params, grid, fft(result.profile.values), sig, result.multiplier)


@dataclass
class LinearizedReport:
    eigenvalues: np.ndarray  # six lowest, ascending
    near_zero: np.ndarray  # eigenvalues with |ev| below the kernel threshold
    correlations: tuple  # projection of (iR, dR) onto the near-zero eigenspace
    coercivity: float  # smallest |ev| outside the kernel pair
    norm_estimate: float
    threshold: float
    iterations: int  # rows of LOBPCG's residual history, start and final Rayleigh-Ritz included


def _operator(n: int, action):
    """The real n x n LinearOperator of `action`; LOBPCG also applies it to blocks of columns."""
    from scipy.sparse.linalg import LinearOperator

    return LinearOperator((n, n), matvec=action, matmat=action, dtype=float)


_BLOCK = 8  # LOBPCG block width; the lowest _KEEP of its eigenpairs are reported
_KEEP = 6
_COARSE_POINTS = 128  # grid of the start block's dense eigensolve (a 256 x 256 matrix)
_EIG_TOL = 1e-10  # eigen-residual bound, relative to the operator-norm bound
_EIG_MAXITER = 400  # README grid: 6, 30, 165, 193 iterations at s = 1.5, 1.4, 1.3, 1.2
_KERNEL_REL_THRESHOLD = 1e-6  # kernel eigenvalues lie below this times the norm bound
_MINRES_MAXITER = 1000


def _coarse_start(op: LinearizedOperator) -> np.ndarray:
    """The _BLOCK lowest eigenvectors of the same linearization on a coarse grid, on op's grid.

    The coarse grid has the same length and _COARSE_POINTS points (op's own
    grid when that is no finer); its profile's coefficients are op's,
    truncated, at the same theta.  The coarse matrix is the stacked
    operator applied to the identity, and its eigenvectors, stacked DFT
    coefficients, are zero-padded to op's grid in coefficient space.
    """
    factor = max(op.grid.points // _COARSE_POINTS, 1)
    coarse = op
    if factor > 1:
        grid = SpectralGrid(op.grid.length, op.grid.points // factor)
        coeffs = truncate_coefficients(op.coefficients, grid.points) / factor
        coarse = LinearizedOperator.at(op.params, grid, coeffs, symbol_nN(grid.xi, op.params), op.theta)
    _, vecs = np.linalg.eigh(coarse.apply_stacked(np.eye(2 * coarse.grid.points)))
    return _stack(pad_coefficients(_unstack(vecs[:, :_BLOCK]), factor))


def kernel_diagnostics(op: LinearizedOperator) -> LinearizedReport:
    """Lowest eigenpairs of the symmetric form: kernel pair, correlations, coercivity.

    LOBPCG (Knyazev 2001) on the stacked DFT coefficients, preconditioned by the
    exact inverse symbol 1/(n_N + theta), which is positive, and started
    from the lowest eigenvectors of the same linearization on a grid of
    _COARSE_POINTS points (_coarse_start).  The start is deterministic, so
    reruns are bitwise identical, and exact when op's grid is no finer.
    Exactly two eigenvalues are expected below _KERNEL_REL_THRESHOLD times
    the operator-norm bound; their eigenspace is compared against
    span{iR, dR/dx} through orthogonal projections.  The six lowest eigenpairs must reach residual
    _EIG_TOL times that bound, and the highest of them must lie above the
    threshold: the unseen spectrum then lies above both the threshold and
    the coercivity, so near_zero and coercivity hold for the whole spectrum.
    Either failure raises RuntimeError.
    """
    from scipy.sparse.linalg import lobpcg

    n2 = 2 * op.grid.points
    # operator-norm bound max(n_N + theta) + ||v1||_inf + ||w||_inf
    norm_est = float(np.max(op.symbol) + np.max(np.abs(op.v1)) + np.max(np.abs(op.w)))
    threshold = _KERNEL_REL_THRESHOLD * norm_est
    with warnings.catch_warnings():  # convergence is checked below, not by lobpcg's warning
        warnings.simplefilter("ignore", UserWarning)
        evals, evecs, *history = lobpcg(
            _operator(n2, op.apply_stacked),
            _coarse_start(op),
            M=_operator(n2, op.solve_symbol_stacked),
            # a tenth of the acceptance residual: lobpcg locks a column at its
            # own tol, and a locked residual can drift slightly past it
            tol=0.1 * _EIG_TOL * norm_est,
            maxiter=_EIG_MAXITER,
            largest=False,
            retResidualNormsHistory=True,
        )
    keep = np.argsort(evals)[:_KEEP]
    evals, evecs = evals[keep], evecs[:, keep]
    residual = float(np.max(np.linalg.norm(op.apply_stacked(evecs) - evecs * evals, axis=0)))
    if residual > _EIG_TOL * norm_est:
        raise RuntimeError(
            f"LOBPCG did not converge: eigen-residual {residual:.3e} above "
            f"{_EIG_TOL:g} x norm bound {norm_est:.6g} within {_EIG_MAXITER} iterations"
        )
    order = np.argsort(np.abs(evals))
    kernel_pair = order[:2]
    coercivity = float(np.min(np.abs(evals[order[2:]])))
    if not (evals[-1] > threshold and evals[-1] >= coercivity):
        raise RuntimeError(
            f"the {_KEEP} lowest eigenvalues do not reach past the kernel pair "
            f"(highest {evals[-1]:.6g}, threshold {threshold:.6g})"
        )
    basis = evecs[:, kernel_pair]
    correlations = []
    for cand in op.kernel_coefficients():
        v = _stack(cand)
        v = v / np.linalg.norm(v)
        correlations.append(float(np.linalg.norm(basis.T @ v)))
    return LinearizedReport(
        eigenvalues=evals,
        near_zero=evals[order][np.abs(evals[order]) <= threshold],
        correlations=tuple(correlations),
        coercivity=coercivity,
        norm_estimate=norm_est,
        threshold=threshold,
        # below 5 x _BLOCK unknowns lobpcg solves densely and keeps no history
        iterations=len(history[0]) if history else 0,
    )


def bordered_solve(op: LinearizedOperator, fh: np.ndarray, mass_residual: float, rtol: float):
    """The Newton step (du_hat or None, dtheta, MINRES iterations) at op's profile R and multiplier.

    fh and du_hat are the raw DFT coefficients of the residual f and of the
    step.  Solves L du + dtheta R = -f, R^T du = -mass_residual (the real
    pairing) on stacked unitary DFT coefficients (_unitary): MINRES on the
    symmetric bordered matrix [[L, R], [R^T, 0]], preconditioned by the
    positive diag(1/(n_N + theta), 1/(R^T (n_N + theta)^{-1} R)); the
    symbol is diagonal there, so each iteration applies L once, two
    transforms, and the preconditioner is a division.
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
    from scipy.sparse.linalg import minres

    rhs = -np.append(_unitary(fh), mass_residual)
    r = _unitary(op.coefficients)
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
        _operator(n, matvec),
        np.append(project(rhs[:-1]), rhs[-1]),
        rtol=rtol,
        maxiter=_MINRES_MAXITER,
        M=_operator(n, precond),
        callback=count,
    )
    return (_raw(sol[:-1]) if status == 0 else None), float(sol[-1]), iters

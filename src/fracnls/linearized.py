"""Linearized operator around a converged minimizer and its kernel structure.

The conjugation term makes the linearization real-linear but not
complex-linear, so the operator is represented on stacked (Re f, Im f)
coordinates, where it is a real symmetric operator: spectral symbol blocks
(even part symmetric, odd part antisymmetric) plus pointwise potentials.
Eigenanalysis, the two symmetry null directions, coercivity diagnostics,
and the constrained linear solve of the uniqueness argument live here.
Both run matrix-free (LOBPCG and MINRES, preconditioned by the inverse of
the positive symbol n_N + theta); LOBPCG starts from the lowest eigenvectors
of the same linearization on a coarse grid, brought to the grid by zero
padding.  The dense matrix is a small-grid test oracle.  scipy.sparse.linalg
is imported where it runs, so processes that never need it skip loading it.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .spectral import (
    Profile,
    SpectralGrid,
    derivative,
    fft,
    fourier_restrict,
    ifft,
    sobolev_norm,
    zero_pad,
)
from .symbols import ModelParams, symbol_nN

if TYPE_CHECKING:  # solvers builds its Newton steps on this module
    from .solvers import SolveResult

__all__ = [
    "LinearizedOperator",
    "LinearizedReport",
    "build_linearized",
    "local_limit_operators",
    "kernel_diagnostics",
    "constrained_solve",
    "LocalOperator",
    "DENSE_MAX_POINTS",
]

DENSE_MAX_POINTS = 2048  # dense() refuses larger grids: (2M)^2 doubles is 128 MiB here


def _stack(values: np.ndarray) -> np.ndarray:
    return np.concatenate([values.real, values.imag])


def _unstack(vec: np.ndarray) -> np.ndarray:
    m = vec.shape[0] // 2
    return vec[:m] + 1j * vec[m:]


def _along_rows(grid_field: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A grid field shaped to scale a single field or each column of a block."""
    return grid_field.reshape((-1,) + (1,) * (values.ndim - 1))


@dataclass
class LinearizedOperator:
    """L f = n_N(D) f + theta f - (s+1)|R|^{2s} f - s |R|^{2s-2} R^2 conj(f)."""

    params: ModelParams
    profile: Profile
    theta: float
    symbol: np.ndarray = field(repr=False)  # n_N + theta on the grid frequencies
    v1: np.ndarray = field(repr=False)  # (s+1)|R|^{2s}
    w: np.ndarray = field(repr=False)  # s |R|^{2s-2} R^2 (conjugation coupling)

    @classmethod
    def at(cls, params: ModelParams, profile: Profile, theta: float) -> "LinearizedOperator":
        """The linearization around any profile and multiplier, converged or not."""
        s = params.s
        r = profile.values
        absr = np.abs(r)
        pow2s = np.where(absr > 0.0, absr ** (2.0 * s), 0.0)
        # |R|^{2s-2} R^2 = |R|^{2s} (R/|R|)^2, continuous (-> 0) at zeros of R
        phase2 = np.where(absr > 0.0, (r / np.where(absr > 0.0, absr, 1.0)) ** 2, 0.0)
        return cls(
            params=params,
            profile=profile,
            theta=theta,
            symbol=symbol_nN(profile.grid.xi, params) + theta,
            v1=(s + 1.0) * pow2s,
            w=s * pow2s * phase2,
        )

    @property
    def grid(self) -> SpectralGrid:
        return self.profile.grid

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Matrix-free application to a complex field, or to each column of an (M, k) block."""
        out = ifft(_along_rows(self.symbol, values) * fft(values, axis=0), axis=0)
        return out - _along_rows(self.v1, values) * values - _along_rows(self.w, values) * np.conj(values)

    def apply_stacked(self, vec: np.ndarray) -> np.ndarray:
        return _stack(self.apply(_unstack(vec)))

    def solve_symbol_stacked(self, vec: np.ndarray) -> np.ndarray:
        """The preconditioner 1/(n_N + theta) on stacked coordinates (vector or block)."""
        values = _unstack(vec)
        return _stack(ifft(fft(values, axis=0) / _along_rows(self.symbol, values), axis=0))

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

    def kernel_candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """The symmetry null directions iR and dR/dx, as complex fields."""
        r = self.profile.values
        dr = derivative(self.profile).values
        return 1j * r, dr

    def complement_projector(self):
        """The orthogonal projector onto the complement of span{iR, dR/dx}, on stacked coordinates."""
        # the two symmetry directions are not mutually orthogonal (the complex
        # profile carries momentum), so the removal must solve the 2x2 Gram system
        cmat = np.stack([_stack(c) for c in self.kernel_candidates()], axis=1)
        gram = cmat.T @ cmat

        def project(vec):
            return vec - cmat @ np.linalg.solve(gram, cmat.T @ vec)

        return project


def build_linearized(result: SolveResult, params: ModelParams) -> LinearizedOperator:
    """Assemble the linearization around a converged renormalized minimizer."""
    if not result.converged:
        raise ValueError("linearization requires a converged solve")
    return LinearizedOperator.at(params, result.profile, result.multiplier)


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


@dataclass
class LinearizedReport:
    eigenvalues: np.ndarray  # six lowest, ascending
    near_zero: np.ndarray  # eigenvalues with |ev| below the kernel threshold
    correlations: tuple  # projection of (iR, dR) onto the near-zero eigenspace
    coercivity: float  # smallest |ev| outside the kernel pair
    norm_estimate: float
    threshold: float
    grid_length: float
    grid_points: int
    iterations: int  # rows of LOBPCG's residual history, start and final Rayleigh-Ritz included

    def to_json(self) -> str:
        return json.dumps(
            {
                "eigenvalues": [float(v) for v in self.eigenvalues],
                "near_zero": [float(v) for v in self.near_zero],
                "correlations": [float(c) for c in self.correlations],
                "coercivity": float(self.coercivity),
                "norm_estimate": float(self.norm_estimate),
                "threshold": float(self.threshold),
                "grid": {"L": self.grid_length, "M": self.grid_points},
            },
            indent=2,
        )


def _stacked_operator(op: LinearizedOperator, apply):
    from scipy.sparse.linalg import LinearOperator

    n2 = 2 * op.grid.points
    return LinearOperator((n2, n2), matvec=apply, matmat=apply, dtype=float)


_BLOCK = 8  # LOBPCG block width; the lowest _KEEP of its eigenpairs are reported
_KEEP = 6
_COARSE_POINTS = 128  # grid of the start block's dense eigensolve (a 256 x 256 matrix)
_EIG_TOL = 1e-10  # eigen-residual bound, relative to the operator-norm bound
_EIG_MAXITER = 400  # README grid: 6, 30, 165, 362 iterations at s = 1.5, 1.4, 1.3, 1.2
_KERNEL_REL_THRESHOLD = 1e-6  # kernel eigenvalues lie below this times the norm bound
_MINRES_RTOL = 1e-13
_MINRES_MAXITER = 1000
_OVERLAP_TOL = 1e-8  # relative symmetry overlap above which a right-hand side is projected


def _coarse_start(op: LinearizedOperator) -> np.ndarray:
    """The _BLOCK lowest eigenvectors of the same linearization on a coarse grid, on op's grid.

    The coarse grid has the same length and _COARSE_POINTS points (op's own
    grid when that is no finer); its profile is op's Fourier truncation at
    the same theta.  The coarse matrix is the stacked operator applied to
    the identity, and its eigenvectors are zero-padded to op's grid.
    """
    factor = max(op.grid.points // _COARSE_POINTS, 1)
    coarse = op
    if factor > 1:
        grid = SpectralGrid(op.grid.length, op.grid.points // factor)
        profile = Profile(grid, fourier_restrict(op.profile.values, factor))
        coarse = LinearizedOperator.at(op.params, profile, op.theta)
    _, vecs = np.linalg.eigh(coarse.apply_stacked(np.eye(2 * coarse.grid.points)))
    fields = _unstack(vecs[:, :_BLOCK])
    return _stack(np.stack([zero_pad(f, factor) for f in fields.T], axis=1))


def kernel_diagnostics(op: LinearizedOperator) -> LinearizedReport:
    """Lowest eigenpairs of the symmetric form: kernel pair, correlations, coercivity.

    LOBPCG (Knyazev 2001) on the stacked operator, preconditioned by the
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

    # operator-norm bound max(n_N + theta) + ||v1||_inf + ||w||_inf
    norm_est = float(np.max(op.symbol) + np.max(np.abs(op.v1)) + np.max(np.abs(op.w)))
    threshold = _KERNEL_REL_THRESHOLD * norm_est
    with warnings.catch_warnings():  # convergence is checked below, not by lobpcg's warning
        warnings.simplefilter("ignore", UserWarning)
        evals, evecs, *history = lobpcg(
            _stacked_operator(op, op.apply_stacked),
            _coarse_start(op),
            M=_stacked_operator(op, op.solve_symbol_stacked),
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
    ir, dr = op.kernel_candidates()
    correlations = []
    for cand in (ir, dr):
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
        grid_length=op.grid.length,
        grid_points=op.grid.points,
        # below 5 x _BLOCK unknowns lobpcg solves densely and keeps no history
        iterations=len(history[0]) if history else 0,
    )


def constrained_solve(op: LinearizedOperator, rhs: Profile) -> tuple[Profile, dict]:
    """Solve L f = F on the orthogonal complement of span{iR, dR/dx}.

    MINRES on P L P, where P is the orthogonal projector onto the
    complement of the two constraint columns, preconditioned by
    P (n_N + theta)^{-1} P; the iterates stay in the complement.  A
    right-hand side with symmetry components beyond _OVERLAP_TOL is projected
    first and the projection is reported.  The returned info carries the
    stability quotient ||f||_{H^{s/2}} / ||F||_{H^{-s/2}} in the weighted
    spectral norms.  A solve that does not converge raises RuntimeError.
    """
    from scipy.sparse.linalg import minres

    grid = op.grid
    h = grid.h
    ir, dr = op.kernel_candidates()
    c1, c2 = _stack(ir), _stack(dr)
    f_vec = _stack(rhs.values)
    info = {"projected": False, "overlaps": []}
    project = op.complement_projector()
    for c in (c1, c2):
        ov = h * float(f_vec @ c)
        info["overlaps"].append(ov)
        scale = np.linalg.norm(f_vec) * np.linalg.norm(c) * h
        if scale > 0 and abs(ov) > _OVERLAP_TOL * scale:
            info["projected"] = True
    if info["projected"]:
        f_vec = project(f_vec)
    sol, status = minres(
        _stacked_operator(op, lambda v: project(op.apply_stacked(project(v)))),
        project(f_vec),
        rtol=_MINRES_RTOL,
        maxiter=_MINRES_MAXITER,
        M=_stacked_operator(op, lambda v: project(op.solve_symbol_stacked(project(v)))),
    )
    if status != 0:
        raise RuntimeError(f"MINRES on the constrained complement did not converge (status {status})")
    f = _unstack(sol)
    f_prof = Profile(grid, f)
    rhs_proj = Profile(grid, _unstack(f_vec))
    num = sobolev_norm(f_prof, op.params.s / 2.0)
    den = sobolev_norm(rhs_proj, -op.params.s / 2.0)
    info["stability_constant"] = num / den if den > 0 else np.inf
    info["constraint_residuals"] = (
        h * float(_stack(f) @ c1),
        h * float(_stack(f) @ c2),
    )
    return f_prof, info

"""Linearized operator: kernel structure, coercivity, constrained solve."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

from fracnls import linearized, solvers
from fracnls.linearized import (
    DENSE_MAX_POINTS,
    LinearizedOperator,
    LinearizedReport,
    bordered_solve,
    build_linearized,
    kernel_diagnostics,
)
from fracnls.solvers import (
    SolveResult,
    local_ground_state,
    petviashvili_mass_constrained,
)
from fracnls.spectral import Profile, SpectralGrid, UnresolvedError, fft, ifft
from fracnls.symbols import ModelParams, symbol_nN
from conftest import S_DEFAULT, count_transforms, smooth_random_profile
import oracles
from oracles import apply, constrained_solve, derivative, local_dense, local_limit_operators


def _stack(values):
    return np.concatenate([values.real, values.imag])


def _saddle_oracle(op, f_vec):
    """Dense augmented saddle system [[L, C], [C^T, 0]] for L f = F with C^T f = 0."""
    ir, dr = (ifft(c) for c in op.kernel_coefficients())
    c1, c2 = _stack(ir), _stack(dr)
    m2 = 2 * op.grid.points
    aug = np.zeros((m2 + 2, m2 + 2))
    aug[:m2, :m2] = op.dense()
    aug[:m2, m2] = c1
    aug[:m2, m2 + 1] = c2
    aug[m2, :m2] = c1
    aug[m2 + 1, :m2] = c2
    sol = np.linalg.solve(aug, np.concatenate([f_vec, [0.0, 0.0]]))
    return sol[: m2 // 2] + 1j * sol[m2 // 2 : m2]


def _project_out(values, directions):
    """Remove the span of possibly non-orthogonal directions (real pairing)."""
    cols = [np.concatenate([d.real, d.imag]) for d in directions]
    cmat = np.stack(cols, axis=1)
    vec = np.concatenate([values.real, values.imag])
    coeff = np.linalg.solve(cmat.T @ cmat, cmat.T @ vec)
    vec = vec - cmat @ coeff
    m = values.shape[0]
    return vec[:m] + 1j * vec[m:]


@pytest.fixture(scope="module")
def op10(lin_solve):
    return build_linearized(lin_solve["result"], lin_solve["params"])


@pytest.fixture(scope="module")
def report10(op10):
    return kernel_diagnostics(op10)


@pytest.fixture(scope="module")
def dense_spectrum10(op10):
    return eigh(op10.dense())


def test_build_requires_converged(lin_solve):
    res = lin_solve["result"]
    broken = SolveResult(res.grid, res.coefficients, res.multiplier, 1.0, res.energy, 1, False)
    with pytest.raises(RuntimeError, match=r"converged solve \(residual 1\.000e\+00\)"):
        build_linearized(broken, lin_solve["params"])


def test_kernel_directions_annihilated(op10):
    r = ifft(op10.coefficients)
    ir = 1j * r
    dr = derivative(Profile(op10.grid, r)).values
    norm_r = np.linalg.norm(r)
    assert np.linalg.norm(apply(op10, ir)) <= 1e-7 * norm_r
    assert np.linalg.norm(apply(op10, dr)) <= 1e-7 * np.linalg.norm(dr)


def test_form_symmetry_on_random_pairs(op10):
    grid = op10.grid
    rng = np.random.default_rng(42)
    h = grid.h
    for _ in range(20):
        f = smooth_random_profile(grid, rng).values
        g = smooth_random_profile(grid, rng).values
        lf_g = h * np.sum(np.real(apply(op10, f) * np.conj(g)))
        f_lg = h * np.sum(np.real(f * np.conj(apply(op10, g))))
        scale = max(abs(lf_g), abs(f_lg), 1e-30)
        assert abs(lf_g - f_lg) <= 1e-10 * scale


def test_dense_matches_matrix_free(op10):
    grid = op10.grid
    rng = np.random.default_rng(3)
    mat = op10.dense()
    for _ in range(5):
        f = smooth_random_profile(grid, rng).values
        stacked = np.concatenate([f.real, f.imag])
        via_mat = mat @ stacked
        direct = apply(op10, f)
        direct_stacked = np.concatenate([direct.real, direct.imag])
        scale = np.max(np.abs(op10.symbol)) * np.max(np.abs(f))
        assert np.max(np.abs(via_mat - direct_stacked)) <= 1e-12 * scale


def test_dense_is_symmetric(op10):
    mat = op10.dense()
    assert np.max(np.abs(mat - mat.T)) <= 1e-12 * np.max(np.abs(mat))


def test_dense_refuses_large_grid_before_allocating():
    grid = SpectralGrid(64.0, 2 * DENSE_MAX_POINTS)
    zeros = np.zeros(grid.points)
    op = LinearizedOperator(
        ModelParams(S_DEFAULT, 0.1), grid, zeros.astype(complex), 1.0,
        symbol=np.ones(grid.points), v1=zeros, w=zeros.astype(complex),
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense operator refused at M=4096"):
            op.dense()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_block_apply_matches_columns(op10):
    rng = np.random.default_rng(8)
    block = rng.standard_normal((2 * op10.grid.points, 3))
    out = op10.apply_stacked(block)
    for k in range(block.shape[1]):
        col = op10.apply_stacked(block[:, k])
        assert np.max(np.abs(out[:, k] - col)) <= 1e-13 * np.max(np.abs(col))


# -- local limit operators -----------------------------------------------------

@pytest.fixture(scope="module")
def local_ops(lam15):
    lam = lam15["lam"]
    grid = SpectralGrid(256.0, 2048)
    base = local_ground_state(S_DEFAULT, lam, grid)
    lp, lm = local_limit_operators(S_DEFAULT, lam, grid, base)
    return {"grid": grid, "base": base, "Lp": lp, "Lm": lm, "lam": lam}


def test_lminus_annihilates_profile(local_ops):
    base = local_ops["base"].values.real
    out = local_ops["Lm"].apply(base)
    assert np.linalg.norm(out) <= 1e-8 * np.linalg.norm(base)


def test_lplus_annihilates_derivative(local_ops):
    dr = derivative(local_ops["base"]).values.real
    out = local_ops["Lp"].apply(dr)
    assert np.linalg.norm(out) <= 1e-7 * np.linalg.norm(dr)


def test_lplus_profile_identity(local_ops):
    """L+ R = -2s (|D|^2 + lam) R."""
    grid, lam = local_ops["grid"], local_ops["lam"]
    base = local_ops["base"].values.real
    lhs = local_ops["Lp"].apply(base)
    rhs = -2.0 * S_DEFAULT * (
        np.fft.ifft(grid.xi**2 * np.fft.fft(base)).real + lam * base
    )
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_local_dense_agrees_with_apply(local_ops):
    grid = local_ops["grid"]
    rng = np.random.default_rng(5)
    f = smooth_random_profile(grid, rng).values.real
    mat = local_dense(local_ops["Lp"])
    assert np.max(np.abs(mat @ f - local_ops["Lp"].apply(f).real)) <= 1e-11 * np.max(np.abs(f))


# -- eigenanalysis -------------------------------------------------------------

def test_kernel_diagnostics_two_dimensional(report10):
    assert isinstance(report10, LinearizedReport)
    assert np.all(np.abs(report10.near_zero) <= report10.threshold)
    assert report10.coercivity > report10.threshold
    assert np.all(np.diff(report10.eigenvalues) >= 0)


def _assert_discrete_spectrum(op, report, evals):
    """The dense spectrum below theta is exactly the reported eigenvalues, and the next one reaches theta."""
    below = evals[evals < op.theta]
    assert below.shape == report.eigenvalues.shape
    assert np.max(np.abs(report.eigenvalues - below)) <= 1e-10
    assert evals[below.size] >= op.theta


def _assert_matches_dense(op, report, evals, evecs):
    _assert_discrete_spectrum(op, report, evals)
    order = np.argsort(np.abs(evals))
    assert len(report.near_zero) == int(np.sum(np.abs(evals) <= report.threshold))
    basis = evecs[:, order[:2]]
    for cand, corr in zip((ifft(c) for c in op.kernel_coefficients()), report.correlations):
        v = _stack(cand) / np.linalg.norm(_stack(cand))
        assert corr == pytest.approx(float(np.linalg.norm(basis.T @ v)), abs=1e-8)
    # coercivity is min(theta, the smallest |ev| outside the kernel pair)
    assert report.coercivity == pytest.approx(min(op.theta, float(np.min(np.abs(evals[order[2:]])))), abs=1e-10)
    # the norm bound dominates the spectrum it replaces as the threshold scale
    assert report.norm_estimate >= np.max(np.abs(evals))


def test_kernel_diagnostics_matches_dense_oracle(op10, report10, dense_spectrum10):
    _assert_matches_dense(op10, report10, *dense_spectrum10)


def _linearized_at(s, n, length, points):
    grid = SpectralGrid(length, points)
    params = ModelParams(s, n)
    return build_linearized(petviashvili_mass_constrained(grid, params, tol=1e-10), params)


@pytest.mark.parametrize("s,length,points", [(1.3, 64.0, 512), (1.3, 128.0, 1024), (1.5, 64.0, 512),
                                             (1.5, 128.0, 1024)])
def test_discrete_spectrum_matches_dense_oracle(s, length, points):
    # the pairs below theta, the line's continuum edge, are the whole report,
    # with the kernel pair's correlations and coercivity
    op = _linearized_at(s, 0.1, length, points)
    _assert_matches_dense(op, kernel_diagnostics(op), *eigh(op.dense()))


@pytest.mark.parametrize("s,length,points", [(1.3, 128.0, 1024), (1.4, 128.0, 1024), (1.5, 128.0, 1024),
                                             (1.2, 128.0, 2048)])
def test_discrete_spectrum_matches_scipy_lobpcg_oracle(s, length, points):
    # scipy's lobpcg on stacked reals from the same start, to the same bound
    # (oracles.lobpcg_stacked): the same eigenvalues, and eigenvectors that
    # span the same eigenspace of the kernel pair
    op = _linearized_at(s, 0.1, length, points)
    report = kernel_diagnostics(op)
    evals, evecs = oracles.lobpcg_stacked(op)
    assert evals.shape == report.eigenvalues.shape
    assert np.max(np.abs(report.eigenvalues - evals)) <= 1e-12 * report.norm_estimate
    order = np.argsort(np.abs(evals))
    basis = evecs[:, order[:2]]
    for cand, corr in zip(op.kernel_coefficients(), report.correlations):
        v = _stack(cand) / np.linalg.norm(cand)
        assert corr == pytest.approx(float(np.linalg.norm(basis.T @ v)), abs=1e-8)


def test_coarse_start_matches_dense_oracle_in_tight_cluster():
    # at s = 1.3 eigenvalues 4-8, the torus's continuum, lie within 2e-2 of
    # each other just above theta: the discrete pairs below it must still
    # be the dense ones, with the kernel pair and coercivity
    op = _linearized_at(1.3, 0.1, 64.0, 512)
    report = kernel_diagnostics(op)
    evals, evecs = eigh(op.dense())
    assert evals[7] - evals[3] < 2e-2
    _assert_matches_dense(op, report, evals, evecs)


@pytest.mark.parametrize(
    "grid_spec,iterations",
    # the start's residuals already pass, so LOBPCG takes no step
    [((64.0, 128), 0), ((16.0, 16), 0)],
)
def test_coarse_start_is_exact_on_coarse_grids(grid_spec, iterations, monkeypatch):
    # the 16-point grid holds the spatially constant state, which the
    # resolution guard refuses; lifted here, its 32 unknowns take the
    # block of 8 as any grid does
    monkeypatch.setattr(linearized, "_RESOLVED_REL", np.inf)
    op = _linearized_at(1.5, 0.1, *grid_spec)
    report = kernel_diagnostics(op)
    assert report.iterations == iterations
    evals = eigh(op.dense(), eigvals_only=True)
    below = evals[evals < op.theta]
    assert below.shape == report.eigenvalues.shape
    assert np.max(np.abs(report.eigenvalues - below)) <= 1e-12 * report.norm_estimate


@pytest.mark.parametrize("s,length,points,hint", [(1.2, 128.0, 1024, "--grid-m 2048"),
                                                  (1.5, 32.0, 16, "--grid-m 64")])
def test_resolution_guard_refuses_before_lobpcg(monkeypatch, s, length, points, hint):
    # s = 1.2 on the README grid annihilates iR only to 73 and dR/dx to 1.5e3 x
    # 1e-3 of the kernel threshold; 16 points on L = 32 leave iR at 2.1e5 x that
    calls = _spy(monkeypatch)
    with pytest.raises(UnresolvedError, match=r"does not resolve .* kernel residual of iR, dR/dx is .* x the kernel "
                                              r"threshold \(limit 0\.001\); refine the grid: .*" + hint):
        kernel_diagnostics(_linearized_at(s, 0.1, length, points))
    assert calls == []


def test_kernel_residual_ratio_on_the_readme_grid(report10):
    # s = 1.5 annihilates the symmetry directions far below the guard's 1e-3
    assert 0.0 < report10.kernel_residual_ratio <= 1e-9


def test_coarse_start_halves_readme_grid_iterations():
    # the README linearize grid at s = 1.4 took 112 from a seeded random start block
    report = kernel_diagnostics(_linearized_at(1.4, 0.1, 128.0, 1024))
    assert 0 < report.iterations <= 56


@pytest.mark.parametrize("s,points", [(1.5, 1024), (1.4, 1024), (1.3, 1024), (1.2, 2048), (1.1, 4096)])
def test_resolved_grid_iterations_stop_on_discrete_pairs(s, points):
    # L = 128 at the spacing that resolves each s; the six lowest pairs
    # took 4, 25 and 86 iterations at s = 1.5, 1.4, 1.3 on M = 1024, and
    # s = 1.1 ended at the cap; the discrete pairs below theta take 2 to 16
    report = kernel_diagnostics(_linearized_at(s, 0.1, 128.0, points))
    assert 0 < report.iterations <= 50


def test_iterations_stable_under_roundoff_moves_of_the_profile():
    # R moved by 2e-16 (relative) eight times on the README grid at s = 1.3:
    # the stop test sits at the bound itself, and no locked column drifts
    grid, params = SpectralGrid(128.0, 1024), ModelParams(1.3, 0.1)
    res = petviashvili_mass_constrained(grid, params, tol=1e-10)
    counts = set()
    for seed in range(8):
        noise = np.random.default_rng(seed).standard_normal(grid.points)
        moved = res.coefficients * (1.0 + 2e-16 * noise)
        op = LinearizedOperator.at(params, grid, moved, symbol_nN(grid.xi, params), res.multiplier)
        counts.add(kernel_diagnostics(op).iterations)
    assert len(counts) == 1


def test_kept_residuals_end_within_bound_on_fine_grid(monkeypatch):
    # the stop test reads residuals that LOBPCG updates by its recurrences;
    # the pairs below theta, recomputed from scratch, must be within the
    # bound too, and be the ones the report reads
    calls = _spy(monkeypatch)
    op = _linearized_at(1.3, 0.1, 128.0, 2048)
    report = kernel_diagnostics(op)
    ((_, _, (evals, evecs, _, _)),) = calls
    keep = np.flatnonzero(evals < op.theta)
    assert np.array_equal(keep, np.arange(report.eigenvalues.size))
    evecs = evecs[keep]  # the Ritz vectors are rows
    residuals = np.linalg.norm(op.apply_coefficients(evecs) - evals[keep, None] * evecs, axis=1)
    assert np.all(residuals <= linearized._EIG_TOL * report.norm_estimate)
    assert np.array_equal(report.eigenvalues, evals[keep])
    assert np.max(np.abs(np.real(evecs.conj() @ evecs.T) - np.eye(keep.size))) <= 1e-12


def test_kernel_diagnostics_stops_at_the_iteration_cap(monkeypatch):
    # this grid needs 16
    calls = _spy(monkeypatch)
    monkeypatch.setattr(linearized, "_EIG_MAXITER", 10)
    op = _linearized_at(1.3, 0.1, 128.0, 1024)
    with pytest.raises(RuntimeError, match=r"LOBPCG did not converge: .* within 10 iterations"):
        kernel_diagnostics(op)
    ((_, _, (_, _, _, iterations)),) = calls
    assert iterations == 10


def test_kernel_diagnostics_bitwise_repeatable(op10, report10):
    again = kernel_diagnostics(op10)
    for name in ("eigenvalues", "near_zero", "correlations"):
        assert np.array_equal(getattr(again, name), getattr(report10, name))
    for name in ("coercivity", "norm_estimate", "threshold", "iterations", "kernel_residual_ratio"):
        assert getattr(again, name) == getattr(report10, name)


def test_kernel_diagnostics_rejects_unconverged(op10, monkeypatch):
    # from the coarse start this fixture converges even under a one-iteration
    # cap; a residual bound below roundoff is never met within the real cap
    monkeypatch.setattr(linearized, "_EIG_TOL", 1e-20)
    with pytest.raises(RuntimeError, match="LOBPCG did not converge"):
        kernel_diagnostics(op10)


def test_kernel_diagnostics_requires_spectrum_past_kernel(op10, monkeypatch):
    # a block of three holds only the discrete pairs: no Ritz value reaches
    # theta, so the unseen spectrum could still hold near-zero eigenvalues
    monkeypatch.setattr(linearized, "_BLOCK", 3)
    with pytest.raises(RuntimeError, match="3 lowest Ritz values do not reach past the kernel pair"):
        kernel_diagnostics(op10)


def test_spectrum_matches_local_split(lin_solve, lam15):
    """The small-N spectrum matches the local L+/L- split, cross-validated."""
    grid = lin_solve["grid"]
    lam = lam15["lam"]
    params = ModelParams(S_DEFAULT, 0.05)
    res = petviashvili_mass_constrained(grid, params, tol=1e-11)
    op = build_linearized(res, params)
    evals = np.sort(eigh(op.dense(), eigvals_only=True))
    base = local_ground_state(S_DEFAULT, lam, grid)
    lp, lm = local_limit_operators(S_DEFAULT, lam, grid, base)
    local_evals = np.sort(
        np.concatenate([eigh(local_dense(lp), eigvals_only=True), eigh(local_dense(lm), eigvals_only=True)])
    )
    # the lowest part of the spectrum converges as N -> 0
    for a, b in zip(evals[:6], local_evals[:6]):
        assert a == pytest.approx(b, abs=2e-4)


def test_near_zero_sensitivity_to_potential(op10):
    """An O(eps) symmetric potential perturbation moves the kernel pair O(eps)."""
    eps = 1e-3
    rng = np.random.default_rng(11)
    mat = op10.dense()
    m = op10.grid.points
    bump = eps * np.exp(-op10.grid.x**2) * rng.uniform(0.5, 1.0)
    pert = np.diag(np.concatenate([bump, bump]))
    evals0 = np.sort(np.abs(eigh(mat, eigvals_only=True)))[:2]
    evals1 = np.sort(np.abs(eigh(mat - pert, eigvals_only=True)))[:2]
    shift = np.max(np.abs(evals1 - evals0))
    # first-order oracle: |<v, dL v>| <= ||bump||_inf
    assert shift <= 2.0 * eps
    assert shift >= 1e-3 * eps


@pytest.mark.parametrize("s,n,grid_spec", [(1.2, 0.2, (64.0, 1024)), (1.5, 0.2, (128.0, 1024)), (1.6, 0.2, (512.0, 1024))])
def test_kernel_dimension_across_s(s, n, grid_spec):
    """Kernel dimension exactly 2 across the tested s set.

    The upper smoke point runs at s = 1.6: at s = 1.8 the renormalized
    profile width ~ 1/sqrt(lambda(1.8)) ~ 2.6e3 exceeds any desk torus.
    """
    grid = SpectralGrid(*grid_spec)
    params = ModelParams(s, n)
    res = petviashvili_mass_constrained(grid, params, tol=1e-10)
    rep = kernel_diagnostics(build_linearized(res, params))
    assert len(rep.near_zero) == 2
    assert min(rep.correlations) >= 0.999


def test_quadratic_form_positivity(op10):
    """<Lf, f> > 0 for random f orthogonal to {R, iR, dR}."""
    grid = op10.grid
    rng = np.random.default_rng(99)
    h = grid.h
    r = ifft(op10.coefficients)
    dirs = [r, 1j * r, derivative(Profile(op10.grid, r)).values]
    for _ in range(50):
        f = smooth_random_profile(grid, rng, width=float(rng.uniform(0.3, 2.0))).values
        f = _project_out(f, dirs)
        form = h * float(np.sum(np.real(apply(op10, f) * np.conj(f))))
        assert form > 0.0


def test_refinement_check_m2048(lam15):
    """Documented refinement: the kernel pair persists at doubled resolution."""
    grid = SpectralGrid(128.0, 2048)
    params = ModelParams(S_DEFAULT, 0.1)
    res = petviashvili_mass_constrained(grid, params, tol=1e-11)
    rep = kernel_diagnostics(build_linearized(res, params))
    assert len(rep.near_zero) == 2
    assert min(rep.correlations) >= 0.999


# -- constrained solve ---------------------------------------------------------

def test_constrained_solve_roundtrip(op10):
    grid = op10.grid
    rng = np.random.default_rng(17)
    g = smooth_random_profile(grid, rng).values
    r = ifft(op10.coefficients)
    g = _project_out(g, [1j * r, derivative(Profile(op10.grid, r)).values])
    rhs = Profile(grid, apply(op10, g))
    sol, info = constrained_solve(op10, rhs)
    err = np.linalg.norm(sol.values - g) / np.linalg.norm(g)
    assert err <= 1e-8
    assert max(abs(c) for c in info["constraint_residuals"]) <= 1e-10
    assert info["stability_constant"] > 0


def test_constrained_solve_matches_saddle_oracle(op10):
    """A generic right-hand side: symmetry components are projected out, then both agree."""
    rng = np.random.default_rng(19)
    rhs = smooth_random_profile(op10.grid, rng)
    sol, info = constrained_solve(op10, rhs)
    assert info["projected"]
    r = ifft(op10.coefficients)
    f_proj = _project_out(rhs.values, [1j * r, derivative(Profile(op10.grid, r)).values])
    oracle = _saddle_oracle(op10, _stack(f_proj))
    assert np.linalg.norm(sol.values - oracle) <= 1e-9 * np.linalg.norm(oracle)


def test_constrained_solve_rejects_unconverged(op10, monkeypatch):
    monkeypatch.setattr(oracles, "_MINRES_MAXITER", 2)
    rhs = smooth_random_profile(op10.grid, np.random.default_rng(21))
    with pytest.raises(RuntimeError, match="MINRES"):
        constrained_solve(op10, rhs)


def test_constrained_solve_pure_kernel_input(op10):
    rhs = Profile(op10.grid, 1j * ifft(op10.coefficients))
    sol, info = constrained_solve(op10, rhs)
    assert info["projected"]
    assert np.linalg.norm(sol.values) <= 1e-8 * np.linalg.norm(ifft(op10.coefficients))


def test_stability_constant_uniform_in_N(lin_solve):
    """The constrained-solve stability constant stays within 2x across masses."""
    grid = lin_solve["grid"]
    rng = np.random.default_rng(23)
    stability = []
    for n in (0.2, 0.1, 0.05):
        params = ModelParams(S_DEFAULT, n)
        res = petviashvili_mass_constrained(grid, params, tol=1e-11)
        op = build_linearized(res, params)
        g = smooth_random_profile(grid, rng, width=1.5).values
        r = ifft(op.coefficients)
        g = _project_out(g, [1j * r, derivative(Profile(op.grid, r)).values])
        rhs = Profile(grid, apply(op, g))
        _, info = constrained_solve(op, rhs)
        stability.append(info["stability_constant"])
    assert max(stability) / min(stability) <= 2.0


# -- Krylov operators on stacked DFT coefficients --------------------------------

def _spy(monkeypatch):
    """Record the operator, preconditioner and result of each call to linearized._lobpcg."""
    seen = []
    real = linearized._lobpcg

    def spy(matvec, psolve, *args):
        out = real(matvec, psolve, *args)
        seen.append((matvec, psolve, out))
        return out

    monkeypatch.setattr(linearized, "_lobpcg", spy)
    return seen


def _assert_symmetric(matvec, n, rng):
    for _ in range(10):
        x, y = rng.standard_normal((2, n))
        xay, yax = x @ matvec(y), y @ matvec(x)
        assert abs(xay - yax) <= 1e-12 * max(abs(xay), abs(yax))


def _newton_rhs(op, rng):
    return fft(smooth_random_profile(op.grid, rng).values), 0.1


def test_bordered_matrix_is_symmetric(op10, monkeypatch):
    # MINRES needs a symmetric matrix and a symmetric positive preconditioner,
    # in its inner product Re<a, b> + alpha beta on (unitary coefficients, border)
    seen = []
    real = linearized._minres

    def spy(matvec, psolve, b, *args):
        seen.append((matvec, psolve, b))
        return real(matvec, psolve, b, *args)

    monkeypatch.setattr(linearized, "_minres", spy)
    rng = np.random.default_rng(31)
    bordered_solve(op10, *_newton_rhs(op10, rng), 1e-6)
    ((matvec, psolve, b),) = seen
    assert b.shape == (op10.grid.points + 1,) and b[-1].imag == 0.0

    def vectors():
        x = rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size)
        x[-1] = x[-1].real
        return x

    def pairing(x, y):
        return float(np.real(np.vdot(x, y)))

    for action in (matvec, psolve):
        for _ in range(10):
            x, y = vectors(), vectors()
            xay, yax = pairing(x, action(y)), pairing(y, action(x))
            assert abs(xay - yax) <= 1e-12 * max(abs(xay), abs(yax))
            assert action(x)[-1].imag == 0.0
    x = vectors()
    assert pairing(x, psolve(x)) > 0.0


def test_kernel_diagnostics_operator_is_symmetric(op10, monkeypatch):
    # LOBPCG needs a symmetric operator and a symmetric positive
    # preconditioner in the real pairing Re<a, b> of complex coefficients,
    # each acting on a block of rows
    seen = _spy(monkeypatch)
    kernel_diagnostics(op10)
    ((matvec, psolve, _),) = seen
    rng = np.random.default_rng(37)
    m = op10.grid.points
    for action in (matvec, psolve):
        _assert_symmetric(lambda v: _stack(action((v[:m] + 1j * v[m:])[None])[0]), 2 * m, rng)
    x = rng.standard_normal((1, m)) + 1j * rng.standard_normal((1, m))
    assert np.real(np.vdot(x, psolve(x))) > 0.0


def test_bordered_minres_iteration_makes_two_transforms(op10, monkeypatch):
    """One operator application per MINRES iteration, one inverse and one forward transform; the preconditioner makes none."""
    rng = np.random.default_rng(41)
    fh, mass_residual = _newton_rhs(op10, rng)
    lengths = count_transforms(monkeypatch)
    counts = []
    for rtol in (1e-3, 1e-9):
        lengths.clear()
        _, _, iters = bordered_solve(op10, fh, mass_residual, rtol)
        counts.append((iters, len(lengths), lengths.count(op10.grid.points)))
    (it0, all0, m0), (it1, all1, m1) = counts
    assert it1 > it0
    assert m1 - m0 == all1 - all0 == 2 * (it1 - it0)


@pytest.mark.parametrize("s", [1.3, 1.5])
@pytest.mark.parametrize("grid_spec", [(256.0, 16384), (64.0, 4096)])
def test_bordered_solve_matches_scipy_minres_oracle(monkeypatch, s, grid_spec):
    # the Newton steps of a solve, each by the numpy loop and by scipy's
    # minres on stacked reals (oracles.bordered_solve_stacked): the same
    # Krylov process in exact arithmetic, so the iteration counts agree to
    # one.  SciPy's stop test is relative to ||A|| ||x||, so either step may
    # lie a few rtol from the exact one (up to 5 rtol here, against a step
    # solved to 1e-15); the loop's lies no farther than SciPy's, to within rtol
    steps = []
    real = solvers.bordered_solve

    def spy(op, fh, mass_residual, rtol):
        out = real(op, fh, mass_residual, rtol)
        steps.append((op, fh, mass_residual, rtol, out))
        return out

    monkeypatch.setattr(solvers, "bordered_solve", spy)
    petviashvili_mass_constrained(SpectralGrid(*grid_spec), ModelParams(s, 0.1), tol=1e-10)
    assert len(steps) >= 2
    for op, fh, mass_residual, rtol, (du, dtheta, iters) in steps:
        du_o, dtheta_o, iters_o = oracles.bordered_solve_stacked(op, fh, mass_residual, rtol)
        du_x, dtheta_x, _ = oracles.bordered_solve_stacked(op, fh, mass_residual, 1e-15)
        assert du is not None and du_o is not None and du_x is not None
        assert abs(iters - iters_o) <= 1
        norm = np.linalg.norm
        assert norm(du - du_x) <= norm(du_o - du_x) + rtol * norm(du_x)
        assert abs(dtheta - dtheta_x) <= abs(dtheta_o - dtheta_x) + rtol * abs(dtheta_x)

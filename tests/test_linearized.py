"""Linearized operator: kernel structure, coercivity, constrained solve."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

from fracnls import linearized
from fracnls.linearized import (
    DENSE_MAX_POINTS,
    LinearizedOperator,
    LinearizedReport,
    build_linearized,
    constrained_solve,
    kernel_diagnostics,
    local_limit_operators,
)
from fracnls.solvers import (
    SolveResult,
    local_ground_state,
    petviashvili_mass_constrained,
)
from fracnls.spectral import Profile, derivative, make_grid
from fracnls.symbols import ModelParams
from conftest import S_DEFAULT, smooth_random_profile
from oracles import local_dense


def _stack(values):
    return np.concatenate([values.real, values.imag])


def _saddle_oracle(op, f_vec):
    """Dense augmented saddle system [[L, C], [C^T, 0]] for L f = F with C^T f = 0."""
    ir, dr = op.kernel_candidates()
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
    broken = SolveResult(res.profile, res.multiplier, 1.0, res.energy, 1, False)
    with pytest.raises(ValueError, match="converged"):
        build_linearized(broken, lin_solve["params"])


def test_kernel_directions_annihilated(op10):
    r = op10.profile.values
    ir = 1j * r
    dr = derivative(op10.profile).values
    norm_r = np.linalg.norm(r)
    assert np.linalg.norm(op10.apply(ir)) <= 1e-7 * norm_r
    assert np.linalg.norm(op10.apply(dr)) <= 1e-7 * np.linalg.norm(dr)


def test_form_symmetry_on_random_pairs(op10):
    grid = op10.grid
    rng = np.random.default_rng(42)
    h = grid.h
    for _ in range(20):
        f = smooth_random_profile(grid, rng).values
        g = smooth_random_profile(grid, rng).values
        lf_g = h * np.sum(np.real(op10.apply(f) * np.conj(g)))
        f_lg = h * np.sum(np.real(f * np.conj(op10.apply(g))))
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
        direct = op10.apply(f)
        direct_stacked = np.concatenate([direct.real, direct.imag])
        scale = np.max(np.abs(op10.symbol)) * np.max(np.abs(f))
        assert np.max(np.abs(via_mat - direct_stacked)) <= 1e-12 * scale


def test_dense_is_symmetric(op10):
    mat = op10.dense()
    assert np.max(np.abs(mat - mat.T)) <= 1e-12 * np.max(np.abs(mat))


def test_dense_refuses_large_grid_before_allocating():
    grid = make_grid(64.0, 2 * DENSE_MAX_POINTS)
    zeros = np.zeros(grid.points)
    op = LinearizedOperator(
        ModelParams(S_DEFAULT, 0.0, 0.1), Profile(grid, zeros.astype(complex)), 1.0,
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
    grid = make_grid(256.0, 2048)
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
    assert len(report10.near_zero) == 2
    assert np.all(np.abs(report10.near_zero) <= report10.threshold)
    assert min(report10.correlations) >= 0.999
    assert report10.coercivity > report10.threshold
    assert np.all(np.diff(report10.eigenvalues) >= 0)


def _assert_matches_dense(op, report, evals, evecs):
    assert np.max(np.abs(report.eigenvalues - evals[:6])) <= 1e-10
    order = np.argsort(np.abs(evals))
    assert len(report.near_zero) == int(np.sum(np.abs(evals) <= report.threshold))
    basis = evecs[:, order[:2]]
    for cand, corr in zip(op.kernel_candidates(), report.correlations):
        v = _stack(cand) / np.linalg.norm(_stack(cand))
        assert corr == pytest.approx(float(np.linalg.norm(basis.T @ v)), abs=1e-8)
    assert report.coercivity == pytest.approx(float(np.min(np.abs(evals[order[2:]]))), abs=1e-10)
    # the norm bound dominates the spectrum it replaces as the threshold scale
    assert report.norm_estimate >= np.max(np.abs(evals))


def test_kernel_diagnostics_matches_dense_oracle(op10, report10, dense_spectrum10):
    _assert_matches_dense(op10, report10, *dense_spectrum10)


def _linearized_at(s, n, length, points):
    grid = make_grid(length, points)
    params = ModelParams(s, 0.0, n)
    return build_linearized(petviashvili_mass_constrained(grid, params, tol=1e-10), params)


def test_coarse_start_matches_dense_oracle_in_tight_cluster():
    # at s = 1.3 eigenvalues 4-8 lie within 2e-2 of each other, just above
    # theta: a start that missed one would converge to the next, 4e-4 away
    op = _linearized_at(1.3, 0.1, 64.0, 512)
    report = kernel_diagnostics(op)
    evals, evecs = eigh(op.dense())
    assert evals[7] - evals[3] < 2e-2
    _assert_matches_dense(op, report, evals, evecs)


@pytest.mark.parametrize(
    "grid_spec,iterations",
    # 2 history rows: the start's residuals already pass, so LOBPCG takes no
    # step; below 5 x 8 unknowns lobpcg solves densely and keeps no history
    [((64.0, 128), 2), ((16.0, 16), 0)],
)
def test_coarse_start_is_exact_on_coarse_grids(grid_spec, iterations):
    op = _linearized_at(1.5, 0.1, *grid_spec)
    report = kernel_diagnostics(op)
    assert report.iterations == iterations
    evals = eigh(op.dense(), eigvals_only=True)
    assert np.max(np.abs(report.eigenvalues - evals[:6])) <= 1e-12 * report.norm_estimate


def test_coarse_start_halves_readme_grid_iterations():
    # the README linearize grid at s = 1.4 took 112 from a seeded random start block
    report = kernel_diagnostics(_linearized_at(1.4, 0.1, 128.0, 1024))
    assert 0 < report.iterations <= 56


def test_kernel_diagnostics_bitwise_repeatable(op10, report10):
    again = kernel_diagnostics(op10)
    for name in ("eigenvalues", "near_zero", "correlations"):
        assert np.array_equal(getattr(again, name), getattr(report10, name))
    for name in ("coercivity", "norm_estimate", "threshold", "iterations"):
        assert getattr(again, name) == getattr(report10, name)


def test_kernel_diagnostics_rejects_unconverged(op10, monkeypatch):
    # from the coarse start this fixture converges even under a one-iteration
    # cap; a residual bound below roundoff is never met within the real cap
    monkeypatch.setattr(linearized, "_EIG_TOL", 1e-20)
    with pytest.raises(RuntimeError, match="LOBPCG did not converge"):
        kernel_diagnostics(op10)


def test_kernel_diagnostics_requires_spectrum_past_kernel(op10, monkeypatch):
    # the three lowest eigenvalues end inside the kernel pair, so the unseen
    # spectrum could still hold near-zero eigenvalues
    monkeypatch.setattr(linearized, "_KEEP", 3)
    with pytest.raises(RuntimeError, match="do not reach past the kernel pair"):
        kernel_diagnostics(op10)


def test_spectrum_matches_local_split(lin_solve, lam15):
    """The small-N spectrum matches the local L+/L- split, cross-validated."""
    grid = lin_solve["grid"]
    lam = lam15["lam"]
    params = ModelParams(S_DEFAULT, 0.0, 0.05)
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
    grid = make_grid(*grid_spec)
    params = ModelParams(s, 0.0, n)
    res = petviashvili_mass_constrained(grid, params, tol=1e-10)
    rep = kernel_diagnostics(build_linearized(res, params))
    assert len(rep.near_zero) == 2
    assert min(rep.correlations) >= 0.999


def test_quadratic_form_positivity(op10):
    """<Lf, f> > 0 for random f orthogonal to {R, iR, dR}."""
    grid = op10.grid
    rng = np.random.default_rng(99)
    h = grid.h
    r = op10.profile.values
    dirs = [r, 1j * r, derivative(op10.profile).values]
    for _ in range(50):
        f = smooth_random_profile(grid, rng, width=float(rng.uniform(0.3, 2.0))).values
        f = _project_out(f, dirs)
        form = h * float(np.sum(np.real(op10.apply(f) * np.conj(f))))
        assert form > 0.0


def test_refinement_check_m2048(lam15):
    """Documented refinement: the kernel pair persists at doubled resolution."""
    grid = make_grid(128.0, 2048)
    params = ModelParams(S_DEFAULT, 0.0, 0.1)
    res = petviashvili_mass_constrained(grid, params, tol=1e-11)
    rep = kernel_diagnostics(build_linearized(res, params))
    assert len(rep.near_zero) == 2
    assert min(rep.correlations) >= 0.999


# -- constrained solve ---------------------------------------------------------

def test_constrained_solve_roundtrip(op10):
    grid = op10.grid
    rng = np.random.default_rng(17)
    g = smooth_random_profile(grid, rng).values
    r = op10.profile.values
    g = _project_out(g, [1j * r, derivative(op10.profile).values])
    rhs = Profile(grid, op10.apply(g))
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
    r = op10.profile.values
    f_proj = _project_out(rhs.values, [1j * r, derivative(op10.profile).values])
    oracle = _saddle_oracle(op10, _stack(f_proj))
    assert np.linalg.norm(sol.values - oracle) <= 1e-9 * np.linalg.norm(oracle)


def test_constrained_solve_rejects_unconverged(op10, monkeypatch):
    monkeypatch.setattr(linearized, "_MINRES_MAXITER", 2)
    rhs = smooth_random_profile(op10.grid, np.random.default_rng(21))
    with pytest.raises(RuntimeError, match="MINRES"):
        constrained_solve(op10, rhs)


def test_constrained_solve_pure_kernel_input(op10):
    rhs = Profile(op10.grid, 1j * op10.profile.values)
    sol, info = constrained_solve(op10, rhs)
    assert info["projected"]
    assert np.linalg.norm(sol.values) <= 1e-8 * np.linalg.norm(op10.profile.values)


def test_stability_constant_uniform_in_N(lin_solve):
    """The constrained-solve stability constant stays within 2x across masses."""
    grid = lin_solve["grid"]
    rng = np.random.default_rng(23)
    consts = []
    for n in (0.2, 0.1, 0.05):
        params = ModelParams(S_DEFAULT, 0.0, n)
        res = petviashvili_mass_constrained(grid, params, tol=1e-11)
        op = build_linearized(res, params)
        g = smooth_random_profile(grid, rng, width=1.5).values
        r = op.profile.values
        g = _project_out(g, [1j * r, derivative(op.profile).values])
        rhs = Profile(grid, op.apply(g))
        _, info = constrained_solve(op, rhs)
        consts.append(info["stability_constant"])
    assert max(consts) / min(consts) <= 2.0

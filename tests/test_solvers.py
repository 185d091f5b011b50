"""Ground-state solvers against closed-form oracles and each other."""

import numpy as np
import pytest

from fracnls import linearized, solvers
from fracnls.renorm import gauge_fix
from fracnls.solvers import (
    ConvergenceError,
    fractional_ground_state,
    local_ground_state,
    petviashvili_mass_constrained,
    petviashvili_solve,
)
from fracnls.spectral import Profile, SpectralGrid, fft, pad_evaluate
from fracnls.symbols import ModelParams, lambda_of_s, symbol_n, symbol_nN
from conftest import N_PATH, S_DEFAULT, SOLVE_TOL, count_transforms, smooth_random_profile
from drift import scale_R_to_S
from oracles import (
    descend_symbol,
    el_residual,
    functional_energy,
    gradient_flow_minimize,
    lp_norm,
    quadratic_form,
    secant_mass_constrained,
)


# -- the closed form is verified before use ----------------------------------

def test_closed_form_symbolic_substitution():
    """The sech-power ansatz solves -R'' + lam R - R^{2s+1} = 0 symbolically."""
    import sympy as sp

    s, lam, x = sp.symbols("s lam x", positive=True)
    amp = ((s + 1) * lam) ** (1 / (2 * s))
    R = amp * sp.sech(s * sp.sqrt(lam) * x) ** (1 / s)
    defect = -sp.diff(R, x, 2) + lam * R - R ** (2 * s + 1)
    simplified = sp.simplify(defect.rewrite(sp.exp))
    assert simplified == 0


@pytest.mark.parametrize(
    "s,lam", [(1.5, 1.0), (1.2, 0.7), (1.8, 2.0)]
)
def test_closed_form_spectral_residual(s, lam):
    grid = SpectralGrid(64.0, 4096)
    prof = local_ground_state(s, lam, grid)
    res = el_residual(grid, prof.values, grid.xi**2, lam, 2 * s + 1)
    assert res <= 1e-8


def test_closed_form_is_even():
    grid = SpectralGrid(64.0, 4096)
    prof = local_ground_state(1.5, 1.0, grid)
    flipped = prof.values[1:][::-1]  # nodes mirror about 0 except the first
    assert np.max(np.abs(prof.values[1:] - flipped)) == 0.0


def test_closed_form_quintic_limit():
    """s = 2, lam = 4: R = 12^{1/4} sech^{1/2}(4x) solves -R'' + 4R - R^5 = 0."""
    grid = SpectralGrid(64.0, 4096)
    prof = local_ground_state(2.0, 4.0, grid)
    expected = 12.0**0.25 * np.cosh(4.0 * grid.x) ** -0.5
    assert np.max(np.abs(prof.values - expected)) <= 1e-12
    res = el_residual(grid, prof.values, grid.xi**2, 4.0, 5.0)
    assert res <= 1e-8


# -- lambda(s) ---------------------------------------------------------------

@pytest.mark.parametrize("s", [1.1, 1.3, 1.5, 1.9])
def test_lambda_of_s_against_quadrature(s):
    """The closed-form mass against 40-digit arithmetic and against QUADPACK."""
    import mpmath
    from scipy.integrate import quad

    rho0, lam = lambda_of_s(s)
    amp = (s + 1.0) ** (1.0 / s)
    oracle, _ = quad(lambda x: amp * np.cosh(s * x) ** (-2.0 / s), -50.0, 50.0,
                     epsabs=1e-14, epsrel=1e-13, limit=300)
    assert rho0 == pytest.approx(oracle, rel=1e-14)
    with mpmath.workdps(40):
        s_ = mpmath.mpf(s)
        exact = (s_ + 1) ** (1 / s_) * mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 / s_) / (
            s_ * mpmath.gamma(1 / s_ + mpmath.mpf(1) / 2)
        )
        lam_exact = (s_ * (s_ - 1) / 2 * exact**s_) ** (-2 / (2 - s_))
    assert rho0 == pytest.approx(float(exact), rel=2e-15)
    # lambda amplifies the relative error of rho0 by 2s/(2-s), 38 at s = 1.9
    assert lam == pytest.approx(float(lam_exact), rel=1e-13)


@pytest.mark.parametrize("length,points", [(256.0, 8192), (512.0, 16384)])
def test_lambda_of_s_against_sampled_mass(length, points):
    """Oracle: the trapezoid-rule mass of the sampled closed form."""
    s = 1.5
    rho0, lam = lambda_of_s(s)
    sampled = local_ground_state(s, 1.0, SpectralGrid(length, points)).mass()
    assert abs(sampled - rho0) <= 1e-12
    assert ((s * (s - 1.0) / 2.0) * sampled**s) ** (-2.0 / (2.0 - s)) == pytest.approx(lam, rel=1e-12)


@pytest.mark.parametrize("s", [1.2, 1.5, 1.8])
def test_lambda_of_s_is_model_params_lam(s):
    assert lambda_of_s(s)[1] == ModelParams(s, 1.0).lam


@pytest.mark.parametrize("s", [1.2, 1.5, 1.8])
def test_lambda_positive(s):
    _, lam = lambda_of_s(s)
    assert lam > 0.0


def test_lambda_rejects_local_case():
    with pytest.raises(ValueError):
        lambda_of_s(2.0)


# -- Petviashvili ------------------------------------------------------------

def test_petviashvili_quintic_soliton():
    """sigma = |xi|^2, theta = 1, p = 5 -> the quintic soliton, 1e-8 Linf."""
    grid = SpectralGrid(64.0, 4096)
    init = Profile(grid, np.exp(-grid.x**2))
    res = petviashvili_solve(grid, grid.xi**2, 1.0, 5.0, init, tol=1e-12)
    oracle = local_ground_state(2.0, 1.0, grid)
    fixed = gauge_fix(res.profile)
    assert np.max(np.abs(fixed.values - oracle.values)) <= 1e-8
    assert res.converged
    assert abs(res.stabilization - 1.0) <= 1e-10


def test_petviashvili_local_fractional_multiplier(lam15):
    """sigma = |xi|^2 at theta = lambda(s) reproduces the closed form."""
    lam = lam15["lam"]
    grid = SpectralGrid(512.0, 8192)  # wide torus: decay rate sqrt(lam) ~ 0.22
    init = Profile(grid, np.exp(-((grid.x / 4.0) ** 2)))
    res = petviashvili_solve(grid, grid.xi**2, lam, 4.0, init, tol=1e-11)
    oracle = local_ground_state(1.5, lam, grid)
    fixed = gauge_fix(res.profile)
    assert np.max(np.abs(fixed.values - oracle.values)) <= 1e-8


def test_petviashvili_renormalized_equation(petviashvili_path, grid_main):
    for n, res in petviashvili_path.items():
        params = ModelParams(S_DEFAULT, n)
        sig = symbol_nN(grid_main.xi, params)
        recomputed = el_residual(grid_main, res.profile.values, sig, res.multiplier, 2 * S_DEFAULT + 1)
        assert recomputed <= 1e-8
        assert res.converged


def test_petviashvili_mass_constraint(petviashvili_path):
    s0 = ModelParams(S_DEFAULT, 0.1).s0
    for res in petviashvili_path.values():
        assert abs(res.profile.mass() - s0) <= 1e-10 * s0


def test_petviashvili_one_padded_nonlinearity_per_iteration(monkeypatch):
    """Each iterate's nonlinearity serves its residual and the next step."""
    import fracnls.solvers as solvers

    calls = []

    def counting(coeffs, fn):
        calls.append(1)
        return pad_evaluate(coeffs, fn)

    monkeypatch.setattr(solvers, "pad_evaluate", counting)
    grid = SpectralGrid(64.0, 1024)
    init = Profile(grid, np.exp(-grid.x**2))
    res = petviashvili_solve(grid, grid.xi**2, 1.0, 5.0, init, tol=1e-10)
    assert res.converged
    assert len(calls) == res.iterations + 1


def test_petviashvili_iteration_makes_two_fine_grid_transforms(monkeypatch):
    """Each iteration pads once: one inverse and one forward transform at 2M, none at M."""
    grid = SpectralGrid(64.0, 1024)
    init = Profile(grid, np.exp(-grid.x**2))
    lengths = count_transforms(monkeypatch)
    counts = []
    for tol in (1e-4, 1e-10):
        lengths.clear()
        res = petviashvili_solve(grid, grid.xi**2, 1.0, 5.0, init, tol=tol)
        counts.append((res.iterations, lengths.count(grid.points), lengths.count(2 * grid.points)))
    (it0, m0, fine0), (it1, m1, fine1) = counts
    assert it1 > it0
    assert fine1 - fine0 == 2 * (it1 - it0)
    assert m1 == m0


def test_petviashvili_requires_positive_denominator():
    grid = SpectralGrid(64.0, 256)
    init = Profile(grid, np.exp(-grid.x**2))
    with pytest.raises(ValueError, match="positive"):
        petviashvili_solve(grid, grid.xi**2, -1.0, 5.0, init)


def test_petviashvili_zero_init_rejected():
    grid = SpectralGrid(64.0, 256)
    with pytest.raises(ValueError, match="nonzero"):
        petviashvili_solve(grid, grid.xi**2, 1.0, 5.0, Profile(grid, np.zeros(256)))


def test_petviashvili_max_iter_error(monkeypatch):
    monkeypatch.setattr(solvers, "_PETVIASHVILI_MAX_ITER", 3)
    grid = SpectralGrid(64.0, 256)
    init = Profile(grid, np.exp(-grid.x**2))
    with pytest.raises(ConvergenceError, match="did not reach tol=1e-12 in 3 iterations"):
        petviashvili_solve(grid, grid.xi**2, 1.0, 5.0, init, tol=1e-12)


# -- gradient flow / descent -------------------------------------------------

def test_descent_matches_closed_form(lam15):
    lam = lam15["lam"]
    grid = SpectralGrid(512.0, 8192)
    oracle = local_ground_state(1.5, lam, grid)
    init = Profile(grid, np.exp(-((grid.x / 4.0) ** 2)))
    res = descend_symbol(grid, grid.xi**2, 4.0, oracle.mass(), init, tol=1e-10)
    fixed = gauge_fix(res.profile)
    assert np.max(np.abs(fixed.values - oracle.values)) <= 1e-8
    assert res.multiplier == pytest.approx(lam, abs=1e-8)


def test_descent_energy_monotone(flow_path):
    for res in flow_path.values():
        e = np.array(res.history["energy"])
        assert np.all(np.diff(e) <= 1e-12 * (1.0 + np.abs(e[:-1])))


def test_flow_requires_s0_mass(grid_desk):
    params = ModelParams(S_DEFAULT, 0.1)
    with pytest.raises(ValueError, match="s0"):
        gradient_flow_minimize("Y_N", 1.0, None, 1e-8, grid=grid_desk, params=params)


def test_flow_unknown_functional(grid_desk):
    params = ModelParams(S_DEFAULT, 0.1)
    with pytest.raises(ValueError, match="functional"):
        gradient_flow_minimize("Z", params.s0, None, 1e-8, grid=grid_desk, params=params)


def test_methods_agree_after_gauge_fix(petviashvili_path, flow_path, grid_main):
    """Petviashvili and descent solve the same problem: 1e-6 L2 agreement."""
    for n in N_PATH:
        a = gauge_fix(petviashvili_path[n].profile)
        b = gauge_fix(flow_path[n].profile)
        dist = np.sqrt(grid_main.h * np.sum(np.abs(a.values - b.values) ** 2))
        assert dist <= 1e-6
        assert abs(petviashvili_path[n].multiplier - flow_path[n].multiplier) <= 1e-8


def test_gradient_flow_reduced_functional(grid_main, flow_path):
    """The I-functional surface returns S_N with the eta multiplier."""
    n = 0.1
    params = ModelParams(S_DEFAULT, n)
    res = gradient_flow_minimize("I", n, flow_path[n].profile, 1e-10, grid=grid_main, params=params)
    assert res.profile.mass() == pytest.approx(n, rel=1e-9)
    eta_expected = 0.5 * S_DEFAULT * (S_DEFAULT - 1.0) * params.kappa**2 * flow_path[n].multiplier
    assert res.multiplier == pytest.approx(eta_expected, rel=1e-6)
    assert res.energy < 0.0
    # energy equals the direct evaluation of I on the S grid
    s_grid = res.profile.grid
    direct = functional_energy(
        s_grid, res.profile.values, symbol_n(s_grid.xi, S_DEFAULT), 2 * S_DEFAULT + 1
    )
    assert res.energy == pytest.approx(direct, rel=1e-10)


# -- fractional ground state and the sharp constant ---------------------------

def test_gn_inequality_on_random_fields(ground_state_15):
    c_s = ground_state_15["C_s"]
    grid = SpectralGrid(64.0, 1024)
    rng = np.random.default_rng(2024)
    s = S_DEFAULT
    for _ in range(100):
        u = smooth_random_profile(grid, rng, width=float(rng.uniform(0.5, 3.0)))
        lhs = lp_norm(u, 2 * s + 2) ** (2 * s + 2)
        kin = quadratic_form(u, np.abs(grid.xi) ** s).real
        rhs = c_s * kin * u.mass() ** s
        assert lhs <= rhs * (1.0 + 1e-12)


def test_gn_near_equality_at_ground_state(ground_state_15):
    q = ground_state_15["Q"]
    c_s = ground_state_15["C_s"]
    s = S_DEFAULT
    lhs = lp_norm(q, 2 * s + 2) ** (2 * s + 2)
    kin = quadratic_form(q, np.abs(q.grid.xi) ** s).real
    ratio = lhs / (c_s * kin * q.mass() ** s)
    assert ratio >= 1.0 - 1e-6
    assert abs(ratio - 1.0) <= 1e-6


def test_ground_state_pohozaev_identities(ground_state_15):
    """M = s T and P = (s+1) T pin the sharp-constant normalization."""
    q = ground_state_15["Q"]
    s = S_DEFAULT
    kin = quadratic_form(q, np.abs(q.grid.xi) ** s).real
    pot = lp_norm(q, 2 * s + 2) ** (2 * s + 2)
    assert q.mass() == pytest.approx(s * kin, rel=1e-6)
    assert pot == pytest.approx((s + 1.0) * kin, rel=1e-6)


def test_ground_state_rejects_s_outside_range():
    for s in (1.0, 2.05):
        with pytest.raises(ValueError, match=r"1 < s <= 2"):
            fractional_ground_state(s, SpectralGrid(256.0, 8192))


# -- continuation ------------------------------------------------------------

def test_continuation_up_down_agree(grid_main, petviashvili_path):
    # the warm-started path and a cold solve from the local profile (the CLI's start) meet
    for n in (0.2, 0.1):
        cold = petviashvili_mass_constrained(grid_main, ModelParams(S_DEFAULT, n), tol=SOLVE_TOL)
        a = gauge_fix(petviashvili_path[n].profile)
        b = gauge_fix(cold.profile)
        dist = np.sqrt(grid_main.h * np.sum(np.abs(a.values - b.values) ** 2))
        assert dist <= 1e-6


def test_continuation_energy_identity(petviashvili_path, grid_main):
    """Y_N(R_N) = s0^{s+1} N^{-(2+s)/(2-s)} I(S_N) to 1e-8 relative."""
    s = S_DEFAULT
    for n, res in petviashvili_path.items():
        params = ModelParams(s, n)
        s_prof = scale_R_to_S(res.profile, params)
        i_val = functional_energy(
            s_prof.grid, s_prof.values, symbol_n(s_prof.grid.xi, s), 2 * s + 1
        )
        scale = params.s0 ** (s + 1.0) * n ** (-(2.0 + s) / (2.0 - s))
        assert res.energy == pytest.approx(scale * i_val, rel=1e-8)


def test_upper_s_smoke_solve():
    """s = 1.6 stands in for the upper smoke point; lambda(1.8) ~ 1.5e-7 puts
    the renormalized profile (width ~ 1/sqrt(lam) ~ 2600) beyond any desk
    torus, with no intermediate-mass regime (the large-kappa limit is
    scale-critical with N-independent mass)."""
    s = 1.6
    _, lam = lambda_of_s(s)
    grid = SpectralGrid(512.0, 4096)
    params = ModelParams(s, 0.2)
    res = petviashvili_mass_constrained(grid, params, tol=1e-10)
    assert res.converged
    assert abs(res.multiplier - lam) <= 0.05 * lam


def test_low_s_smoke_solve():
    s = 1.2
    _, lam = lambda_of_s(s)
    grid = SpectralGrid(64.0, 2048)
    params = ModelParams(s, 0.2)
    res = petviashvili_mass_constrained(grid, params, tol=1e-10)
    assert res.converged
    assert abs(res.multiplier - lam) <= 0.05 * lam


def test_petviashvili_stabilization_at_convergence(petviashvili_path):
    """|M - 1| <= 1e-10 on every converged mass-constrained solve."""
    for res in petviashvili_path.values():
        assert abs(res.stabilization - 1.0) <= 1e-10


def test_petviashvili_degenerate_symbol_reaches_constant_solution(monkeypatch):
    """Near-null symbol modes: convergence requires the stabilization, too.

    With theta ~ 0 the torus problem's attractor is the constant solution
    u = theta^{1/(p-1)}; a residual-only test would declare victory
    mid-collapse with a wild stabilization factor.
    """
    monkeypatch.setattr(solvers, "_PETVIASHVILI_MAX_ITER", 500)
    grid = SpectralGrid(64.0, 256)
    init = Profile(grid, np.exp(-grid.x**2))
    res = petviashvili_solve(grid, grid.xi**2, 1e-30, 5.0, init, tol=1e-12)
    assert res.converged
    assert abs(res.stabilization - 1.0) <= 1e-10
    assert np.ptp(np.abs(res.profile.values)) == 0.0  # the constant solution
    assert np.mean(np.abs(res.profile.values)) == pytest.approx((1e-30) ** 0.25, rel=1e-10)


# -- Newton-MINRES against the secant oracle ---------------------------------

def _th3_start(grid):
    """The first random start of a verify-th3 point, drawn as that stage draws it."""
    rng = np.random.default_rng(20260810)
    return smooth_random_profile(grid, rng, width=float(rng.uniform(1.0, 3.0)))


@pytest.mark.parametrize(
    "s,n,start",
    [(s, n, "local") for s in (1.3, 1.4, 1.5) for n in (0.4, 0.05)] + [(1.5, 0.05, "random")],
)
def test_newton_matches_secant_oracle(grid_desk, s, n, start):
    params = ModelParams(s, n)
    init = _th3_start(grid_desk) if start == "random" else None
    newton = petviashvili_mass_constrained(grid_desk, params, init=init)
    oracle = secant_mass_constrained(grid_desk, params, init=init)
    for res in (newton, oracle):
        assert res.converged
        assert abs(res.stabilization - 1.0) <= 1e-10
    assert abs(newton.multiplier - oracle.multiplier) <= 1e-9 * abs(oracle.multiplier)
    a = gauge_fix(newton.profile).values
    b = gauge_fix(oracle.profile).values
    assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


def test_newton_converges_below_the_regrid_roundoff_floor(grid_desk):
    # a finish that transforms the grid values again floors the residual
    # near 1.2e-11 here; scaling the Fourier iterate keeps Newton's residual
    res = petviashvili_mass_constrained(grid_desk, ModelParams(1.3, 0.1), tol=1e-12)
    assert res.converged and res.residual <= 1e-12


def test_newton_history_per_step(grid_desk):
    # two levels: the coarse grid of spacing 1/8 (512 points), then the requested one
    res = petviashvili_mass_constrained(grid_desk, ModelParams(1.5, 0.1))
    hist = res.history
    points = hist["points"]
    levels = (512, grid_desk.points)
    assert len(hist["theta"]) == len(hist["residual"]) == len(hist["mass_error"]) == len(points)
    assert points == [levels[0]] * points.count(levels[0]) + [levels[1]] * points.count(levels[1])
    steps = [points.count(m) - 1 for m in levels]  # each level logs its start and every step's iterate
    assert min(steps) >= 0 and len(hist["minres_iterations"]) == sum(steps)
    assert 1 <= sum(steps) <= 3
    for last in (steps[0], len(points) - 1):  # each level ends on its stop rule
        assert hist["residual"][last] <= 1e-10 and hist["mass_error"][last] <= 1e-11
    assert res.iterations > sum(hist["minres_iterations"])  # plus the Petviashvili hand-off


def test_mass_constrained_solve_finishes_with_one_padded_nonlinearity(monkeypatch):
    # on the README grid the padded coarse solve meets the stop rule at once: the
    # requested grid sees the restriction of the start and the profile's transform
    # (length M) and the residual check's padded nonlinearity (length 2M), no more
    grid = SpectralGrid(256.0, 16384)
    lengths = count_transforms(monkeypatch)
    res = petviashvili_mass_constrained(grid, ModelParams(1.5, 0.1))
    assert res.converged
    assert (lengths.count(grid.points), lengths.count(2 * grid.points)) == (2, 2)


@pytest.mark.parametrize(
    "s,n,grid_spec,levels,path",
    [
        (1.5, 0.1, (256.0, 16384), (2048, 16384), "coarse start"),
        (1.1, 0.05, (64.0, 4096), (512, 4096), "fallback"),  # the coarse level fails; the fine hand-off converges
    ],
)
def test_a_solve_forms_profiles_only_at_its_ends_and_hand_offs(monkeypatch, s, n, grid_spec, levels, path):
    # a solve forms profiles only at its ends and around each Petviashvili hand-off, and n_N
    # once per grid level it enters: the coarse level and each Newton step's linearization
    # take the DFT coefficients and symbol values the solver holds
    profiles, symbols = [], []
    post_init = Profile.__post_init__

    def counted_profile(self):
        profiles.append(self.grid.points)
        post_init(self)

    def counted_symbol(xi, params):
        symbols.append(xi.shape[0])
        return symbol_nN(xi, params)

    monkeypatch.setattr(Profile, "__post_init__", counted_profile)
    for module in (solvers, linearized):
        monkeypatch.setattr(module, "symbol_nN", counted_symbol)
    res = petviashvili_mass_constrained(SpectralGrid(*grid_spec), ModelParams(s, n))
    assert res.converged
    assert set(res.history["points"]) == (set(levels) if path == "coarse start" else {levels[1]})
    # the start, a profile into and out of each hand-off, the result
    handoffs = [levels[0]] * 2 + ([levels[1]] * 2 if path == "fallback" else [])
    assert profiles == [levels[1], *handoffs, levels[1]]
    assert sorted(symbols) == list(levels)


def _rayleigh_multiplier(grid, values, sig, p):
    """<w - sigma(D)u, u> / <u, u>, with w from a fresh padded nonlinearity of the profile's coefficients."""
    uh = fft(values)
    wh = solvers._nonlinear_term(uh, p)
    return float(np.real(np.sum((wh - sig * uh) * np.conj(uh))) / np.sum(np.abs(uh) ** 2))


def test_finish_matches_the_grid_value_oracles(petviashvili_path, grid_main, lin_solve):
    # the energy as coefficient sums and theta from the scaled nonlinearity agree with
    # the energy functional and the Rayleigh quotient recomputed from the returned profile
    cases = [(grid_main, ModelParams(S_DEFAULT, n), res) for n, res in petviashvili_path.items()]
    cases.append((lin_solve["grid"], lin_solve["params"], lin_solve["result"]))
    for grid, params, res in cases:
        sig = symbol_nN(grid.xi, params)
        p = 2.0 * params.s + 1.0
        oracle = functional_energy(grid, res.profile.values, sig, p)
        assert abs(res.energy - oracle) <= 1e-14 * abs(oracle)
        theta = _rayleigh_multiplier(grid, res.profile.values, sig, p)
        assert abs(res.multiplier - theta) <= 1e-14 * abs(theta)


def test_petviashvili_energy_matches_the_energy_functional(monkeypatch):
    # at a fractional_ground_state solve; by the Pohozaev identities the energy
    # vanishes in the continuum, so the bound is relative to the kinetic term
    solved = []

    def keep(*args, **kwargs):
        solved.append(petviashvili_solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(solvers, "petviashvili_solve", keep)
    s = S_DEFAULT
    fractional_ground_state(s, SpectralGrid(128.0, 2048))
    (res,) = solved
    grid = res.profile.grid
    sig = np.abs(grid.xi) ** s
    oracle = functional_energy(grid, res.profile.values, sig, 2.0 * s + 1.0)
    kinetic = 0.5 * quadratic_form(res.profile, sig)
    assert abs(res.energy - oracle) <= 1e-14 * kinetic
    assert abs(res.energy) <= 1e-4 * kinetic


@pytest.mark.parametrize(
    "s,n,grid_spec,path",
    [
        (1.3, 0.1, (64.0, 4096), "no fine step"),
        (1.1, 0.05, (64.0, 4096), "fallback"),  # the coarse solve fails; the fine hand-off converges
        (1.5, 2.4, (256.0, 16384), "no fine step"),  # the largest mass the README grid solves at s = 1.5
    ],
)
def test_coarse_start_matches_the_fine_handoff(monkeypatch, s, n, grid_spec, path):
    grid = SpectralGrid(*grid_spec)
    params = ModelParams(s, n)
    sequenced = petviashvili_mass_constrained(grid, params)
    monkeypatch.setattr(solvers, "_COARSE_SPACING", 0.0)  # no coarser level: the fine hand-off alone
    fine = petviashvili_mass_constrained(grid, params)
    for res in (sequenced, fine):
        assert res.converged and res.residual <= 1e-10
    assert set(fine.history["points"]) == {grid.points}
    points = sequenced.history["points"]
    if path == "fallback":
        assert set(points) == {grid.points} and sequenced.multiplier == fine.multiplier  # the same path
    else:
        assert points[0] == 8 * grid.length and points.count(grid.points) == 1  # spacing 1/8
    assert abs(sequenced.multiplier - fine.multiplier) <= 1e-9 * abs(fine.multiplier)
    a = gauge_fix(sequenced.profile).values
    b = gauge_fix(fine.profile).values
    assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


@pytest.mark.parametrize(
    "cause,tol,constant,value",
    [
        ("failed to halve", 1e-30, None, None),
        ("MINRES did not converge", 1e-10, "_MINRES_MAXITER", 1),
        ("step cap", 1e-10, "_NEWTON_MAX_STEPS", 1),
    ],
)
def test_newton_failure_is_one_line_with_history(grid_desk, monkeypatch, cause, tol, constant, value):
    if constant is not None:
        # the MINRES cap of the Newton step belongs to linearized.bordered_solve
        owner = linearized if constant == "_MINRES_MAXITER" else solvers
        monkeypatch.setattr(owner, constant, value)
    with pytest.raises(ConvergenceError) as info:
        petviashvili_mass_constrained(grid_desk, ModelParams(1.5, 0.1), tol=tol)
    msg = str(info.value)
    assert cause in msg and "step" in msg and "residual" in msg and "\n" not in msg
    hist = info.value.history
    assert set(hist) == {"theta", "residual", "mass_error", "minres_iterations"}
    assert len(hist["theta"]) == len(hist["residual"]) == len(hist["mass_error"]) >= 1


def test_newton_on_a_collapsed_iterate_names_the_cause():
    # on a torus far narrower than the profile width the hand-off collapses
    # onto a constant, whose symmetry directions iR and dR/dx are dependent
    grid = SpectralGrid(4.0, 256)
    init = Profile(grid, np.ones(grid.points))
    with pytest.raises(ConvergenceError) as info:
        petviashvili_mass_constrained(grid, ModelParams(1.7126254254714588, 0.001), init=init, tol=0.5)
    msg = str(info.value)
    assert "newton step 1" in msg and "collapsed" in msg and "linearly dependent" in msg
    assert "\n" not in msg
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


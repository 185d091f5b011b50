"""Root system, kernel expansion, tails, and the uniform decay bound."""

import math

import numpy as np
import pytest

from fracnls import asymptotics
from fracnls.asymptotics import (
    RootBracketError,
    decay_bound_check,
    far_field_reconstruction,
    find_root_f1,
    kernel_expansion_check,
    tail_fit,
    verify_f2_rootless,
)
from fracnls.asymptotics_roots import f11_on_curve, find_root_translated, radius_of_angle, translated_value
from fracnls.renorm import gauge_fix
from fracnls.solvers import petviashvili_mass_constrained
from fracnls.spectral import Profile, SpectralGrid
from fracnls.symbols import ModelParams, kernel_shift, lambda_of_s, laplace_transform
from conftest import S_DEFAULT, SOLVE_TOL
from oracles import KernelTailSpline, far_field_exact, in_region, window_failure


# -- roots of f1 ---------------------------------------------------------------

def test_root_residual_and_region(lam15):
    p = ModelParams(S_DEFAULT, 0.1)
    root = find_root_f1("+", p, lam15["lam"])
    assert in_region(root)
    assert root.residual <= 1e-12
    assert 0.0 < np.angle(root.y + 1.0) < np.pi / 2.0  # the translated root's open quadrant


def test_root_conjugate_symmetry(lam15):
    p = ModelParams(S_DEFAULT, 0.1)
    plus = find_root_f1("+", p, lam15["lam"])
    minus = find_root_f1("-", p, lam15["lam"])
    assert minus.y == pytest.approx(np.conj(plus.y), rel=1e-12)
    assert minus.residual <= 1e-12
    assert in_region(minus)


def test_root_curve_monotone(lam15):
    """g(phi) = f11(r(phi), phi) decreases on (0, pi/2), as the proof shows."""
    c = kernel_shift(ModelParams(S_DEFAULT, 0.1), lam15["lam"])
    phi = np.linspace(1e-4, np.pi / 2 - 1e-4, 500)
    g = np.array([f11_on_curve(p, S_DEFAULT, c) for p in phi])
    assert np.all(np.diff(g) < 0.0)
    assert g[0] > 0.0 > g[-1]
    assert radius_of_angle(1e-12, S_DEFAULT) == pytest.approx(1.0, rel=1e-9)


def test_root_threshold_failure():
    """Above the mass threshold the bracketing function keeps one sign."""
    p = ModelParams(S_DEFAULT, 1.5)
    # both endpoint values are positive: each starts with a digit, not a minus sign
    with pytest.raises(RootBracketError, match=r"no sign change on \(0, pi/2\): g\([^)]*\)=\d.*, g\(pi/2\)=\d"):
        find_root_f1("+", p, 1.0e4)


@pytest.mark.parametrize("s", [1.2, 1.8])
def test_root_smoke_other_s(s):
    from fracnls.symbols import lambda_of_s

    _, lam = lambda_of_s(s)
    p = ModelParams(s, 0.1)
    root = find_root_f1("+", p, lam)
    assert root.residual <= 1e-12 * (1.0 + abs(root.y) ** s)
    err = abs(root.y / p.kappa - 1j * math.sqrt(lam)) / math.sqrt(lam)
    assert err <= 1e-2


# -- rootlessness of f2 ----------------------------------------------------------

def test_f2_rootless_winding(lam15):
    """f2 winds zero times in both half-planes (criterion 08's windings), and
    the same count finds the one root of the translated f1 on a circle around it."""
    p = ModelParams(S_DEFAULT, 0.1)
    assert [verify_f2_rootless(sign, p, lam15["lam"]) for sign in "+-"] == [0, 0]
    c = kernel_shift(p, lam15["lam"])
    y = find_root_translated(S_DEFAULT, c)
    circle = y + 0.5 * y.imag * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 400))
    assert asymptotics._winding_number(np.array([translated_value(z, S_DEFAULT, c) for z in circle])) == 1


@pytest.mark.parametrize("s", [1.2, 1.8])
def test_f2_rootless_smoke(s):
    from fracnls.symbols import lambda_of_s

    _, lam = lambda_of_s(s)
    assert verify_f2_rootless("+", ModelParams(s, 0.1), lam) == 0


def test_f2_precondition():
    p = ModelParams(S_DEFAULT, 0.5)
    theta_bad = -(S_DEFAULT - 1.0 + 1.0) / kernel_shift(p, 1.0)  # forces s-1+c < 0
    with pytest.raises(ValueError, match="positive"):
        verify_f2_rootless("+", p, theta_bad)


# -- kernel expansion -------------------------------------------------------------

def test_kernel_expansion_check_runs_one_bisection(lam15):
    find_root_translated.cache_clear()
    kernel_expansion_check(ModelParams(S_DEFAULT, 0.1), lam15["lam"])
    info = find_root_translated.cache_info()
    assert info.misses == 1 and info.hits > 0


def test_kernel_expansion_report(lam15, petviashvili_path):
    """The far window starts past the exponential one at N = 0.2 with the solved multiplier."""
    p = ModelParams(S_DEFAULT, 0.2)
    rep = kernel_expansion_check(p, petviashvili_path[0.2].multiplier)
    assert rep["crossover"] > rep["exp_window"][1]


def test_kernel_expansion_remainder_shrinks(lam15):
    """The two-term remainder decays with N on the far window."""
    lam = lam15["lam"]
    rel = []
    for n in (0.2, 0.1):
        p = ModelParams(S_DEFAULT, n)
        rep = kernel_expansion_check(p, lam)
        rel.append(abs(rep["envelope_ratio"] - 1.0) + rep["exp_window_deviation"])
    assert rel[1] <= rel[0] * 1.2  # up to fit noise


def test_kernel_expansion_window_failure():
    """Too-large mass: exponential dominance never develops."""
    with pytest.raises(RuntimeError, match="windows"):
        kernel_expansion_check(ModelParams(S_DEFAULT, 1.8), 5.0)


def test_log_linear_fit_refuses_what_would_be_non_finite():
    t = np.linspace(1.0, 2.0, 10)
    rate, amp, rms = asymptotics._log_linear_fit(t, 3.0 * np.exp(-2.0 * t), "exp_rate")
    assert rate == pytest.approx(2.0) and amp == pytest.approx(3.0) and rms < 1e-12
    with pytest.raises(RuntimeError, match=r"^alg_exponent: 2 of the 10 samples .* are zero$"):
        asymptotics._log_linear_fit(t, np.where(t > 1.85, 0.0, np.exp(-t)), "alg_exponent")
    with pytest.raises(RuntimeError, match=r"^alg_exponent, envelope_ratio: .*amplitude e\^.* overflows$"):
        asymptotics._log_linear_fit(t, np.exp(800.0 - 200.0 * t), "alg_exponent, envelope_ratio")


# -- far-field reconstruction ------------------------------------------------------

def test_reconstruction_matches_grid(petviashvili_path, grid_main):
    n = 0.1
    params = ModelParams(S_DEFAULT, n)
    res = petviashvili_path[n]
    fixed = gauge_fix(res.profile)
    for x0 in (40.0, 56.0):
        i = int(np.argmin(np.abs(grid_main.x - x0)))
        x = np.array([grid_main.x[i]])
        rec = far_field_reconstruction(fixed, params, res.multiplier, x)[0]
        assert abs(rec - fixed.values[i]) <= 1e-6 * abs(fixed.values[i])


def pair_terms(fixed, s, kern, x):
    """The per-pair kernel terms m_N(x - y_j) g_j, g = |R|^{2s} R, of the convolution at x, over the whole grid."""
    return kern(x - fixed.grid.x) * np.abs(fixed.values) ** (2.0 * s) * fixed.values


def fsum_reconstruction(fixed, s, kern, x):
    """The convolution at x as an exactly rounded sum of the per-pair kernel terms."""
    terms = pair_terms(fixed, s, kern, x)
    return complex(math.fsum(terms.real), math.fsum(terms.imag)) * fixed.grid.h / math.sqrt(2.0 * math.pi)


def pairwise_rounding_bound(fixed, s, kern, x):
    """(log2 M + 2) u (h/sqrt(2 pi)) sum_j |term_j|: the rounding error a pairwise sum of the pair terms may make.

    u = 2^-53 is the unit roundoff (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 4.2).
    """
    scale = np.sum(np.abs(pair_terms(fixed, s, kern, x))) * fixed.grid.h / math.sqrt(2.0 * math.pi)
    return (math.log2(fixed.grid.points) + 2.0) * 2.0**-53 * scale


@pytest.mark.parametrize("n", [0.2, 0.1, 0.05])
def test_prefix_sum_reconstruction_matches_exact_pair_sum(petviashvili_path, grid_main, n):
    """The windowed sum of the whole kernel m_N equals fsum of all the pairs to 1e-13.

    The decay-bound abscissae of tail_fit, and one grid node inside the
    torus, where the pair with x - y = 0 takes the w >= 0 branch.
    """
    params = ModelParams(S_DEFAULT, n)
    res = petviashvili_path[n]
    fixed = gauge_fix(res.profile)
    x_bound = np.geomspace(grid_main.length / 3.0, grid_main.length / 1.5, 12)
    x_node = grid_main.x[int(np.argmin(np.abs(grid_main.x - 40.0)))]
    for xs in (x_bound, np.array([x_node])):
        kern = asymptotics._KernelTail(params, res.multiplier, grid_main, xs)
        rec = far_field_reconstruction(fixed, params, res.multiplier, xs)
        for x, r in zip(xs, rec):
            ref = fsum_reconstruction(fixed, params.s, kern, x)
            assert abs(r - ref) <= 1e-13 * abs(ref)


@pytest.fixture(scope="module")
def solves_by_s(petviashvili_path, grid_main):
    """Solves at the benchmark's s and the README verify-th4 masses on the main grid."""
    out = {(S_DEFAULT, n): petviashvili_path[n] for n in (0.2, 0.1, 0.05)}
    for s in (1.3, 1.4):
        for n in (0.2, 0.1, 0.05):
            out[s, n] = petviashvili_mass_constrained(grid_main, ModelParams(s, n), tol=SOLVE_TOL)
    return out


@pytest.mark.parametrize("s", [1.3, 1.4, 1.5])
def test_reconstruction_within_pairwise_rounding_of_exact_pair_sum(solves_by_s, grid_main, s):
    """At the decay-bound abscissae the windowed sum is the fsum of all M pairs to pairwise-sum rounding.

    At s <= 1.4 the pair terms cancel by up to 14 orders there, so only an
    error bound scaled by sum_j |term_j| (not by the result) says anything.
    """
    x_bound = np.geomspace(grid_main.length / 3.0, grid_main.length / 1.5, 12)
    for n in (0.2, 0.1, 0.05):
        params, res = ModelParams(s, n), solves_by_s[s, n]
        fixed = gauge_fix(res.profile)
        kern = asymptotics._KernelTail(params, res.multiplier, grid_main, x_bound)
        rec = far_field_reconstruction(fixed, params, res.multiplier, x_bound)
        for x, r in zip(x_bound, rec):
            exact = fsum_reconstruction(fixed, params.s, kern, x)
            assert abs(r - exact) <= pairwise_rounding_bound(fixed, params.s, kern, x)


def test_branch_cut_window_keeps_a_far_bump(grid_main, lam15):
    """A second bump of the nonlinearity far from its peak stays inside every window.

    The bump sits at y = -70 on the side away from the decay-bound
    abscissae and is a few grid spacings wide, so the oscillating branch
    cut does not cancel over it: its share of the convolution is far above
    the pairwise rounding bound, and a window that dropped it would miss
    the fsum of all the pairs by more than that bound.
    """
    params = ModelParams(S_DEFAULT, 0.2)
    x = grid_main.x
    bump = 0.1 * np.exp(-0.5 * ((x + 70.0) / grid_main.h) ** 2)
    fixed = Profile(grid_main, np.cosh(x) ** (-1.0 / S_DEFAULT) + bump + 0j)
    x_bound = np.geomspace(grid_main.length / 3.0, grid_main.length / 1.5, 12)
    kern = asymptotics._KernelTail(params, lam15["lam"], grid_main, x_bound)
    g = np.abs(fixed.values) ** (2.0 * S_DEFAULT) * fixed.values
    j0, j1 = asymptotics._support_windows(kern, x, g, x_bound)
    i_bump = int(np.argmin(np.abs(x + 70.0)))
    assert np.all(j0 <= i_bump) and np.all(i_bump < j1)
    # each dropped tail's |g|-mass times the |m_N| bound is within half a unit
    # roundoff of the peak term, and one more grid point would break that
    mag, peak = np.abs(g), int(np.argmax(np.abs(g)))
    for xm, lo, hi in zip(x_bound, j0, j1):
        budget = 2.0**-54 * abs(kern(xm - x[peak])) * mag[peak]
        assert math.fsum(mag[:lo]) * kern.bound <= budget * (1.0 + 1e-12)
        assert math.fsum(mag[hi:]) * kern.bound <= budget * (1.0 + 1e-12)
        assert math.fsum(mag[: lo + 1]) * kern.bound > budget
        assert math.fsum(mag[hi - 1 :]) * kern.bound > budget
    rec = far_field_reconstruction(fixed, params, lam15["lam"], x_bound)
    for xm, r in zip(x_bound, rec):
        bound = pairwise_rounding_bound(fixed, params.s, kern, xm)
        assert abs(r - fsum_reconstruction(fixed, params.s, kern, xm)) <= bound
        near_bump = np.abs(x + 70.0) <= 10.0 * grid_main.h
        bump_share = np.sum(kern(xm - x[near_bump]) * g[near_bump]) * grid_main.h / math.sqrt(2.0 * math.pi)
        assert abs(bump_share) > 100.0 * bound


@pytest.mark.parametrize("s", [1.3, 1.4, 1.5])
def test_branch_cut_bound_holds_across_the_table(grid_main, s):
    """|m_N| on a dense sample of |w| over the branch-cut table never exceeds the kernel's `bound`."""
    from fracnls.symbols import lambda_of_s

    x_bound = np.geomspace(grid_main.length / 3.0, grid_main.length / 1.5, 12)
    for n in (0.2, 0.1, 0.05):
        kern = asymptotics._KernelTail(ModelParams(s, n), lambda_of_s(s)[1], grid_main, x_bound)
        w = np.geomspace(*kern._range, 200_001)
        assert np.max(np.abs(kern(np.concatenate([w, -w])))) <= kern.bound


@pytest.mark.parametrize("s,n", [(1.5, 0.1), (1.3, 0.1), (1.2, 0.48)])
def test_hermite_table_matches_the_spline_oracle(grid_main, s, n):
    """At the table's interval midpoints the Hermite rule is closer to the Laplace rule than the spline.

    Both interpolate the same 160 knots of log F; the Hermite rule with the
    Laplace rule's exact first and second derivatives, scipy's not-a-knot
    CubicSpline (oracles.KernelTailSpline) with the slopes of its own
    linear solve.
    """
    params, theta = ModelParams(s, n), lambda_of_s(s)[1]
    x_bound = np.geomspace(grid_main.length / 3.0, grid_main.length / 1.5, 12)
    kern = asymptotics._KernelTail(params, theta, grid_main, x_bound)
    spline = KernelTailSpline(params, theta, grid_main, x_bound)
    mid = kern._start + kern._step * (np.arange(kern._coefficients.shape[1]) + 0.5)
    exact = laplace_transform(s, kernel_shift(params, theta), np.exp(mid) / params.kappa)
    hermite_error = np.max(np.abs(np.exp(kern._log_factor(mid)) / exact - 1.0))
    spline_error = np.max(np.abs(np.exp(spline._log_factor(mid)) / exact - 1.0))
    assert hermite_error <= 1e-3 * spline_error and spline_error <= 3e-7


@pytest.mark.parametrize("s", [1.1, 1.3, 1.5])
def test_hermite_overshoot_stays_inside_the_bound_margin(grid_main, s):
    """The doubling in `bound` covers the Hermite interpolant of the log-modulus between knots.

    On an interval of width h it exceeds the larger knot value by at most
    (16/81) h (|m0| + |m1|) + (54/3125) h^2 (|c0| + |c1|), m and c the
    knot slopes and second derivatives, read here from each interval's
    quintic at tau = 0 and 1; that must stay below log 2.
    """
    x_bound = np.geomspace(grid_main.length / 3.0, grid_main.length / 1.5, 12)
    powers = np.arange(6)[:, None]
    for n in (0.48, 0.2, 0.05):
        kern = asymptotics._KernelTail(ModelParams(s, n), lambda_of_s(s)[1], grid_main, x_bound)
        coef = kern._coefficients.real  # the log-modulus's quintics, in tau
        h_slopes = np.abs(coef[1]) + np.abs(np.sum(powers * coef, axis=0))
        h2_second = np.abs(2.0 * coef[2]) + np.abs(np.sum(powers * (powers - 1) * coef, axis=0))
        excess = 16.0 / 81.0 * h_slopes + 54.0 / 3125.0 * h2_second
        assert np.max(excess) <= 0.15 < math.log(2.0)


def test_far_field_matches_the_exact_pair_sum_at_s_12(grid_main):
    """At s = 1.2, N = 0.48, where the branch cut sets C_min, C_far is the exact pair sum's to 1e-9 relative."""
    params = ModelParams(1.2, 0.48)
    res = petviashvili_mass_constrained(grid_main, params)
    fixed = gauge_fix(res.profile)
    x_bound = np.geomspace(grid_main.length / 3.0, grid_main.length / 1.5, 12)
    rep = decay_bound_check(fixed, params, x_bound, far_field_reconstruction(fixed, params, res.multiplier, x_bound))
    exact = decay_bound_check(fixed, params, x_bound, far_field_exact(fixed, params, res.multiplier, x_bound))
    assert rep["C_far"] == pytest.approx(exact["C_far"], rel=1e-9)


def test_branch_cut_sets_the_decay_bound_at_s_12(grid_main):
    """At s = 1.2, N = 0.48 the far field, branch cut included, sets C_min.

    There the residue part alone stays below C_grid, so a far field that
    dropped the tabulated branch cut would lower C_min; C_far is the
    exact pair sum's over `kernel_pointwise` to the table's accuracy.
    """
    params = ModelParams(1.2, 0.48)
    res = petviashvili_mass_constrained(grid_main, params)
    fixed = gauge_fix(res.profile)
    x_bound = np.geomspace(grid_main.length / 3.0, grid_main.length / 1.5, 12)
    rep = decay_bound_check(fixed, params, x_bound, far_field_reconstruction(fixed, params, res.multiplier, x_bound))
    exact = decay_bound_check(fixed, params, x_bound, far_field_exact(fixed, params, res.multiplier, x_bound))
    assert rep["C_far"] > rep["C_grid"]
    assert rep["C_far"] == pytest.approx(exact["C_far"], rel=1e-8)


# -- tail fits ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def fits(petviashvili_path, local_R):
    return {
        n: tail_fit(petviashvili_path[n], local_R, ModelParams(S_DEFAULT, n)) for n in (0.2, 0.1, 0.05)
    }


@pytest.fixture(scope="module")
def fit01(fits):
    return fits[0.1]


def test_tail_fit_reconstructs_once(petviashvili_path, local_R, monkeypatch):
    """One kernel-tail table, one root bisection and a reconstruction of only
    the decay-bound points per fit."""
    builds, reconstructed = [], []
    build, reconstruct = asymptotics._KernelTail.__init__, asymptotics.far_field_reconstruction

    def counting_build(self, *args):
        builds.append(args)
        build(self, *args)

    def counting_reconstruct(fixed, params, theta, x_points):
        reconstructed.append(len(x_points))
        return reconstruct(fixed, params, theta, x_points)

    monkeypatch.setattr(asymptotics._KernelTail, "__init__", counting_build)
    monkeypatch.setattr(asymptotics, "far_field_reconstruction", counting_reconstruct)
    find_root_translated.cache_clear()
    res, params = petviashvili_path[0.1], ModelParams(S_DEFAULT, 0.1)
    fit = tail_fit(res, local_R, params)
    assert len(builds) == 1
    assert reconstructed == [12]
    assert find_root_translated.cache_info().misses == 1
    # the one table is the one made for the decay-bound points alone
    grid = res.profile.grid
    x_bound = np.geomspace(grid.length / 3.0, grid.length / 1.5, 12)
    fixed = gauge_fix(res.profile)
    own = decay_bound_check(fixed, params, x_bound, reconstruct(fixed, params, res.multiplier, x_bound))
    assert fit.decay_bound == own


def test_far_field_sets_the_decay_bound_at_s_15(fits, petviashvili_path):
    """At s = 1.5 the far field reaches C_grid, and C_far is the fsum oracle's.

    A wrong far field would otherwise hide under C_grid in C_min.
    """
    for n, fit in fits.items():
        rep = fit.decay_bound
        assert rep["C_far"] == pytest.approx(rep["C_grid"], rel=1e-3)
        res, params = petviashvili_path[n], ModelParams(S_DEFAULT, n)
        fixed = gauge_fix(res.profile)
        x_bound = np.geomspace(fixed.grid.length / 3.0, fixed.grid.length / 1.5, 12)
        kern = asymptotics._KernelTail(params, res.multiplier, fixed.grid, x_bound)
        oracle = np.array([fsum_reconstruction(fixed, params.s, kern, x) for x in x_bound])
        assert rep["C_far"] == pytest.approx(decay_bound_check(fixed, params, x_bound, oracle)["C_far"], rel=1e-13)


def test_tail_rate(fit01):
    assert not window_failure(fit01)


def test_tail_amplitude_oracle_value(fit01, lam15, local_R):
    """The oracle is C1/sqrt(2 pi) = 1/(2 sqrt(lam)) times the moment."""
    lam = lam15["lam"]
    rate = math.sqrt(lam)
    grid = local_R.grid
    moment = grid.h * float(
        np.sum(np.exp(rate * grid.x) * np.abs(local_R.values) ** (2 * S_DEFAULT + 1))
    )
    assert fit01.exp_amplitude_oracle == pytest.approx(moment / (2.0 * rate), rel=1e-10)


def test_tail_frozen_phase_algebraic_term(fit01):
    """Exponent s+1 and model coefficient of the branch-cut term."""
    assert abs(fit01.alg_exponent - (S_DEFAULT + 1.0)) <= 5e-2
    assert fit01.alg_coefficient == pytest.approx(fit01.alg_coefficient_model, rel=0.1)


def test_tail_honest_remainder_is_oscillation_damped(fit01, petviashvili_path):
    """The literal algebraic tail term of the profile is unobservably small.

    Honest evaluation of the kernel convolution damps the branch-cut term by
    the spectrum of the nonlinearity at frequency 1/kappa; the frozen-phase
    model term exceeds the measured remainder on the far window by many orders.
    """
    res, params = petviashvili_path[0.1], ModelParams(S_DEFAULT, 0.1)
    fixed = gauge_fix(res.profile)
    xs_far = np.geomspace(*fit01.window_far, 24)
    rec = far_field_reconstruction(fixed, params, res.multiplier, xs_far)
    remainder = np.max(np.abs(rec - fit01.exp_amplitude * np.exp(-fit01.exp_rate * xs_far)))
    model_at_window = fit01.alg_coefficient * fit01.window_far[0] ** (-fit01.alg_exponent)
    assert remainder <= 1e-4 * model_at_window


def test_tail_window_robustness(petviashvili_path, local_R, grid_main, lam15):
    """Rate fit shifts by <= 1% under a 25% window perturbation."""
    res = petviashvili_path[0.1]
    fixed = gauge_fix(res.profile)
    rate_model = math.sqrt(lam15["lam"])
    x_lo, x_hi = 2.0 / rate_model, grid_main.length / 4.0
    rates = []
    for lo, hi in ((x_lo, x_hi), (1.25 * x_lo, x_hi), (x_lo, 0.75 * x_hi)):
        mask = (grid_main.x >= lo) & (grid_main.x <= hi)
        coef = np.polyfit(grid_main.x[mask], np.log(np.abs(fixed.values[mask])), 1)
        rates.append(-coef[0])
    assert abs(rates[1] - rates[0]) / rates[0] <= 1e-2
    assert abs(rates[2] - rates[0]) / rates[0] <= 1e-2


# -- decay bound -------------------------------------------------------------------

def test_decay_bound_trivial_at_origin(petviashvili_path, fit01):
    params = ModelParams(S_DEFAULT, 0.1)
    fixed = gauge_fix(petviashvili_path[0.1].profile)
    rep = fit01.decay_bound
    i0 = int(np.argmin(np.abs(fixed.grid.x)))
    npow = params.N ** (S_DEFAULT * (2 + S_DEFAULT) / (2 - S_DEFAULT))
    assert abs(fixed.values[i0]) <= rep["C_min"] * (1.0 + npow) * (1.0 + 1e-12)


@pytest.mark.parametrize("c_far, c_min", [(2.0, 2.0), (0.25, 0.5)])
def test_decay_bound_check_on_samples(lam15, c_far, c_min):
    """C_min = max(C_grid, C_far) on samples at fixed multiples of the bound."""
    params = ModelParams(S_DEFAULT, 0.1)
    npow = params.N ** (S_DEFAULT * (2 + S_DEFAULT) / (2 - S_DEFAULT))

    def bound(x):
        return np.exp(-math.sqrt(lam15["lam"]) * np.abs(x)) + npow / (1.0 + np.abs(x) ** (S_DEFAULT + 1.0))

    grid = SpectralGrid(64.0, 512)
    x_far = np.geomspace(30.0, 90.0, 7)
    far = c_far * bound(x_far) * np.exp(1j * x_far)
    rep = decay_bound_check(Profile(grid, 0.5 * bound(grid.x) + 0j), params, x_far, far)
    assert rep["C_grid"] == pytest.approx(0.5, rel=1e-14)
    assert rep["C_far"] == pytest.approx(c_far, rel=1e-14)
    assert rep["C_min"] == max(rep["C_grid"], rep["C_far"]) == pytest.approx(c_min, rel=1e-14)


def test_local_profile_exponential_bound(local_R, lam15):
    """|R(x)| <= C e^{-sqrt(lam)|x|} with the closed-form constant."""
    lam = lam15["lam"]
    amp = ((S_DEFAULT + 1.0) * lam) ** (1.0 / (2.0 * S_DEFAULT))
    c_closed = amp * 2.0 ** (1.0 / S_DEFAULT)  # sech^{1/s}(u) <= (2 e^{-|u|})^{1/s}
    grid = local_R.grid
    bound = c_closed * np.exp(-math.sqrt(lam) * np.abs(grid.x))
    assert np.all(np.abs(local_R.values) <= bound * (1.0 + 1e-12))


def test_kernel_expansion_remainder_monotone_in_x(lam15):
    """The algebraic remainder, relative to its model term, decays in |x|."""
    lam = lam15["lam"]
    p = ModelParams(S_DEFAULT, 0.1)
    from fracnls.symbols import kernel_constants, kernel_pointwise

    kc = kernel_constants(p)
    rel = []
    for x in (60.0, 120.0, 240.0, 480.0):
        _, _, alg = kernel_pointwise(x, p, lam, parts=True)
        model = kc["c2_envelope"] * kc["n_power"] / x ** (S_DEFAULT + 1.0)
        rel.append(abs(abs(alg) - model) / model)
    assert all(a >= b * 0.8 for a, b in zip(rel, rel[1:]))  # up to 20% fit noise
    assert rel[-1] <= 1e-2


@pytest.mark.parametrize(
    "s,n", [(1.9, 0.1), (1.05, 2.3e-4)]
)
def test_root_extreme_orders(s, n):
    """Root location across extreme scales (kappa down to 1e-19).

    At s = 1.9, N = 0.1 the shift is ~1e-54 and the root angle ~1e-27;
    the scale-aware geometric bracketing must still land on i kappa
    sqrt(lambda).
    """
    from fracnls.symbols import lambda_of_s

    _, lam = lambda_of_s(s)
    p = ModelParams(s, n)
    root = find_root_f1("+", p, lam)
    assert root.residual <= 1e-12 * (1.0 + abs(root.y) ** s)
    assert in_region(root)
    err = abs(root.y / p.kappa - 1j * math.sqrt(lam)) / math.sqrt(lam)
    assert err <= 1e-2


def test_root_properties_random_parameters():
    """Residual, region membership, and conjugacy across random (s, N, theta)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(1.1, 1.9, allow_nan=False),
        st.floats(0.01, 0.4, allow_nan=False),
        st.floats(0.01, 5.0, allow_nan=False),
    )
    def inner(s, n, theta):
        p = ModelParams(s, n)
        try:
            plus = find_root_f1("+", p, theta)
        except RootBracketError:
            return  # above the root-existence threshold: a reported outcome
        assert plus.residual <= 1e-12 * (1.0 + abs(plus.y) ** s)
        assert in_region(plus)
        minus = find_root_f1("-", p, theta)
        assert minus.y == pytest.approx(np.conj(plus.y), rel=1e-12)

    inner()

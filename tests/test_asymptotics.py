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
from fracnls.asymptotics_roots import f11_on_curve, find_root_translated, radius_of_angle
from fracnls.renorm import gauge_fix
from fracnls.spectral import Profile, make_grid
from fracnls.symbols import ModelParams, kernel_shift
from conftest import S_DEFAULT


def kappa_mass(s, kappa):
    return kappa ** ((2.0 - s) / s)


# -- roots of f1 ---------------------------------------------------------------

def test_root_residual_and_region(lam15):
    p = ModelParams(S_DEFAULT, 0.0, 0.1)
    root = find_root_f1("+", p, lam15["lam"])
    assert root.residual <= 1e-12 * (1.0 + abs(root.y) ** S_DEFAULT)
    assert root.in_region()
    assert 0.0 < root.phi < np.pi / 2.0
    assert root.r == pytest.approx(abs(root.y + 1.0), rel=1e-12)


def test_scaled_root_limit(lam15):
    """y+(N)/kappa -> i sqrt(lam): relative error <= 1e-2 at kappa = 1e-3."""
    lam = lam15["lam"]
    p = ModelParams(S_DEFAULT, 0.0, 0.1)
    assert p.kappa == pytest.approx(1e-3, rel=1e-12)
    root = find_root_f1("+", p, lam)
    err = abs(root.y / p.kappa - 1j * math.sqrt(lam)) / math.sqrt(lam)
    assert err <= 1e-2


def test_root_magnitude_law(lam15):
    """|y(N)| <= C kappa with one fitted constant across three decades."""
    lam = lam15["lam"]
    ratios = []
    for kappa in (1e-2, 1e-3, 1e-4):
        p = ModelParams(S_DEFAULT, 0.0, kappa_mass(S_DEFAULT, kappa))
        root = find_root_f1("+", p, lam)
        ratios.append(abs(root.y) / kappa)
    c_fit = max(ratios)
    for kappa, ratio in zip((1e-2, 1e-3, 1e-4), ratios):
        assert ratio <= c_fit
    assert max(ratios) / min(ratios) <= 1.5


def test_root_conjugate_symmetry(lam15):
    p = ModelParams(S_DEFAULT, 0.0, 0.1)
    plus = find_root_f1("+", p, lam15["lam"])
    minus = find_root_f1("-", p, lam15["lam"])
    assert minus.y == pytest.approx(np.conj(plus.y), rel=1e-12)
    assert minus.residual <= 1e-12
    assert minus.in_region()


def test_root_curve_monotone(lam15):
    """g(phi) = f11(r(phi), phi) decreases on (0, pi/2), as the proof shows."""
    c = kernel_shift(ModelParams(S_DEFAULT, 0.0, 0.1), lam15["lam"])
    phi = np.linspace(1e-4, np.pi / 2 - 1e-4, 500)
    g = f11_on_curve(phi, S_DEFAULT, c)
    assert np.all(np.diff(g) < 0.0)
    assert g[0] > 0.0 > g[-1]
    assert radius_of_angle(1e-12, S_DEFAULT) == pytest.approx(1.0, rel=1e-9)


def test_root_threshold_failure():
    """Above the mass threshold the bracketing function keeps one sign."""
    p = ModelParams(S_DEFAULT, 0.0, 1.5)
    with pytest.raises(RootBracketError) as exc:
        find_root_f1("+", p, 1.0e4)
    assert exc.value.g_lo is not None and exc.value.g_lo > 0
    assert exc.value.g_hi is not None and exc.value.g_hi > 0


@pytest.mark.parametrize("s", [1.2, 1.8])
def test_root_smoke_other_s(s):
    from fracnls.symbols import lambda_of_s

    _, lam = lambda_of_s(s)
    p = ModelParams(s, 0.0, 0.1)
    root = find_root_f1("+", p, lam)
    assert root.residual <= 1e-12 * (1.0 + abs(root.y) ** s)
    err = abs(root.y / p.kappa - 1j * math.sqrt(lam)) / math.sqrt(lam)
    assert err <= 1e-2


# -- rootlessness of f2 ----------------------------------------------------------

def test_f2_rootless_winding(lam15):
    rep = verify_f2_rootless("+", ModelParams(S_DEFAULT, 0.0, 0.1), lam15["lam"])
    assert rep["winding"] == 0
    assert rep["on_axis_min"] > 0.0
    assert rep["off_axis_min"] > 0.0
    rep_minus = verify_f2_rootless("-", ModelParams(S_DEFAULT, 0.0, 0.1), lam15["lam"])
    assert rep_minus["winding"] == 0


@pytest.mark.parametrize("s", [1.2, 1.8])
def test_f2_rootless_smoke(s):
    from fracnls.symbols import lambda_of_s

    _, lam = lambda_of_s(s)
    rep = verify_f2_rootless("+", ModelParams(s, 0.0, 0.1), lam)
    assert rep["winding"] == 0


def test_f2_precondition():
    p = ModelParams(S_DEFAULT, 0.0, 0.5)
    theta_bad = -(S_DEFAULT - 1.0 + 1.0) / kernel_shift(p, 1.0)  # forces s-1+c < 0
    with pytest.raises(ValueError, match="positive"):
        verify_f2_rootless("+", p, theta_bad)


# -- kernel expansion -------------------------------------------------------------

def test_kernel_expansion_check_runs_one_bisection(lam15):
    find_root_translated.cache_clear()
    kernel_expansion_check(ModelParams(S_DEFAULT, 0.0, 0.1), lam15["lam"])
    info = find_root_translated.cache_info()
    assert info.misses == 1 and info.hits > 0


def test_kernel_expansion_report(lam15, petviashvili_path):
    """Window deviations at N = 0.2 with the solved multiplier."""
    p = ModelParams(S_DEFAULT, 0.0, 0.2)
    rep = kernel_expansion_check(p, petviashvili_path[0.2].multiplier)
    assert rep["exp_window_deviation"] <= 2e-2
    assert abs(rep["alg_exponent"] - (S_DEFAULT + 1.0)) <= 5e-2
    assert abs(rep["envelope_ratio"] - 1.0) <= 5e-2
    model_freq = rep["oscillation_frequency_model"]
    assert abs(rep["oscillation_frequency"] / model_freq - 1.0) <= 2e-2
    assert rep["crossover"] > rep["exp_window"][1]


def test_kernel_expansion_scaling_in_mass(lam15):
    """log-log slope of the envelope coefficient vs N ~ s(2+s)/(2-s)."""
    lam = lam15["lam"]
    coeffs, masses = [], (0.2, 0.1, 0.05)
    for n in masses:
        rep = kernel_expansion_check(ModelParams(S_DEFAULT, 0.0, n), lam)
        coeffs.append(rep["alg_coefficient"])
    slope = np.polyfit(np.log(masses), np.log(coeffs), 1)[0]
    expected = S_DEFAULT * (2.0 + S_DEFAULT) / (2.0 - S_DEFAULT)
    assert abs(slope - expected) <= 0.05 * expected


def test_kernel_expansion_remainder_shrinks(lam15):
    """The two-term remainder decays with N on the far window."""
    lam = lam15["lam"]
    rel = []
    for n in (0.2, 0.1):
        p = ModelParams(S_DEFAULT, 0.0, n)
        rep = kernel_expansion_check(p, lam)
        rel.append(abs(rep["envelope_ratio"] - 1.0) + rep["exp_window_deviation"])
    assert rel[1] <= rel[0] * 1.2  # up to fit noise


def test_kernel_expansion_window_failure():
    """Too-large mass: exponential dominance never develops."""
    with pytest.raises(RuntimeError, match="windows"):
        kernel_expansion_check(ModelParams(S_DEFAULT, 0.0, 1.8), 5.0)


# -- far-field reconstruction ------------------------------------------------------

def test_reconstruction_matches_grid(petviashvili_path, grid_main):
    n = 0.1
    params = ModelParams(S_DEFAULT, 0.0, n)
    res = petviashvili_path[n]
    fixed, _, _ = gauge_fix(res.profile)
    for x0 in (40.0, 56.0):
        i = int(np.argmin(np.abs(grid_main.x - x0)))
        x = np.array([grid_main.x[i]])
        kern = asymptotics._KernelTail.covering(grid_main, params, res.multiplier, x)
        rec = far_field_reconstruction(fixed, kern, x)[0]
        assert abs(rec - fixed.values[i]) <= 1e-6 * abs(fixed.values[i])


def fsum_reconstruction(fixed, kern, x):
    """The convolution at x as an exactly rounded sum of the per-pair kernel terms."""
    grid = fixed.grid
    w = x - grid.x
    residue = kern.residue_amp * np.exp(kern.residue_rate * np.abs(w))
    kernel = np.where(w >= 0, residue, np.conj(residue)) + kern.branch_cut(w)
    terms = kernel * np.abs(fixed.values) ** (2.0 * kern.s) * fixed.values
    return complex(math.fsum(terms.real), math.fsum(terms.imag)) * grid.h / math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("n", [0.2, 0.1, 0.05])
def test_prefix_sum_reconstruction_matches_exact_pair_sum(petviashvili_path, grid_main, n):
    """Prefix-summed residue part plus per-pair branch cut equals fsum of the pairs.

    The decay-bound abscissae of tail_fit, and one grid node inside the
    torus, where the pair with x - y = 0 goes on the y <= x side.
    """
    params = ModelParams(S_DEFAULT, 0.0, n)
    res = petviashvili_path[n]
    fixed, _, _ = gauge_fix(res.profile)
    x_bound = np.geomspace(grid_main.length / 3.0, grid_main.length / 1.5, 12)
    x_node = grid_main.x[int(np.argmin(np.abs(grid_main.x - 40.0)))]
    for xs in (x_bound, np.array([x_node])):
        kern = asymptotics._KernelTail.covering(grid_main, params, res.multiplier, xs)
        rec = far_field_reconstruction(fixed, kern, xs)
        for x, r in zip(xs, rec):
            ref = fsum_reconstruction(fixed, kern, x)
            assert abs(r - ref) <= 1e-13 * abs(ref)


# -- tail fits ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def fits(petviashvili_path, local_R):
    return {
        n: tail_fit(petviashvili_path[n], local_R, ModelParams(S_DEFAULT, 0.0, n)) for n in (0.2, 0.1, 0.05)
    }


@pytest.fixture(scope="module")
def fit01(fits):
    return fits[0.1]


def test_tail_fit_reconstructs_once(petviashvili_path, local_R, monkeypatch):
    """One kernel-tail table, one root bisection and a reconstruction of only
    the decay-bound points per fit; the far window is reconstructed on first
    read of far_remainder_max, with the same table."""
    builds, reconstructed = [], []
    build, reconstruct = asymptotics._KernelTail.__init__, asymptotics.far_field_reconstruction

    def counting_build(self, *args):
        builds.append(args)
        build(self, *args)

    def counting_reconstruct(fixed, kern, x_points):
        reconstructed.append((kern, len(x_points)))
        return reconstruct(fixed, kern, x_points)

    monkeypatch.setattr(asymptotics._KernelTail, "__init__", counting_build)
    monkeypatch.setattr(asymptotics, "far_field_reconstruction", counting_reconstruct)
    find_root_translated.cache_clear()
    res, params = petviashvili_path[0.1], ModelParams(S_DEFAULT, 0.0, 0.1)
    fit = tail_fit(res, local_R, params)
    assert len(builds) == 1
    assert [n for _, n in reconstructed] == [12]
    assert find_root_translated.cache_info().misses == 1
    remainder = fit.far_remainder_max
    assert fit.far_remainder_max == remainder
    assert len(builds) == 1
    assert [n for _, n in reconstructed] == [12, fit.n_samples[1]] == [12, 24]
    assert reconstructed[0][0] is reconstructed[1][0]
    # the shared table agrees with one made for the decay-bound points alone
    grid = res.profile.grid
    x_bound = np.geomspace(grid.length / 3.0, grid.length / 1.5, 12)
    fixed = gauge_fix(res.profile)[0]
    own_kern = asymptotics._KernelTail.covering(grid, params, res.multiplier, x_bound)
    own = decay_bound_check(fixed, params, x_bound, reconstruct(fixed, own_kern, x_bound))
    assert fit.decay_bound["C_far"] == pytest.approx(own["C_far"], rel=1e-10)
    assert fit.decay_bound["C_grid"] == own["C_grid"]


def test_tail_rate(fit01, lam15):
    rate = math.sqrt(lam15["lam"])
    assert abs(fit01.exp_rate - rate) / rate <= 2e-2
    assert not fit01.window_failure()
    assert fit01.n_samples[0] >= 20 and fit01.n_samples[1] >= 20


def test_tail_amplitude_against_quadrature_oracle(fit01):
    dev = abs(fit01.exp_amplitude - fit01.exp_amplitude_oracle) / fit01.exp_amplitude_oracle
    assert dev <= 5e-2


def test_tail_amplitude_oracle_value(fit01, lam15, local_R):
    """The oracle is C1/sqrt(2 pi) = 1/(2 sqrt(lam)) times the moment."""
    lam = lam15["lam"]
    rate = math.sqrt(lam)
    grid = local_R.grid
    moment = grid.h * float(
        np.sum(np.exp(rate * grid.x) * np.abs(local_R.values) ** (2 * S_DEFAULT + 1))
    )
    assert fit01.exp_amplitude_oracle == pytest.approx(moment / (2.0 * rate), rel=1e-10)


def test_tail_frozen_phase_algebraic_term(fit01, lam15):
    """Exponent s+1 and 1/kappa frequency of the branch-cut model term."""
    assert abs(fit01.alg_exponent - (S_DEFAULT + 1.0)) <= 5e-2
    kappa = ModelParams(S_DEFAULT, 0.0, 0.1).kappa
    assert abs(fit01.oscillation_frequency * kappa - 1.0) <= 2e-2
    assert fit01.alg_coefficient == pytest.approx(fit01.alg_coefficient_model, rel=0.1)


def test_tail_honest_remainder_is_oscillation_damped(fit01):
    """The literal algebraic tail term of the profile is unobservably small.

    Honest evaluation of the kernel convolution damps the branch-cut term by
    the spectrum of the nonlinearity at frequency 1/kappa; the frozen-phase
    model term exceeds the measured remainder by many orders.
    """
    model_at_window = fit01.alg_coefficient * fit01.window_far[0] ** (-fit01.alg_exponent)
    assert fit01.far_remainder_max <= 1e-4 * model_at_window


def test_tail_window_robustness(petviashvili_path, local_R, grid_main, lam15):
    """Rate fit shifts by <= 1% under a 25% window perturbation."""
    res = petviashvili_path[0.1]
    fixed, _, _ = gauge_fix(res.profile)
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

def test_decay_bound_uniform(fits):
    consts = []
    for n in (0.2, 0.1, 0.05):
        rep = fits[n].decay_bound
        assert rep["C_min"] > 0
        consts.append(rep["C_min"])
    assert max(consts) / min(consts) <= 2.0


def test_decay_bound_trivial_at_origin(petviashvili_path, fit01):
    params = ModelParams(S_DEFAULT, 0.0, 0.1)
    fixed, _, _ = gauge_fix(petviashvili_path[0.1].profile)
    rep = fit01.decay_bound
    i0 = int(np.argmin(np.abs(fixed.grid.x)))
    npow = params.N ** (S_DEFAULT * (2 + S_DEFAULT) / (2 - S_DEFAULT))
    assert abs(fixed.values[i0]) <= rep["C_min"] * (1.0 + npow) * (1.0 + 1e-12)


@pytest.mark.parametrize("c_far, c_min", [(2.0, 2.0), (0.25, 0.5)])
def test_decay_bound_check_on_samples(lam15, c_far, c_min):
    """C_min = max(C_grid, C_far) on samples at fixed multiples of the bound."""
    params = ModelParams(S_DEFAULT, 0.0, 0.1)
    npow = params.N ** (S_DEFAULT * (2 + S_DEFAULT) / (2 - S_DEFAULT))

    def bound(x):
        return np.exp(-math.sqrt(lam15["lam"]) * np.abs(x)) + npow / (1.0 + np.abs(x) ** (S_DEFAULT + 1.0))

    grid = make_grid(64.0, 512)
    x_far = np.geomspace(30.0, 90.0, 7)
    far = c_far * bound(x_far) * np.exp(1j * x_far)
    rep = decay_bound_check(Profile(grid, 0.5 * bound(grid.x) + 0j), params, x_far, far)
    assert rep["C_grid"] == pytest.approx(0.5, rel=1e-14)
    assert rep["C_far"] == pytest.approx(c_far, rel=1e-14)
    assert rep["C_min"] == max(rep["C_grid"], rep["C_far"]) == pytest.approx(c_min, rel=1e-14)
    assert rep["n_power"] == npow


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
    p = ModelParams(S_DEFAULT, 0.0, 0.1)
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
    p = ModelParams(s, 0.0, n)
    root = find_root_f1("+", p, lam)
    assert root.residual <= 1e-12 * (1.0 + abs(root.y) ** s)
    assert root.in_region()
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
        p = ModelParams(s, 0.0, n)
        try:
            plus = find_root_f1("+", p, theta)
        except RootBracketError:
            return  # above the root-existence threshold: a reported outcome
        assert plus.residual <= 1e-12 * (1.0 + abs(plus.y) ** s)
        assert plus.in_region()
        minus = find_root_f1("-", p, theta)
        assert minus.y == pytest.approx(np.conj(plus.y), rel=1e-12)

    inner()

"""Symbols, their inequalities, and the convolution kernel."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from fracnls.asymptotics_roots import n_series
from fracnls.spectral import SpectralGrid
from fracnls.symbols import (
    ModelParams,
    kernel_constants,
    kernel_pointwise,
    kernel_shift,
    laplace_transform,
    symbol_n,
    symbol_nN,
    _branch_cut_integrand,
    _laplace_quad,
)
from conftest import smooth_random_profile
from drift import stationary_point, symbol_mbeta, xi_star
from oracles import (
    apply_multiplier,
    check_lower_bound,
    kernel_grid_samples,
    kernel_realaxis_quadrature,
    kernel_zero_value,
    n_series_out_of_place,
    symbol_n_where,
)


# -- ModelParams -------------------------------------------------------------

def test_params_derived_scalars():
    p = ModelParams(1.5, 0.1)
    assert p.kappa == pytest.approx(0.1**3, rel=1e-14)
    assert p.s0 == pytest.approx((1.5 * 0.5 / 2) ** (-1 / 1.5), rel=1e-14)
    assert p.lam > 0.0


def test_params_validation_gate():
    for s in (1.0, 2.0, 2.05):
        with pytest.raises(ValueError, match="s must lie in"):
            ModelParams(s, 0.1)
    with pytest.raises(ValueError):
        ModelParams(1.5, 0.0)


# -- base symbol n -----------------------------------------------------------

def test_n_at_zero_and_minus_two():
    assert symbol_n(0.0, 1.5) == pytest.approx(0.0, abs=1e-15)
    assert symbol_n(-2.0, 1.5) == pytest.approx(3.0, rel=1e-14)  # 2s
    for s in (1.2, 1.8):
        assert symbol_n(-2.0, s) == pytest.approx(2 * s, rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-50.0, 50.0, allow_nan=False),
    st.floats(1.05, 2.0, allow_nan=False, exclude_max=True),
)
def test_n_nonnegative(xi, s):
    assert symbol_n(xi, s) >= -1e-13 * (1 + abs(xi) ** s)


def test_n_strict_minimum_at_zero():
    xi = np.linspace(-10, 10, 20001)
    vals = symbol_n(xi, 1.5)
    dn = np.diff(vals)
    sign_changes = np.nonzero(np.diff(np.sign(dn)))[0]
    assert len(sign_changes) == 1
    assert abs(xi[sign_changes[0] + 1]) <= 2e-3


def test_n_series_matches_direct_form():
    # stable evaluation must agree with the direct formula where both are safe
    xi = np.linspace(0.2, 0.5, 64)
    direct = np.abs(xi + 1.0) ** 1.5 - 1.5 * xi - 1.0
    assert np.allclose(symbol_n(xi, 1.5), direct, rtol=1e-12)


def test_symbol_n_matches_the_where_form_bitwise():
    # the series on the small entries alone, in place, gives the bits of the series on the whole array
    rng = np.random.default_rng(11)
    mixed = np.concatenate(
        [rng.uniform(-0.5, 0.5, 600), rng.uniform(-60.0, 60.0, 600), [0.0, 0.5, -0.5, np.nextafter(0.5, 1.0), -1.0, -2.0]]
    )
    rng.shuffle(mixed)
    readme_xi = ModelParams(1.5, 0.1).kappa * SpectralGrid(256.0, 16384).xi  # n_N's argument on the README grid
    for s in (1.1, 1.3, 1.5, 1.79):
        for xi in (mixed, 1e-3 * mixed, readme_xi, mixed.reshape(2, -1)):
            assert symbol_n(xi, s).tobytes() == symbol_n_where(xi, s).tobytes()
        for x in (0.0, 0.25, -0.5, 0.5000001, -3.0, 40.0):
            got, want = symbol_n(x, s), symbol_n_where(x, s)
            assert np.ndim(got) == 0
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        disc = 0.5 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
        for z in [0.3 + 0.2j, -0.5 + 0j, 1e-4j, *disc]:  # n_analytic's scalar path
            assert n_series(complex(z), s) == complex(n_series_out_of_place(complex(z), s))


def test_n_rejects_bad_s():
    for s in (1.0, 2.0, 2.5):
        with pytest.raises(ValueError, match="s must lie in"):
            symbol_n(0.0, s)


# -- rescaled symbol n_N -----------------------------------------------------

def test_nN_zero():
    p = ModelParams(1.5, 0.1)
    assert float(symbol_nN(0.0, p)) == pytest.approx(0.0, abs=1e-14)


def test_nN_quadratic_limit_lemma_rate():
    """|n_N(1) - 1| <= C kappa^{3(1-alpha)} / kappa^2 with one fitted C."""
    alpha = 0.25
    s = 1.5
    kappas = (1e-2, 1e-3, 1e-4)
    masses = [k ** ((2 - s) / s) for k in kappas]
    devs = []
    for k, n_mass in zip(kappas, masses):
        p = ModelParams(s, n_mass)
        assert p.kappa == pytest.approx(k, rel=1e-12)
        devs.append(abs(float(symbol_nN(1.0, p)) - 1.0))
    c_fit = devs[0] / (kappas[0] ** (3 * (1 - alpha)) / kappas[0] ** 2)
    for k, dev in zip(kappas, devs):
        bound = 1.05 * c_fit * k ** (3 * (1 - alpha)) / k**2
        assert dev <= bound


def test_nN_coercivity_beyond_cutoff():
    """n(kappa xi) - b kappa^{2-s} |kappa xi|^s >= 0 for |xi| >= kappa^{-alpha}.

    The estimate carries a threshold kappa_0 ~ (s(s-1)/(2b))^{1/((2-s) alpha)}
    (the crossover of the quadratic part against the forced s-power must sit
    below the cutoff); at s = 3/2, b = 2, alpha = 1/4 that is ~1.5e-6, so the
    dense-sampling check runs at kappa = 1e-7, inside the validity region.
    """
    s, b, alpha = 1.5, 2.0, 0.25
    kappa_threshold = (s * (s - 1.0) / (2.0 * b)) ** (1.0 / ((2.0 - s) * alpha))
    kappa = 1e-7
    assert kappa < kappa_threshold
    xi = np.geomspace(kappa**-alpha, 1e12, 4000)
    lhs = symbol_n(kappa * xi, s) - b * kappa ** (2 - s) * np.abs(kappa * xi) ** s
    assert np.all(lhs >= 0.0)
    lhs_neg = symbol_n(-kappa * xi, s) - b * kappa ** (2 - s) * np.abs(kappa * xi) ** s
    assert np.all(lhs_neg >= 0.0)
    # just above the threshold the estimate genuinely fails at the cutoff,
    # which is why the threshold matters
    bad = symbol_n(1e-3 * 1e-3**-alpha, s) - b * 1e-3 ** (2 - s) * (1e-3 ** (1 - alpha)) ** s
    assert bad < 0.0


# -- drift symbol ------------------------------------------------------------

def test_mbeta_stationary_point_exact_cases():
    xs, val = stationary_point(1.5, 0.75)
    assert xs == pytest.approx(1.0, rel=1e-14)
    assert xs == xi_star(1.5, 0.75)
    assert val == pytest.approx(-0.5, rel=1e-14)
    assert stationary_point(1.25, 0.625)[0] == pytest.approx(1.0, rel=1e-14)


def test_mbeta_stationary_point_derived_case():
    beta = 3.0 / 8.0
    xs, val = stationary_point(1.5, beta)
    assert xs == pytest.approx(0.25, rel=1e-13)
    assert val == pytest.approx(-(0.25**1.5) * 0.5, rel=1e-13)
    # cross-check by golden-section minimization of m_beta
    opt = minimize_scalar(
        lambda xi: float(symbol_mbeta(xi, 1.5, beta)), bracket=(0.05, 0.25, 1.0), method="golden",
        options={"xtol": 1e-12},
    )
    assert opt.x == pytest.approx(xs, abs=1e-8)
    assert opt.fun == pytest.approx(val, rel=1e-10)
    # central-difference stationarity
    eps = 1e-6
    deriv = float(symbol_mbeta(xs + eps, 1.5, beta) - symbol_mbeta(xs - eps, 1.5, beta)) / (2 * eps)
    assert abs(deriv) <= 1e-8


def test_mbeta_degenerate_beta():
    for beta in (0.0, -0.1):
        with pytest.raises(ValueError, match="degenerate"):
            stationary_point(1.5, beta)


# -- lower bound with explicit constant --------------------------------------

@pytest.mark.parametrize("a", [0.0, 0.5, 0.9])
def test_lower_bound_verified(a):
    c_a, ok = check_lower_bound(a, 1.5)
    assert ok
    c1 = (2.0 ** (1.5 + 3.0) / (1.0 - a)) ** (1.0 / 0.5)
    assert c_a == pytest.approx((a + 1.0) * c1**1.5, rel=1e-14)


def test_lower_bound_at_zero_frequency():
    c_a, _ = check_lower_bound(0.3, 1.5)
    assert symbol_n(0.0, 1.5) >= -c_a  # left side 0 >= -C(A)


def test_lower_bound_rejects_bad_a():
    with pytest.raises(ValueError):
        check_lower_bound(1.0, 1.5)


# -- kernel ------------------------------------------------------------------

@pytest.fixture(scope="module")
def kernel_setup(lam15):
    p = ModelParams(1.5, 0.1)
    grid = SpectralGrid(64.0, 4096)
    values, symbol = kernel_grid_samples(grid, p, lam15["lam"])
    return {"params": p, "grid": grid, "lam": lam15["lam"], "values": values, "symbol": symbol}


def test_kernel_inverse_property(kernel_setup):
    """Convolving m_N with (n_N(D)+theta)u returns u."""
    symbol = kernel_setup["symbol"]
    grid = kernel_setup["grid"]
    u = smooth_random_profile(grid, np.random.default_rng(5))
    forward = apply_multiplier(u, symbol)
    back = apply_multiplier(forward, 1 / symbol)
    assert np.max(np.abs(back.values - u.values)) <= 1e-10 * np.max(np.abs(u.values))


def test_kernel_zero_value_convention(kernel_setup):
    """m_N(0) = (1/sqrt(2 pi)) integral dxi/(n_N+theta): the unitary convention.

    Two independent continuum evaluators agree at the grid origin; the grid
    sample itself is positive and off only by its spectral truncation.
    """
    p, lam = kernel_setup["params"], kernel_setup["lam"]
    quad_val = kernel_zero_value(p, lam)
    # m_N has |x|^{s-1} continuity at 0, so the one-sided limit needs tiny x
    contour_near_zero = kernel_pointwise(1e-12, p, lam)
    assert contour_near_zero.real == pytest.approx(quad_val, rel=1e-6)
    values = kernel_setup["values"]
    i0 = int(np.argmin(np.abs(kernel_setup["grid"].x)))
    assert values[i0].real > 0.0
    # truncation of the |xi|^{-s} symbol tail beyond the lattice: O(1/ximax)
    ximax = np.pi / kernel_setup["grid"].h
    assert abs(values[i0].real - quad_val) <= 5.0 / ximax


def test_kernel_requires_positive_denominator(kernel_setup):
    with pytest.raises(ValueError, match="nonpositive"):
        kernel_grid_samples(kernel_setup["grid"], kernel_setup["params"], -1e-9)


def test_kernel_midrange_exponential_ratio(lam15):
    """|m_N| / (C1 e^{-sqrt(lam)|x|}) in [0.98, 1.02] on [3, 8] at N = 0.2."""
    p = ModelParams(1.5, 0.2)
    lam = lam15["lam"]
    c1 = kernel_constants(p)["C1"]
    for x in (3.0, 4.5, 6.0, 8.0):
        ratio = abs(kernel_pointwise(x, p, lam)) / (c1 * np.exp(-np.sqrt(lam) * x))
        assert 0.98 <= ratio <= 1.02


def test_kernel_two_evaluators_agree(kernel_setup):
    """Contour-deformed vs real-axis oscillatory quadrature, mid range."""
    p, lam = kernel_setup["params"], kernel_setup["lam"]
    for x in (0.5, 2.0, 5.0, 8.0, -3.0):
        a = kernel_pointwise(x, p, lam)
        b = kernel_realaxis_quadrature(x, p, lam)
        assert abs(a - b) <= 1e-6 * abs(a)


def test_kernel_grid_samples_match_pointwise(kernel_setup):
    """Grid samples at |x| <= L/4 equal the image-summed pointwise kernel."""
    p, lam = kernel_setup["params"], kernel_setup["lam"]
    grid = kernel_setup["grid"]
    values = kernel_setup["values"]
    for x in (2.0, 8.0, 16.0):
        i = int(np.argmin(np.abs(grid.x - x)))
        xs = grid.x[i]
        images = sum(
            kernel_pointwise(xs + j * grid.length, p, lam) for j in (-2, -1, 0, 1, 2)
        )
        assert abs(values[i] - images) <= 1e-6 * abs(images)


def test_kernel_far_envelope_matches_derived_constant(lam15):
    """|x|^{s+1}|m_N - exp part| has envelope |C2| N^{s(2+s)/(2-s)}.

    The verified constant carries s^2 |i^{s+1} + (-i)^{s+1}|; the variant
    with a single s factor disagrees by ~1.77x at s = 3/2 and would not
    vanish in the local limit s = 2.
    """
    p = ModelParams(1.5, 0.1)
    lam = lam15["lam"]
    kc = kernel_constants(p)
    s = p.s
    single_s = (
        abs(s * np.exp(1j * np.pi * (s + 1) / 2.0) + np.exp(-1j * np.pi * (s + 1) / 2.0))
        * math.gamma(s)
        / (2.0 * np.sqrt(2 * np.pi) * (s - 1.0))
    )
    for x in (50.0, 150.0, 400.0):
        _, _, alg = kernel_pointwise(x, p, lam, parts=True)
        env = abs(alg) * x**2.5 / kc["n_power"]
        assert env == pytest.approx(kc["c2_envelope"], rel=5e-2)
        assert abs(env / single_s - 1.0) > 0.5
    # the verified constant vanishes in the local limit, where the kernel
    # tail is purely exponential; the single-s variant does not
    env_at = lambda s: s**2 * math.sin(math.pi * s / 2.0) * math.gamma(s) / (
        np.sqrt(2 * np.pi) * (s - 1.0)
    )
    assert env_at(2.0) == pytest.approx(0.0, abs=1e-12)
    assert env_at(1.999) == pytest.approx(0.0, abs=1e-2)


def test_kernel_no_even_symmetry(kernel_setup):
    """m_N(x) and m_N(-x) differ (symbol not even); Hermitian symmetry holds."""
    p, lam = kernel_setup["params"], kernel_setup["lam"]
    a = kernel_pointwise(3.0, p, lam)
    b = kernel_pointwise(-3.0, p, lam)
    assert a != b
    assert b == pytest.approx(np.conj(a), rel=1e-12)


def test_kernel_pointwise_array_equals_scalar_calls(kernel_setup):
    """One array call gives, bit for bit, the scalar call at each x, parts included."""
    p, lam = kernel_setup["params"], kernel_setup["lam"]
    xs = np.array([-400.0, -3.0, -1e-6, 1e-9, 0.5, 7.0, 150.0, 2e4])
    arrays = kernel_pointwise(xs, p, lam, parts=True)
    scalars = [kernel_pointwise(float(x), p, lam, parts=True) for x in xs]
    for k in range(3):
        assert np.array_equal(arrays[k], np.array([v[k] for v in scalars]))
    assert np.array_equal(kernel_pointwise(xs, p, lam), arrays[0])
    assert np.array_equal(arrays[0][xs < 0], np.conj(kernel_pointwise(-xs[xs < 0], p, lam)))
    assert all(v.shape == () for v in scalars[0])  # a float x gives 0-d arrays
    with pytest.raises(ValueError, match="requires"):
        kernel_pointwise(np.array([1.0, 0.0]), p, lam)


def _laplace_mpmath(s, c, X, dps=30):
    """The branch-cut Laplace integral in 30-digit arithmetic, split at 1/X scales."""
    import mpmath

    with mpmath.workdps(dps):
        s_, c_, X_ = mpmath.mpf(s), mpmath.mpf(c), mpmath.mpf(X)
        ipow, impow = mpmath.expjpi(s_ / 2), mpmath.expjpi(-s_ / 2)

        def f(t):
            fa = ipow * t**s_ - 1j * s_ * t + s_ - 1 + c_
            fb = impow * t**s_ - 1j * s_ * t + s_ - 1 + c_
            return mpmath.exp(-X_ * t) * (impow - ipow) * t**s_ / (fa * fb)

        cuts = sorted({mpmath.mpf(0), mpmath.mpf(1), 1 / X_, 10 / X_, 100 / X_})
        return complex(mpmath.quad(f, cuts + [mpmath.inf]))


def test_laplace_transform_matches_mpmath():
    """Within 1e-12 of 30-digit arithmetic, down to the kernel-tail table's lower end.

    At X = 8.11e-7 the adaptive QUADPACK oracle is off by ~1e-2 relative.
    """
    p = ModelParams(1.4, 0.2)
    c = kernel_shift(p, p.lam)
    xs = np.array([8.11e-7, 1e-3, 3.37, 1e4])
    got = laplace_transform(1.4, c, xs)
    for X, val in zip(xs, got):
        ref = _laplace_mpmath(1.4, c, X)
        assert abs(val - ref) <= 1e-12 * abs(ref)
    oracle = _laplace_quad(lambda t: _branch_cut_integrand(t, 1.4, c), xs[0])
    assert abs(oracle - got[0]) > 1e-3 * abs(got[0])


@pytest.mark.parametrize("s, n", [(1.1, 0.1), (1.3, 0.1), (1.5, 0.1), (1.8, 0.1), (1.05, 0.2)])
def test_laplace_transform_matches_quadpack_oracle(s, n):
    """Within 1e-11 of the adaptive oracle on X in [1e-3, 1e8].

    At s = 1.05, N = 0.2 the pole of the integrand sits 0.3 rad from the
    real axis in log t; a fixed step 0.2 would miss by 3e-4 there.
    """
    p = ModelParams(s, n)
    c = kernel_shift(p, p.lam)
    xs = np.geomspace(1e-3, 1e8, 30)
    got = laplace_transform(s, c, xs)
    want = np.array([_laplace_quad(lambda t: _branch_cut_integrand(t, s, c), float(X)) for X in xs])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11


def test_laplace_transform_raises_no_floating_point_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, n in ((1.05, 0.2), (1.5, 0.1), (1.9, 0.1)):
            p = ModelParams(s, n)
            vals = laplace_transform(s, kernel_shift(p, p.lam), np.geomspace(1e-12, 1e12, 97))
            assert np.all(np.isfinite(vals))
    with pytest.raises(ValueError, match="positive"):
        laplace_transform(1.5, 1e-6, np.array([1.0, -1.0]))


def test_kernel_shift_factor():
    p = ModelParams(1.5, 0.1)
    assert kernel_shift(p, 2.0) == pytest.approx(0.375 * 1e-6 * 2.0, rel=1e-12)

"""Grid, transform, multiplier and quadrature contracts."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import fracnls
from fracnls.spectral import (
    Profile,
    SpectralGrid,
    fft,
    ifft,
    pad_evaluate,
    resample,
    translate,
)
from conftest import smooth_random_profile
from oracles import (
    apply_multiplier,
    fourier_coefficients,
    fourier_restrict,
    lp_norm,
    pad_evaluate_composition,
    quadratic_form,
    sobolev_norm,
    spectral_interpolate,
    zero_pad,
)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m", [1024, 4096, 16384, 32768])
def test_transform_pair_bitwise_equals_numpy(m):
    # the backend contract that keeps records byte-identical; numpy.fft is the oracle
    rng = np.random.default_rng(m)
    field = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    real = rng.standard_normal(m)
    rows = rng.standard_normal((8, m)) + 1j * rng.standard_normal((8, m))  # (k, M), as apply_coefficients passes
    for ours, oracle in ((fft, np.fft.fft), (ifft, np.fft.ifft)):
        assert _same_bits(ours(field), oracle(field))
        assert _same_bits(ours(real), oracle(real))
        assert _same_bits(ours(rows), oracle(rows))


def test_transforms_exist_once():
    # every transform in the package goes through spectral.fft / spectral.ifft
    call = re.compile(r"\b(np|numpy|scipy)\.fft\.i?fft\(")
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(Path(fracnls.__file__).parent.glob("*.py"))
        if path.name != "spectral.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if call.search(line)
    ]
    assert offenders == []


def test_grid_2pi_integer_frequencies():
    g = SpectralGrid(2 * np.pi, 16)
    assert np.allclose(np.sort(g.xi), np.arange(-8, 8), atol=1e-14)


def test_grid_spacing():
    g = SpectralGrid(64.0, 4096)
    assert g.h == 64.0 / 4096
    assert g.h == pytest.approx(0.015625)
    assert np.allclose(np.diff(np.sort(g.x)), g.h)


def test_grid_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        SpectralGrid(64.0, 4095)


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError, match="L must be positive"):
        SpectralGrid(-1.0, 64)
    with pytest.raises(ValueError, match="M must be at least 16"):
        SpectralGrid(10.0, 8)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_transform_roundtrip_and_parseval(seed):
    g = SpectralGrid(48.0, 256)
    u = smooth_random_profile(g, np.random.default_rng(seed))
    coeffs = fourier_coefficients(u)
    back = g.from_fourier_coefficients(coeffs)
    assert np.max(np.abs(back - u.values)) <= 1e-12 * np.max(np.abs(u.values))
    spectral_mass = float(np.sum(np.abs(coeffs) ** 2) * (2.0 * np.pi / g.length))
    assert spectral_mass == pytest.approx(u.mass(), rel=1e-12)


def test_apply_multiplier_identity():
    g = SpectralGrid(32.0, 128)
    u = smooth_random_profile(g, np.random.default_rng(1))
    out = apply_multiplier(u, np.ones_like(g.xi))
    assert np.allclose(out.values, u.values, atol=1e-14)


def test_apply_multiplier_eigenfunction():
    g = SpectralGrid(2 * np.pi, 64)
    u = Profile(g, np.exp(1j * g.x))
    out = apply_multiplier(u, np.abs(g.xi) ** 2)
    assert np.max(np.abs(out.values - u.values)) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_multiplier_composition(seed):
    g = SpectralGrid(32.0, 128)
    rng = np.random.default_rng(seed)
    u = smooth_random_profile(g, rng)
    s1 = 1.0 / (1.0 + g.xi**2)
    s2 = np.cos(g.xi)
    once = apply_multiplier(u, s1 * s2)
    twice = apply_multiplier(apply_multiplier(u, s2), s1)
    assert np.max(np.abs(once.values - twice.values)) <= 1e-12 * np.max(np.abs(u.values))


def test_multiplier_rejects_nonfinite():
    g = SpectralGrid(32.0, 128)
    u = smooth_random_profile(g, np.random.default_rng(2))
    with np.errstate(divide="ignore"):
        singular = 1.0 / g.xi
    with pytest.raises(ValueError, match="non-finite"):
        apply_multiplier(u, singular)


# fractional Laplacian of a Gaussian, |D|^{3/2} e^{-x^2/2}: the oracle is
# direct quadrature of the Fourier integral; values frozen at spot points
GAUSSIAN_FRAC_ORACLE = {
    0.0: 0.86003998732452,
    0.5: 0.61515947991624,
    1.0: 0.11263286405999,
    2.0: -0.31901851769124,
    3.5: -0.06651844735873,
}


def frac_laplacian_gaussian_oracle(x, s=1.5):
    # u_hat(xi) = e^{-xi^2/2}  (unitary transform of e^{-x^2/2})
    f = lambda xi: np.abs(xi) ** s * np.exp(-(xi**2) / 2.0) * np.cos(xi * x) / np.sqrt(2 * np.pi)
    val, _ = quad(f, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13, limit=300)
    return val


def test_fractional_laplacian_gaussian_matches_quadrature():
    # |D|^{3/2} of a Gaussian decays algebraically (|x|^{-5/2}); the torus
    # must be large enough that its periodization sits below the tolerance
    g = SpectralGrid(8192.0, 131072)
    u = Profile(g, np.exp(-g.x**2 / 2.0))
    out = apply_multiplier(u, np.abs(g.xi) ** 1.5)
    for x0, frozen in GAUSSIAN_FRAC_ORACLE.items():
        j = int(np.argmin(np.abs(g.x - x0)))
        assert g.x[j] == pytest.approx(x0, abs=1e-12)
        assert out.values[j].real == pytest.approx(frozen, abs=1e-8)
        assert out.values[j].real == pytest.approx(frac_laplacian_gaussian_oracle(x0), abs=1e-8)
        assert abs(out.values[j].imag) <= 1e-12


def test_oracle_frozen_values_reproduce():
    for x0, frozen in GAUSSIAN_FRAC_ORACLE.items():
        assert frac_laplacian_gaussian_oracle(x0) == pytest.approx(frozen, abs=1e-11)


def test_constant_inner_product_on_unit_grid():
    # <u, u> by the trapezoid rule: a unit constant on a unit torus has mass 1
    g = SpectralGrid(1.0, 16)
    u = Profile(g, np.ones(16))
    assert u.mass() == pytest.approx(1.0, rel=1e-14)


def test_single_mode_quadratic_form():
    g = SpectralGrid(2 * np.pi, 64)
    u = Profile(g, np.exp(1j * g.x))
    q = quadratic_form(u, np.abs(g.xi) ** 1.5)
    # |D|^s eigenvalue 1 on the e^{ix} mode: the form equals the mass
    assert q.real == pytest.approx(u.mass(), rel=1e-12)
    assert abs(q.imag) <= 1e-12 * abs(q.real)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_quadratic_form_is_the_grid_pairing(seed):
    # Parseval: <u, sigma(D) u> = h Re sum conj(u) sigma(D)u for a real symbol and a complex field
    g = SpectralGrid(32.0, 128)
    rng = np.random.default_rng(seed)
    u = Profile(g, rng.standard_normal(g.points) + 1j * rng.standard_normal(g.points))
    for sigma in (np.abs(g.xi) ** 1.5, g.xi, g.xi**2):
        pairing = g.h * float(np.real(np.sum(np.conj(u.values) * apply_multiplier(u, sigma).values)))
        assert quadratic_form(u, sigma) == pytest.approx(pairing, rel=1e-12)


def test_norms_bundle():
    g = SpectralGrid(32.0, 256)
    u = smooth_random_profile(g, np.random.default_rng(7))
    l2 = lp_norm(u, 2.0)
    h0, h1, h2 = (sobolev_norm(u, r) for r in (0.0, 1.0, 2.0))
    assert l2 == pytest.approx(np.sqrt(u.mass()), rel=1e-12)
    assert h0 == pytest.approx(l2, rel=1e-10)
    assert h2 >= h1 >= h0
    assert quadratic_form(u, np.abs(g.xi) ** 1.5).real >= 0.0


def test_norms_grid_mismatch():
    # values sampled on one grid do not make a profile on a grid of another size
    u = smooth_random_profile(SpectralGrid(32.0, 128), np.random.default_rng(0))
    with pytest.raises(ValueError, match="on a grid of 256 points"):
        Profile(SpectralGrid(32.0, 256), u.values)


def test_translate_and_interpolate():
    g = SpectralGrid(32.0, 256)
    u = smooth_random_profile(g, np.random.default_rng(3))
    shifted = translate(u, 0.375)
    vals = spectral_interpolate(u, g.x[:8] - 0.375)
    assert np.max(np.abs(vals - shifted.values[:8])) <= 1e-10


def test_local_profile_mass_matches_quadrature_oracle(lam15, grid_main):
    """||R0||^2 equals the adaptive quadrature of the closed form to 1e-8."""
    from fracnls.solvers import local_ground_state

    r0 = local_ground_state(1.5, 1.0, grid_main)
    assert r0.mass() == pytest.approx(lam15["rho0"], abs=1e-8)


def test_sobolev_fractional_order():
    g = SpectralGrid(2 * np.pi, 64)
    u = Profile(g, np.exp(1j * g.x))
    expected = np.sqrt(2.0 ** (1.5 / 2.0) * u.mass())
    assert sobolev_norm(u, 0.75) == pytest.approx(expected, rel=1e-12)


def test_spectral_refine_band_limited_exact():
    from oracles import spectral_refine

    g = SpectralGrid(32.0, 128)
    u = smooth_random_profile(g, np.random.default_rng(21))
    fine = spectral_refine(u, 4)
    assert fine.grid.points == 512
    assert np.max(np.abs(fine.values[::4] - u.values)) <= 1e-12 * np.max(np.abs(u.values))
    assert fine.mass() == pytest.approx(u.mass(), rel=1e-12)
    with pytest.raises(ValueError, match="power of two"):
        spectral_refine(u, 3)


@pytest.mark.parametrize("factor", [1, 2, 8])
def test_fourier_restrict_left_inverts_zero_pad(factor):
    m = 32
    rng = np.random.default_rng(17)
    noise = rng.standard_normal(m) + 1j * rng.standard_normal(m)  # every mode, Nyquist included
    nyquist = (-1.0) ** np.arange(m) + 0j
    for values in (noise, nyquist):
        back = fourier_restrict(zero_pad(values, factor), factor)
        assert np.max(np.abs(back - values)) <= 1e-14 * np.max(np.abs(values))


def test_fourier_restrict_drops_modes_above_coarse_nyquist():
    j = np.arange(128)
    low = np.exp(2j * np.pi * 5 * j / 128)
    high = np.exp(2j * np.pi * 20 * j / 128)  # above the Nyquist mode 16 of 32 points
    coarse = fourier_restrict(low + high, 4)
    assert coarse.shape == (32,)
    assert np.max(np.abs(coarse - low[::4])) <= 1e-14


@pytest.mark.parametrize("points", [32, 64, 256])
def test_resample_to_a_finer_grid_and_back_is_bitwise(points):
    m = 32
    rng = np.random.default_rng(18)
    vector = rng.standard_normal(m) + 1j * rng.standard_normal(m)  # every mode, Nyquist included
    block = rng.standard_normal((m, 8)) + 1j * rng.standard_normal((m, 8))
    for coeffs in (vector, block):
        fine = resample(coeffs, points)
        assert fine.shape == (points,) + coeffs.shape[1:]
        assert _same_bits(resample(fine, m), coeffs)


def test_resampled_coefficients_sample_the_band_limited_interpolant():
    grid = SpectralGrid(32.0, 128)
    rng = np.random.default_rng(19)
    u = smooth_random_profile(grid, rng)
    k = np.abs(np.fft.fftfreq(grid.points, d=1.0 / grid.points))
    below = Profile(grid, ifft(np.where(k < 16, fft(u.values), 0.0)))  # below the Nyquist mode of 32 points
    for field, points in ((u, 512), (below, 32)):
        target = SpectralGrid(grid.length, points)
        values = ifft(resample(fft(field.values), points))
        oracle = spectral_interpolate(field, target.x)
        assert np.max(np.abs(values - oracle)) <= 1e-12 * np.max(np.abs(field.values))


def test_pad_evaluate_is_bitwise_the_hand_scaled_composition():
    rng = np.random.default_rng(24)
    for m in (16, 512, 4096):
        coeffs = m * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        for fn in (lambda v: v * v, lambda v: np.abs(v) ** 3.0 * v):
            assert _same_bits(pad_evaluate(coeffs, fn), pad_evaluate_composition(coeffs, fn))


def test_pad_evaluate_squares_band_limited_field_exactly():
    """A field band-limited to |k| < M/4 has its square inside the band;
    a field filling the band gets the truncated, unaliased square."""
    m = 256
    k = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    rng = np.random.default_rng(22)
    for cutoff in (m // 4, m // 2):
        band = np.abs(k) < cutoff
        coeffs = np.zeros(m, dtype=complex)
        coeffs[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
        coeffs /= np.max(np.abs(np.fft.ifft(coeffs)))
        out = np.fft.ifft(pad_evaluate(coeffs, lambda v: v * v))
        # oracle: the coefficients of the square by direct convolution
        centred = coeffs[np.arange(1 - cutoff, cutoff) % m]
        conv = np.convolve(centred, centred) / m
        freqs = np.arange(2 - 2 * cutoff, 2 * cutoff - 1)
        kept = (-m // 2 <= freqs) & (freqs < m // 2)
        square = np.zeros(m, dtype=complex)
        square[freqs[kept] % m] = conv[kept]
        assert np.max(np.abs(out - np.fft.ifft(square))) <= 1e-12


def test_pad_evaluate_matches_the_grid_value_composition():
    """On coefficients, pad_evaluate is fft of the padded grid-value evaluation, to roundoff."""
    m = 512
    rng = np.random.default_rng(23)
    for fn in (lambda v: v * v, lambda v: np.abs(v) ** 3.0 * v):
        coeffs = m * (rng.standard_normal(m) + 1j * rng.standard_normal(m))  # fills the band
        oracle = fft(fourier_restrict(fn(zero_pad(ifft(coeffs), 2)), 2))
        out = pad_evaluate(coeffs, fn)
        assert np.max(np.abs(out - oracle)) <= 1e-13 * np.max(np.abs(oracle))


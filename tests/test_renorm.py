"""Changes of variables, multiplier conversions, and gauge fixing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracnls.renorm import gauge_fix
from fracnls.solvers import functional_energy
from fracnls.spectral import Profile, SpectralGrid, translate
from fracnls.symbols import ModelParams, symbol_n
from conftest import S_DEFAULT, smooth_random_profile
import drift
from drift import (
    convert_multipliers,
    full_map_Q_to_R,
    scale_R_to_S,
    scale_S_to_R,
    stationary_point,
    symbol_mbeta,
    tau_beta,
    tau_beta_inverse,
    xi_star,
)

# beta = s/2 makes xi* = 1; the 20 pi torus keeps the drift phase on-lattice
BETA_UNIT = 0.75
GRID_2PI = SpectralGrid(20.0 * np.pi, 1024)


def reduced_params(mass=0.1):
    return ModelParams(S_DEFAULT, mass)


# the energies of the drift reduction are functional_energy at p = 2s + 1:
# E_beta with the symbol m_beta, I with the symbol n
P_DEFAULT = 2.0 * S_DEFAULT + 1.0


def test_snap_is_identity_on_commensurate_grid():
    factor = drift._lattice_factor(GRID_2PI.length)
    assert abs(factor - 1.0) <= 1e-15
    # the snapped xi* = factor and its beta = (s/2) xi*^(s-1) are the ideal ones
    assert 0.5 * S_DEFAULT * factor ** (S_DEFAULT - 1.0) == pytest.approx(BETA_UNIT, rel=1e-14)


def test_snap_reported_on_incommensurate_grid(monkeypatch):
    grid = SpectralGrid(64.0, 256)
    factor = drift._lattice_factor(grid.length)
    assert abs(factor - 1.0) == pytest.approx(abs(2 * np.pi * 10 / 64.0 - 1.0), rel=1e-12)
    u = smooth_random_profile(grid, np.random.default_rng(0))
    monkeypatch.setattr(drift, "_SNAP_TOL", 1e-6)
    with pytest.raises(ValueError, match="off-lattice"):
        tau_beta(u, S_DEFAULT, BETA_UNIT)


def test_tau_beta_requires_positive_beta():
    u = smooth_random_profile(GRID_2PI, np.random.default_rng(0))
    with pytest.raises(ValueError, match="degenerate"):
        tau_beta(u, S_DEFAULT, 0.0)
    with pytest.raises(ValueError, match="degenerate"):
        tau_beta_inverse(u, S_DEFAULT, 0.0)


def test_tau_beta_mass_preservation():
    u = smooth_random_profile(GRID_2PI, np.random.default_rng(1))
    q = tau_beta(u, S_DEFAULT, BETA_UNIT)
    assert q.mass() == pytest.approx(u.mass(), rel=1e-12)


def test_tau_beta_roundtrip():
    u = smooth_random_profile(GRID_2PI, np.random.default_rng(2))
    back = tau_beta_inverse(tau_beta(u, S_DEFAULT, BETA_UNIT), S_DEFAULT, BETA_UNIT)
    assert np.max(np.abs(back.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))
    assert back.grid.length == pytest.approx(GRID_2PI.length, rel=1e-14)


def test_tau_beta_offunit_xi_star():
    """General beta: mass preservation and round trip stay exact on 2 pi Z."""
    beta = 0.4
    u = smooth_random_profile(GRID_2PI, np.random.default_rng(3))
    q = tau_beta(u, S_DEFAULT, beta)
    assert q.grid.length == pytest.approx(GRID_2PI.length / xi_star(S_DEFAULT, beta), rel=1e-14)
    assert q.mass() == pytest.approx(u.mass(), rel=1e-12)
    back = tau_beta_inverse(q, S_DEFAULT, beta)
    assert np.max(np.abs(back.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_lemma_energy_identity_random_fields(seed):
    """E_beta(tau_beta S) = (xi*)^s I(S) + m_beta(xi*) mass/2, any profile."""
    rng = np.random.default_rng(seed)
    u = smooth_random_profile(GRID_2PI, rng, width=float(rng.uniform(1.0, 2.5)))
    q = tau_beta(u, S_DEFAULT, BETA_UNIT)
    lhs = functional_energy(q.grid, q.values, symbol_mbeta(q.grid.xi, S_DEFAULT, BETA_UNIT), P_DEFAULT)
    xs, m_star = stationary_point(S_DEFAULT, BETA_UNIT)
    rhs = xs**S_DEFAULT * functional_energy(u.grid, u.values, symbol_n(u.grid.xi, S_DEFAULT), P_DEFAULT)
    rhs += m_star * u.mass() / 2.0
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def test_lemma_energy_identity_general_beta():
    beta = 0.4
    u = smooth_random_profile(GRID_2PI, np.random.default_rng(9))
    q = tau_beta(u, S_DEFAULT, beta)
    xs, m_star = stationary_point(S_DEFAULT, beta)
    lhs = functional_energy(q.grid, q.values, symbol_mbeta(q.grid.xi, S_DEFAULT, beta), P_DEFAULT)
    rhs = xs**S_DEFAULT * functional_energy(u.grid, u.values, symbol_n(u.grid.xi, S_DEFAULT), P_DEFAULT)
    rhs += m_star * u.mass() / 2.0
    assert lhs == pytest.approx(rhs, rel=1e-8)


# -- mass rescaling ----------------------------------------------------------

def test_scale_maps_mass():
    grid = SpectralGrid(64.0, 512)
    params = ModelParams(S_DEFAULT, 0.1)
    s_prof = smooth_random_profile(grid, np.random.default_rng(4), mass=params.N)
    r_prof = scale_S_to_R(s_prof, params)
    assert r_prof.mass() == pytest.approx(params.s0, rel=1e-12)
    back = scale_R_to_S(r_prof, params)
    assert np.max(np.abs(back.values - s_prof.values)) <= 1e-12
    assert back.grid.length == pytest.approx(grid.length, rel=1e-13)


def test_scale_energy_map(petviashvili_path, grid_main):
    # exercised in detail in test_solvers; here the inverse direction
    n = 0.2
    params = ModelParams(S_DEFAULT, n)
    res = petviashvili_path[n]
    s_prof = scale_R_to_S(res.profile, params)
    i_val = functional_energy(s_prof.grid, s_prof.values, symbol_n(s_prof.grid.xi, S_DEFAULT), 4.0)
    scale = params.s0 ** (S_DEFAULT + 1.0) * n ** (-(2.0 + S_DEFAULT) / (2.0 - S_DEFAULT))
    assert res.energy == pytest.approx(scale * i_val, rel=1e-8)


# -- composite map -----------------------------------------------------------

def _direct_map(q_prof, params, beta):
    """Direct evaluation of the composite rescaling/demodulation.

    R_N(x) = s0^{1/2} N^{-1/(2-s)} (xi*)^{-1/2} e^{-i x/kappa} Q(x/(kappa xi*)),
    with the phase e^{-i x/kappa} (the drift phase demodulated in the
    rescaled variable).
    """
    s = params.s
    xs = xi_star(s, beta)
    amp = math.sqrt(params.s0) * params.N ** (-1.0 / (2.0 - s)) / math.sqrt(xs)
    new_grid = SpectralGrid(q_prof.grid.length * xs * params.kappa, q_prof.grid.points)
    phase = np.exp(-1j * new_grid.x / params.kappa)
    return Profile(new_grid, amp * phase * q_prof.values)


def test_full_map_composite_equals_direct():
    params = reduced_params()
    u = smooth_random_profile(GRID_2PI, np.random.default_rng(5), mass=params.N)
    q = tau_beta(u, S_DEFAULT, BETA_UNIT)
    composite = full_map_Q_to_R(q, params, BETA_UNIT)
    direct = _direct_map(q, params, BETA_UNIT)
    assert composite.grid.length == pytest.approx(direct.grid.length, rel=1e-13)
    assert np.max(np.abs(composite.values - direct.values)) <= 1e-10 * np.max(np.abs(direct.values))


def test_full_map_output_mass():
    params = reduced_params()
    u = smooth_random_profile(GRID_2PI, np.random.default_rng(6), mass=params.N)
    q = tau_beta(u, S_DEFAULT, BETA_UNIT)
    assert full_map_Q_to_R(q, params, BETA_UNIT).mass() == pytest.approx(params.s0, rel=1e-10)


def test_full_map_recovers_renormalized_minimizer(grid_main, petviashvili_path, lam15):
    """Map a solved R_N out to Q_{beta,N} and back: identity, and close to R."""
    from fracnls.solvers import local_ground_state

    n = 0.05
    params = ModelParams(S_DEFAULT, n)
    r_n = petviashvili_path[n].profile
    s_prof = scale_R_to_S(r_n, params)
    q_prof = tau_beta(s_prof, S_DEFAULT, BETA_UNIT)
    back = full_map_Q_to_R(q_prof, params, BETA_UNIT)
    assert np.max(np.abs(back.values - r_n.values)) <= 1e-10 * np.max(np.abs(r_n.values))
    fixed = gauge_fix(back)
    base = local_ground_state(S_DEFAULT, lam15["lam"], grid_main)
    rel = np.sqrt(grid_main.h * np.sum(np.abs(fixed.values - base.values) ** 2) / base.mass())
    assert rel <= 5e-2


# -- multiplier conversions ---------------------------------------------------

def test_convert_multipliers_worked_example():
    """s = 3/2, beta = 3/4, theta = 2 -> eta = 3/4, gamma = 5/4 (at N = 1).

    The eta <-> theta relation carries the mass factor N^{2s/(2-s)}, which
    is 1 at unit mass, where the textbook numbers apply.
    """
    params = ModelParams(S_DEFAULT, 1.0)
    trip = convert_multipliers(params, BETA_UNIT, theta=2.0)
    assert trip.eta == pytest.approx(0.75, rel=1e-14)
    assert trip.gamma == pytest.approx(1.25, rel=1e-14)
    assert trip.check()
    # the mass factor is visible away from N = 1
    trip_small = convert_multipliers(reduced_params(0.1), BETA_UNIT, theta=2.0)
    assert trip_small.eta == pytest.approx(0.75 * 0.1**6, rel=1e-13)


def test_convert_multipliers_lambda_case(lam15):
    lam = lam15["lam"]
    trip = convert_multipliers(ModelParams(S_DEFAULT, 1.0), BETA_UNIT, theta=lam)
    expected_gamma = 1.0 ** S_DEFAULT * (0.375 * lam + 0.5)
    assert trip.gamma == pytest.approx(expected_gamma, rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.floats(-5.0, 5.0, allow_nan=False), st.floats(0.1, 3.0, allow_nan=False))
def test_convert_multipliers_roundtrip_unit_mass(theta, beta):
    params = ModelParams(S_DEFAULT, 1.0)
    trip = convert_multipliers(params, beta, theta=theta)
    back = convert_multipliers(params, beta, gamma=trip.gamma)
    assert back.theta == pytest.approx(theta, rel=1e-12, abs=1e-12)
    back2 = convert_multipliers(params, beta, eta=trip.eta)
    assert back2.gamma == pytest.approx(trip.gamma, rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(-5.0, 5.0, allow_nan=False), st.floats(0.1, 3.0, allow_nan=False))
def test_convert_multipliers_roundtrip_small_mass(theta, beta):
    """gamma -> theta at small N resolves an O(kappa^2 theta) deviation of
    gamma from (xi*)^s (s-1), so the round trip carries an intrinsic
    eps/kappa^2 conditioning floor (~1e-10 at N = 0.1)."""
    params = ModelParams(S_DEFAULT, 0.1)
    trip = convert_multipliers(params, beta, theta=theta)
    back = convert_multipliers(params, beta, gamma=trip.gamma)
    assert back.theta == pytest.approx(theta, rel=1e-8, abs=1e-8)
    back2 = convert_multipliers(params, beta, eta=trip.eta)
    assert back2.gamma == pytest.approx(trip.gamma, rel=1e-12, abs=1e-12)


def test_convert_multipliers_argument_contract():
    with pytest.raises(ValueError, match="exactly one"):
        convert_multipliers(reduced_params(), BETA_UNIT, theta=1.0, eta=1.0)
    # beta = 0 is refused from each of the three entry points
    with pytest.raises(ValueError, match="beta > 0"):
        convert_multipliers(reduced_params(), 0.0, gamma=1.0)
    with pytest.raises(ValueError, match="beta > 0"):
        convert_multipliers(reduced_params(), 0.0, eta=1.0)
    with pytest.raises(ValueError, match="beta > 0"):
        convert_multipliers(reduced_params(), 0.0, theta=1.0)


# -- gauge fixing -------------------------------------------------------------

def test_gauge_fix_recovers_shift_and_phase(grid_desk):
    base = smooth_random_profile(grid_desk, np.random.default_rng(7))
    fixed0 = gauge_fix(base)
    moved = translate(fixed0, 3.21875)  # lattice-friendly shift
    rotated = Profile(grid_desk, np.exp(1j * 0.9) * moved.values)
    # the fixed profile undoes both the shift and the phase
    fixed = gauge_fix(rotated)
    assert np.max(np.abs(fixed.values - fixed0.values)) <= 1e-10 * np.max(np.abs(fixed0.values))


def test_gauge_fix_idempotent(grid_desk):
    u = smooth_random_profile(grid_desk, np.random.default_rng(8))
    fixed = gauge_fix(u)
    again = gauge_fix(fixed)
    assert np.max(np.abs(again.values - fixed.values)) <= 1e-12 * np.max(np.abs(fixed.values))


def test_gauge_fix_zero_profile(grid_desk):
    with pytest.raises(ValueError, match="zero"):
        gauge_fix(Profile(grid_desk, np.zeros(grid_desk.points)))


def test_gauge_fix_output_properties(petviashvili_path, grid_main):
    fixed = gauge_fix(petviashvili_path[0.1].profile)
    dens = np.abs(fixed.values) ** 2
    z = np.sum(dens * np.exp(2j * np.pi * grid_main.x / grid_main.length))
    assert abs(np.angle(z)) <= 1e-9
    zero_mode = np.sum(fixed.values)
    assert zero_mode.real > 0
    assert abs(zero_mode.imag) <= 1e-9 * zero_mode.real


def test_beta_sweep_smoke(petviashvili_path, lam15):
    """Finite drift sweep: the reduction is beta-independent end to end.

    One renormalized solve serves every beta: the converted gamma(beta, N)
    satisfies the drifted-equation multiplier formula and converts back, and
    the drift-transform energy identity holds at each beta on the
    commensurate torus (the continuum-in-beta uniformity claim is not
    testable on a lattice).
    """
    theta = petviashvili_path[0.1].multiplier
    rng = np.random.default_rng(31)
    u = smooth_random_profile(GRID_2PI, rng, mass=0.1)
    for beta in (0.3, 0.75, 1.5, 3.0):
        params = ModelParams(S_DEFAULT, 0.1)
        trip = convert_multipliers(params, beta, theta=theta)
        xs = xi_star(S_DEFAULT, beta)
        assert trip.gamma == pytest.approx(
            xs**S_DEFAULT
            * (0.5 * S_DEFAULT * (S_DEFAULT - 1.0) * params.kappa**2 * theta + S_DEFAULT - 1.0),
            rel=1e-13,
        )
        # gamma -> theta at N = 0.1 carries the eps/kappa^2 conditioning floor
        assert convert_multipliers(params, beta, gamma=trip.gamma).theta == pytest.approx(theta, rel=1e-7)
        q = tau_beta(u, S_DEFAULT, beta)
        xs_pt, m_star = stationary_point(S_DEFAULT, beta)
        lhs = functional_energy(q.grid, q.values, symbol_mbeta(q.grid.xi, S_DEFAULT, beta), P_DEFAULT)
        rhs = xs_pt**S_DEFAULT * functional_energy(u.grid, u.values, symbol_n(u.grid.xi, S_DEFAULT), P_DEFAULT)
        rhs += m_star * u.mass() / 2.0
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)


def test_traveling_wave_equation_end_to_end(lam15):
    """The mapped-out profile solves the original drifted equation.

    Solve the renormalized problem, rescale to the beta-independent
    minimizer, apply the drift transform, convert the multiplier, and check
    the drifted Euler-Lagrange equation
        (|D|^s - 2 beta D + gamma) Q = |Q|^{2s} Q
    directly on the torus.  This closes the whole reduction chain at the
    equation level.
    """
    from fracnls.solvers import petviashvili_mass_constrained
    from oracles import spectral_refine

    s = S_DEFAULT
    params = ModelParams(s, 0.1)
    # renormalized torus chosen so the mapped-out S grid is 2 pi Z
    m_lat = 40744
    grid_r = SpectralGrid(2.0 * np.pi * m_lat * params.kappa, 16384)
    solved = petviashvili_mass_constrained(grid_r, params, tol=1e-11)
    s_prof = scale_R_to_S(solved.profile, params)
    q_prof = tau_beta(spectral_refine(s_prof, 8), s, BETA_UNIT)
    trip = convert_multipliers(params, BETA_UNIT, theta=solved.multiplier)

    g = q_prof.grid
    qh = np.fft.fft(q_prof.values)
    sym = np.abs(g.xi) ** s - 2.0 * BETA_UNIT * g.xi + trip.gamma
    lhs = np.fft.ifft(sym * qh)
    rhs = np.abs(q_prof.values) ** (2.0 * s) * q_prof.values
    residual = np.linalg.norm(lhs - rhs) / np.linalg.norm(q_prof.values)
    assert residual <= 1e-8
    # and the drifted energy is reproduced by the reduction identity
    xs, m_star = stationary_point(s, BETA_UNIT)
    lhs_e = functional_energy(q_prof.grid, q_prof.values, symbol_mbeta(q_prof.grid.xi, s, BETA_UNIT), P_DEFAULT)
    rhs_e = xs**s * functional_energy(s_prof.grid, s_prof.values, symbol_n(s_prof.grid.xi, s), P_DEFAULT)
    rhs_e += m_star * s_prof.mass() / 2.0
    assert lhs_e == pytest.approx(rhs_e, rel=1e-10)

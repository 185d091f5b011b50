"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single machine-readable line
    [criterion NN] PASS|FAIL  <measured quantities>
so a -s run shows the full scorecard; assertions carry the same numbers.
"""

import json
import math

import numpy as np

from fracnls.asymptotics import (
    find_root_f1,
    kernel_expansion_check,
    tail_fit,
    verify_f2_rootless,
)
from fracnls.cli import RunConfig, emit_outputs, run
from fracnls.linearized import (
    build_linearized,
    constrained_solve,
    kernel_diagnostics,
    local_limit_operators,
)
from fracnls.renorm import convert_multipliers, gauge_fix, scale_R_to_S, tau_beta
from fracnls.solvers import (
    el_residual,
    fractional_ground_state,
    functional_energy,
    local_ground_state,
    petviashvili_mass_constrained,
    petviashvili_solve,
)
from fracnls.spectral import Profile, derivative, lp_norm, make_grid, quadratic_form, sobolev_norm
from fracnls.symbols import ModelParams, stationary_point, symbol_mbeta, symbol_n, symbol_nN
from conftest import N_PATH, S_DEFAULT, smooth_random_profile
from oracles import descend_symbol


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_01_closed_form_oracle_equivalence():
    """Both solvers reproduce the sech-power closed form; quintic mass check."""
    grid = make_grid(64.0, 4096)
    oracle = local_ground_state(S_DEFAULT, 1.0, grid)
    init = Profile(grid, np.exp(-grid.x**2))
    petv = petviashvili_solve(grid, grid.xi**2, 1.0, 2 * S_DEFAULT + 1, init, tol=1e-12)
    fixed_p, _, _ = gauge_fix(petv.profile)
    err_p = float(np.max(np.abs(fixed_p.values - oracle.values)))
    flow = descend_symbol(grid, grid.xi**2, 2 * S_DEFAULT + 1, oracle.mass(), init, tol=1e-11)
    fixed_f, _, _ = gauge_fix(flow.profile)
    err_f = float(np.max(np.abs(fixed_f.values - oracle.values)))
    q5, _, mass5 = fractional_ground_state(2.0, grid, validation=True)
    err_mass = abs(mass5 - np.pi * np.sqrt(3.0) / 2.0)
    ok = err_p <= 1e-8 and err_f <= 1e-8 and err_mass <= 1e-6
    report(
        1, ok,
        f"petviashvili Linf {err_p:.2e} (<=1e-8), flow Linf {err_f:.2e} (<=1e-8), "
        f"quintic mass err {err_mass:.2e} (<=1e-6)",
    )


def test_criterion_02_euler_lagrange_residual(petviashvili_path, flow_path, grid_main):
    worst = 0.0
    for n in N_PATH:
        params = ModelParams(S_DEFAULT, 0.0, n)
        sig = symbol_nN(grid_main.xi, params)
        for res in (petviashvili_path[n], flow_path[n]):
            r = el_residual(grid_main, res.profile.values, sig, res.multiplier, 2 * S_DEFAULT + 1)
            worst = max(worst, r)
    ok = worst <= 1e-8
    report(2, ok, f"max relative EL residual over 8 solves: {worst:.2e} (<=1e-8)")


def test_criterion_03_multiplier_limit(petviashvili_path, lam15):
    lam = lam15["lam"]
    gaps = [abs(petviashvili_path[n].multiplier - lam) for n in sorted(N_PATH, reverse=True)]
    mono = all(a > b for a, b in zip(gaps, gaps[1:]))
    small = gaps[-1] <= 2e-2 * lam
    ok = mono and small
    report(
        3, ok,
        f"|theta_N - lambda| = {['%.3e' % g for g in gaps]} monotone={mono}, "
        f"last {gaps[-1]:.2e} <= {2e-2 * lam:.2e}",
    )


def test_criterion_04_profile_limit(petviashvili_path, local_R, grid_main):
    norm_l2 = math.sqrt(local_R.mass())
    norm_h1 = sobolev_norm(local_R, 1.0)
    d_l2, d_h1 = [], []
    for n in sorted(N_PATH, reverse=True):
        fixed, _, _ = gauge_fix(petviashvili_path[n].profile)
        diff = Profile(grid_main, fixed.values - local_R.values)
        d_l2.append(math.sqrt(diff.mass()) / norm_l2)
        d_h1.append(sobolev_norm(diff, 1.0) / norm_h1)
    mono_l2 = all(a > b for a, b in zip(d_l2, d_l2[1:]))
    mono_h1 = all(a > b for a, b in zip(d_h1, d_h1[1:]))
    ok = mono_l2 and mono_h1 and d_l2[-1] <= 5e-2
    report(
        4, ok,
        f"L2 distances {['%.2e' % d for d in d_l2]} monotone={mono_l2}; "
        f"H1 monotone={mono_h1}; last {d_l2[-1]:.2e} <= 5e-2",
    )


def test_criterion_05_reduction_identities():
    """Energy identity on a solved minimizer and random profiles; multiplier maps."""
    from fracnls.spectral import spectral_refine

    params = ModelParams(S_DEFAULT, 0.75, 0.1)
    grid = make_grid(20.0 * np.pi, 2048)
    rng = np.random.default_rng(55)
    xs, m_star = stationary_point(params)
    p = 2.0 * S_DEFAULT + 1.0

    def energy_beta(u):  # E_beta: the energy with the drift symbol m_beta
        return functional_energy(u.grid, u.values, symbol_mbeta(u.grid.xi, params), p)

    def energy_reduced(u):  # I: the beta-independent energy with the symbol n
        return functional_energy(u.grid, u.values, symbol_n(u.grid.xi, S_DEFAULT), p)

    worst_energy = 0.0
    for _ in range(20):
        u = smooth_random_profile(grid, rng, width=float(rng.uniform(1.0, 2.5)))
        lhs = energy_beta(tau_beta(u, params))
        rhs = xs**S_DEFAULT * energy_reduced(u) + m_star * u.mass() / 2.0
        worst_energy = max(worst_energy, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    # solved minimizer: pick the renormalized torus so the mapped-out S grid
    # is lattice-commensurate (L_S = L_R / kappa a multiple of 2 pi), and
    # refine past the drift frequency before modulating
    m_lat = 40744
    l_r = 2.0 * np.pi * m_lat * params.kappa
    grid_r = make_grid(l_r, 16384)
    solved = petviashvili_mass_constrained(grid_r, params, tol=1e-11)
    s_solved = scale_R_to_S(solved.profile, params)
    s_fine = spectral_refine(s_solved, 8)
    lhs = energy_beta(tau_beta(s_fine, params))
    rhs = xs**S_DEFAULT * energy_reduced(s_solved) + m_star * s_solved.mass() / 2.0
    worst_solved = abs(lhs - rhs) / abs(rhs)
    worst_rt = 0.0
    # round trips at unit mass, where the gamma -> theta direction is
    # well conditioned (the worked conversions of the reduction live there;
    # at small N the inverse resolves an O(kappa^2 theta) deviation and
    # carries an intrinsic eps/kappa^2 floor)
    params_unit = ModelParams(S_DEFAULT, 0.75, 1.0)
    for theta in (-2.0, 0.0492, 1.0, 17.0):
        trip = convert_multipliers(params_unit, theta=theta)
        back = convert_multipliers(params_unit, gamma=trip.gamma)
        worst_rt = max(worst_rt, abs(back.theta - theta) / max(abs(theta), 1.0))
        assert trip.check()
        trip_small = convert_multipliers(params, theta=theta)
        assert trip_small.check()
        back_eta = convert_multipliers(params, eta=trip_small.eta)
        worst_rt = max(worst_rt, abs(back_eta.theta - theta) / max(abs(theta), 1.0))
    ok = worst_energy <= 1e-8 and worst_solved <= 1e-8 and worst_rt <= 1e-12
    report(
        5, ok,
        f"energy identity: random fields {worst_energy:.2e}, solved {worst_solved:.2e} "
        f"(<=1e-8); multiplier round trips {worst_rt:.2e} (<=1e-12)",
    )


def test_criterion_06_uniqueness_probe():
    grid = make_grid(64.0, 4096)
    params = ModelParams(S_DEFAULT, 0.0, 0.05)
    rng = np.random.default_rng(606)
    fixed = []
    for _ in range(5):
        init = smooth_random_profile(grid, rng, width=float(rng.uniform(1.0, 3.0)), mass=params.s0)
        res = petviashvili_mass_constrained(grid, params, init=init, tol=1e-11)
        fixed.append(gauge_fix(res.profile)[0])
    dmax = 0.0
    for i in range(5):
        for j in range(i + 1, 5):
            d = math.sqrt(grid.h * float(np.sum(np.abs(fixed[i].values - fixed[j].values) ** 2)))
            dmax = max(dmax, d)
    ok = dmax <= 1e-6
    report(6, ok, f"max pairwise L2 distance over 5 random initializations: {dmax:.2e} (<=1e-6)")


def test_criterion_07_linearized_diagnostics(lin_solve, lam15):
    op = build_linearized(lin_solve["result"], lin_solve["params"])
    rep = kernel_diagnostics(op)
    two = len(rep.near_zero) == 2
    corr = min(rep.correlations)
    # local-limit identity L+ R = -2s (|D|^2 + lam) R
    lam = lam15["lam"]
    grid = make_grid(256.0, 2048)
    base = local_ground_state(S_DEFAULT, lam, grid)
    lp, _ = local_limit_operators(S_DEFAULT, lam, grid, base)
    lhs = lp.apply(base.values.real)
    rhs = -2.0 * S_DEFAULT * (
        np.fft.ifft(grid.xi**2 * np.fft.fft(base.values.real)).real + lam * base.values.real
    )
    ident = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    # constrained-solve round trip
    rng = np.random.default_rng(7)
    g = smooth_random_profile(op.grid, rng).values
    r = op.profile.values
    cols = [np.concatenate([d.real, d.imag]) for d in (1j * r, derivative(op.profile).values)]
    cmat = np.stack(cols, axis=1)
    vec = np.concatenate([g.real, g.imag])
    vec -= cmat @ np.linalg.solve(cmat.T @ cmat, cmat.T @ vec)
    g = vec[: op.grid.points] + 1j * vec[op.grid.points :]
    sol, _ = constrained_solve(op, Profile(op.grid, op.apply(g)))
    rt = float(np.linalg.norm(sol.values - g) / np.linalg.norm(g))
    ok = two and corr >= 0.999 and ident <= 1e-8 and rt <= 1e-8
    report(
        7, ok,
        f"kernel dim {len(rep.near_zero)} (=2), correlation {corr:.6f} (>=0.999), "
        f"L+ identity {ident:.2e} (<=1e-8), constrained round trip {rt:.2e} (<=1e-8)",
    )


def test_criterion_08_root_system(lam15):
    lam = lam15["lam"]
    p_mid = ModelParams(S_DEFAULT, 0.0, 0.1)
    root = find_root_f1("+", p_mid, lam)
    res_ok = root.residual <= 1e-12 * (1.0 + abs(root.y) ** S_DEFAULT)
    limit_err = abs(root.y / p_mid.kappa - 1j * math.sqrt(lam)) / math.sqrt(lam)
    ratios = []
    for kappa in (1e-2, 1e-3, 1e-4):
        p = ModelParams(S_DEFAULT, 0.0, kappa ** ((2 - S_DEFAULT) / S_DEFAULT))
        for sign in ("+", "-"):
            ratios.append(abs(find_root_f1(sign, p, lam).y) / kappa)
    spread = max(ratios) / min(ratios)
    windings = [
        verify_f2_rootless(sign, p_mid, lam)["winding"] for sign in ("+", "-")
    ]
    ok = res_ok and limit_err <= 1e-2 and spread <= 1.5 and all(w == 0 for w in windings)
    report(
        8, ok,
        f"residual {root.residual:.1e} (<=1e-12), scaled-root err {limit_err:.2e} (<=1e-2), "
        f"|y|/kappa spread {spread:.3f} (single constant), windings {windings}",
    )


def test_criterion_09_kernel_expansion(petviashvili_path, lam15):
    rep = kernel_expansion_check(ModelParams(S_DEFAULT, 0.0, 0.2), petviashvili_path[0.2].multiplier)
    win = rep["exp_window_deviation"]
    expo = abs(rep["alg_exponent"] - (S_DEFAULT + 1.0))
    freq = abs(rep["oscillation_frequency"] / rep["oscillation_frequency_model"] - 1.0)
    coeffs, masses = [], (0.2, 0.1, 0.05)
    for n in masses:
        coeffs.append(
            kernel_expansion_check(ModelParams(S_DEFAULT, 0.0, n), lam15["lam"])["alg_coefficient"]
        )
    slope = float(np.polyfit(np.log(masses), np.log(coeffs), 1)[0])
    expected = S_DEFAULT * (2.0 + S_DEFAULT) / (2.0 - S_DEFAULT)
    slope_dev = abs(slope - expected) / expected
    ok = win <= 2e-2 and expo <= 5e-2 and slope_dev <= 5e-2 and freq <= 2e-2
    report(
        9, ok,
        f"exp window dev {win:.2e} (<=2e-2), exponent dev {expo:.2e} (<=5e-2), "
        f"coefficient slope {slope:.3f} vs {expected} ({slope_dev:.2e}<=5e-2), freq dev {freq:.2e} (<=2e-2)",
    )


def test_criterion_10_profile_tails(petviashvili_path, local_R, lam15):
    lam = lam15["lam"]
    fits = {
        n: tail_fit(petviashvili_path[n], local_R, ModelParams(S_DEFAULT, 0.0, n)) for n in (0.2, 0.1, 0.05)
    }
    fit = fits[0.1]
    rate_dev = abs(fit.exp_rate - math.sqrt(lam)) / math.sqrt(lam)
    amp_dev = abs(fit.exp_amplitude - fit.exp_amplitude_oracle) / fit.exp_amplitude_oracle
    consts = []
    for n in (0.2, 0.1, 0.05):
        consts.append(fits[n].decay_bound["C_min"])
    uniform = max(consts) / min(consts)
    ok = rate_dev <= 2e-2 and amp_dev <= 5e-2 and uniform <= 2.0
    report(
        10, ok,
        f"tail rate dev {rate_dev:.2e} (<=2e-2), amplitude dev {amp_dev:.2e} (<=5e-2), "
        f"decay-bound constant spread {uniform:.3f} (<=2)",
    )


def test_criterion_11_variational_structure(flow_path, ground_state_15):
    energies = {}
    for n, res in flow_path.items():
        params = ModelParams(S_DEFAULT, 0.0, n)
        scale = params.s0 ** (S_DEFAULT + 1.0) * n ** (-(2.0 + S_DEFAULT) / (2.0 - S_DEFAULT))
        energies[n] = res.energy / scale
    vals = [energies[n] for n in sorted(energies)]
    negative = all(v < 0 for v in vals)
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    q, c_s = ground_state_15["Q"], ground_state_15["C_s"]
    grid = make_grid(64.0, 1024)
    rng = np.random.default_rng(1111)
    gn_ok = True
    for _ in range(100):
        u = smooth_random_profile(grid, rng, width=float(rng.uniform(0.5, 3.0)))
        lhs = lp_norm(u, 2 * S_DEFAULT + 2) ** (2 * S_DEFAULT + 2)
        rhs = c_s * quadratic_form(u, lambda xi: np.abs(xi) ** S_DEFAULT).real * u.mass() ** S_DEFAULT
        gn_ok = gn_ok and lhs <= rhs * (1 + 1e-12)
    lhs_q = lp_norm(q, 2 * S_DEFAULT + 2) ** (2 * S_DEFAULT + 2)
    rhs_q = c_s * quadratic_form(q, lambda xi: np.abs(xi) ** S_DEFAULT).real * q.mass() ** S_DEFAULT
    ratio = lhs_q / rhs_q
    near = ratio >= 1.0 - 1e-6
    ok = negative and decreasing and gn_ok and near
    report(
        11, ok,
        f"I(N) {['%.4e' % v for v in vals]} negative={negative} decreasing={decreasing}; "
        f"GN holds on 100 fields={gn_ok}; equality ratio at Q = {ratio:.9f} (>=1-1e-6)",
    )


def test_criterion_12_determinism(tmp_path):
    def cfg(workers, tag):
        return RunConfig(
            command="solve",
            s_list=(1.5,),
            n_list=(0.2, 0.1),
            grid_l=64.0,
            grid_m=512,
            tol=1e-9,
            cache_dir=str(tmp_path / f"cache-{tag}"),
            output_dir=str(tmp_path / f"out-{tag}"),
            workers=workers,
        )

    def emit(config):
        record = run(config)
        out = {}
        for p in emit_outputs(record, config):
            if not p.name.endswith(".meta.json"):
                out[p.suffix] = p.read_bytes()
        return record, out

    _, serial = emit(cfg(1, "serial"))
    _, parallel = emit(cfg(2, "parallel"))
    points_s = json.loads(serial[".json"])["points"]
    points_p = json.loads(parallel[".json"])["points"]
    same_sp = points_s == points_p and serial[".csv"] == parallel[".csv"]
    replay_cfg = cfg(1, "serial")
    _, replay = emit(replay_cfg)
    same_replay = replay == serial
    ok = same_sp and same_replay
    report(
        12, ok,
        f"serial==parallel points: {same_sp}; cache replay byte-identical: {same_replay}",
    )

import math
from dataclasses import replace

import numpy as np
import pytest

from qfact import dbb
from qfact.dbb import (
    ExpConfig,
    PlaneWaveSum,
    TwoWaveState,
    amplitude,
    default_kappa,
    extended_born_check,
    guided_momentum,
    guided_velocity,
    ionization_kick,
    quantum_force,
    quantum_potential,
    run_trace,
    simulate_exp,
    straight_line_positions,
    trace_angles,
)
from qfact.errors import NodeSingularityError
from qfact.seeding import trial_generator

ELECTRON = dict(v12=1.0e6, theta0=0.1, delta_phase=0.3, m0=9.109e-31)


@pytest.fixture
def wave():
    return TwoWaveState.from_corpuscle_speed(**ELECTRON)


def zero_of_amplitude(s):
    # chi z + delta/2 = pi/2
    return (math.pi / 2 - s.delta_phase / 2) / s.chi


# --- amplitude --------------------------------------------------------------

def test_amplitude_maximum(wave):
    z_max = -wave.delta_phase / (2 * wave.chi)
    assert amplitude(wave, z_max) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_amplitude_node(wave):
    assert amplitude(wave, zero_of_amplitude(wave)) == pytest.approx(0.0, abs=1e-6)


def test_amplitude_periodicity(wave, rng):
    for z in rng.uniform(-1e-9, 1e-9, size=10):
        period = 2 * math.pi / wave.chi
        assert amplitude(wave, z + period) == \
            pytest.approx(amplitude(wave, z), rel=1e-9, abs=1e-12)


# --- guidance ---------------------------------------------------------------

def test_guided_velocity_zero_half_angle():
    s = TwoWaveState.from_corpuscle_speed(v12=1e6, theta0=0.0,
                                          delta_phase=0.0, m0=9.109e-31)
    assert guided_velocity(s) == pytest.approx([0.0, 0.0, 0.0])


def test_guided_velocity_linear_in_sin_theta():
    s1 = TwoWaveState.from_corpuscle_speed(v12=1e6, theta0=0.05,
                                           delta_phase=0.0, m0=9.109e-31)
    theta2 = math.asin(2 * math.sin(0.05))
    s2 = TwoWaveState.from_corpuscle_speed(v12=1e6, theta0=theta2,
                                           delta_phase=0.0, m0=9.109e-31)
    assert guided_velocity(s2)[0] == pytest.approx(2 * guided_velocity(s1)[0],
                                                   rel=1e-12)


def test_guided_velocity_matches_phase_gradient(wave):
    # independent route: v = -c^2 grad(phi) / (dphi/dt) by central differences.
    # The total phase is linear in x and t, so wide steps are exact and avoid
    # cancellation against the huge absolute phase.
    x0, z0, t0 = 1.0e-7, 2.0e-10, 3.0e-12
    dx, dt = 1.0e-3, 1.0e-9
    dphi_dx = (wave.total_phase(x0 + dx, z0, t0)
               - wave.total_phase(x0 - dx, z0, t0)) / (2 * dx)
    dphi_dt = (wave.total_phase(x0, z0, t0 + dt)
               - wave.total_phase(x0, z0, t0 - dt)) / (2 * dt)
    v_x = -wave.c ** 2 * dphi_dx / dphi_dt
    assert v_x == pytest.approx(guided_velocity(wave)[0], rel=1e-9)


def test_guided_momentum_is_mass_times_velocity(wave):
    assert guided_momentum(wave) == pytest.approx(
        wave.M * guided_velocity(wave), rel=1e-15)


def test_guided_momentum_zero_half_angle():
    s = TwoWaveState.from_corpuscle_speed(v12=1e6, theta0=0.0,
                                          delta_phase=0.0, m0=9.109e-31)
    assert guided_momentum(s) == pytest.approx([0.0, 0.0, 0.0])


def test_guided_momentum_is_half_branch_sum(wave):
    # analytic phase gradient of the factorized field: the x-component common
    # to both branches, i.e. half the pair sum p1 + p2
    p1, p2 = wave.branch_momenta()
    assert guided_momentum(wave) == pytest.approx((p1 + p2) / 2, rel=1e-12)


# --- quantum potential and force ----------------------------------------------

def test_quantum_potential_constant_off_nodes(wave):
    q1 = quantum_potential(wave, 1.3e-10)
    q2 = quantum_potential(wave, -2.7e-10)
    assert q1 == pytest.approx(q2, rel=1e-12)


def test_quantum_force_zero_everywhere(wave, rng):
    for z in rng.uniform(-1e-9, 1e-9, size=50):
        assert quantum_force(wave, z) == 0.0
    assert quantum_force(wave, zero_of_amplitude(wave)) == 0.0


def test_quantum_potential_scales_as_chi_squared():
    s1 = TwoWaveState.from_corpuscle_speed(v12=1e6, theta0=0.1,
                                           delta_phase=0.0, m0=9.109e-31)
    s2 = TwoWaveState.from_corpuscle_speed(v12=2e6, theta0=0.1,
                                           delta_phase=0.0, m0=9.109e-31)
    ratio = s2.chi / s1.chi
    assert quantum_potential(s2, 0.0) == pytest.approx(
        ratio ** 2 * quantum_potential(s1, 0.0), rel=1e-9)


def test_quantum_potential_node_singularity(wave):
    with pytest.raises(NodeSingularityError):
        quantum_potential(wave, zero_of_amplitude(wave))


# --- kicks and traces ---------------------------------------------------------

def test_kick_zero_phase_change():
    assert ionization_kick(0.0, 1e-15) == 0.0


def test_kick_sign_opposes_phase_change():
    assert ionization_kick(0.5, 2.0) == -1.0
    assert ionization_kick(-0.5, 2.0) == 1.0


def test_default_kappa_hand_evaluation(wave):
    # frozen arithmetic: h^2 chi / (4 pi c^2 m0^2) for the electron fixture
    h, c, m0 = wave.h, wave.c, wave.m0
    by_hand = (h * h) * wave.chi / (4.0 * math.pi * c * c * m0 * m0)
    assert default_kappa(wave) == pytest.approx(by_hand, rel=1e-15)
    assert default_kappa(wave) == pytest.approx(4.0266e-15, rel=1e-4)


def test_trace_angles_all_zero_kicks():
    assert trace_angles([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]) == \
        pytest.approx([0.0, 0.0, 0.0])


def test_trace_angles_single_kick():
    assert trace_angles([0.5], [2.0]) == pytest.approx([math.atan(0.25)])


def test_trace_angles_accumulate():
    got = trace_angles([0.1, -0.1], [1.0, 1.0])
    assert got == pytest.approx([math.atan(0.1), 0.0])


def test_trace_mean_zero_and_inverse_lambda_scaling(wave):
    # Monte Carlo over the symmetric kick law: mean gamma -> 0, and the mean
    # magnitude of the first-step angle scales as 1/lambda
    n = 100_000
    gen = np.random.default_rng(12)
    kappa = default_kappa(wave)
    kicks = -kappa * gen.uniform(-math.pi / 2, math.pi / 2, size=n)
    lam0 = 1.0e-6
    means = []
    for factor in (1.0, 2.0, 4.0, 8.0):
        gammas = np.arctan(kicks / (factor * lam0))
        means.append(np.mean(np.abs(gammas)))
    sigma_mean = np.std(np.abs(np.arctan(kicks / lam0))) / math.sqrt(n)
    assert abs(np.mean(np.arctan(kicks / lam0))) <= 3 * sigma_mean
    slope = np.polyfit(np.log([1, 2, 4, 8]), np.log(means), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


# --- the experiment -----------------------------------------------------------

def test_exp_no_kicks_reproduces_guided_momentum(wave):
    cfg = ExpConfig(lambda_sep=1e-6, kappa=0.0, n_trials=2_000)
    summary = simulate_exp(wave, cfg, 21)
    assert summary.sigma_px == 0.0
    assert summary.mean_estimated_p == pytest.approx(guided_momentum(wave))
    assert summary.mean_estimated_p[2] == 0.0
    # all direction angles exactly zero: full mass in the central bin
    centers = (summary.direction_hist.edges[:-1]
               + summary.direction_hist.edges[1:]) / 2
    central = np.argmin(np.abs(centers))
    assert summary.direction_hist.mass[central] == pytest.approx(1.0)


def test_exp_phase_relation_conserved(wave):
    cfg = ExpConfig(lambda_sep=1e-6, n_trials=30_000)
    summary = simulate_exp(wave, cfg, 99)
    assert summary.phase_relation_conserved
    assert summary.fringe_hist.mass.sum() == pytest.approx(1.0, abs=1e-9)


def test_exp_momentum_unimodal_no_mass_at_branch_directions(wave):
    cfg = ExpConfig(lambda_sep=1e-6, n_trials=30_000)
    summary = simulate_exp(wave, cfg, 99)
    edges, mass = summary.direction_hist.edges, summary.direction_hist.mass
    centers = (edges[:-1] + edges[1:]) / 2
    near_zero = np.abs(centers) < 0.1 * wave.theta0
    near_branches = np.abs(np.abs(centers) - wave.theta0) < 0.1 * wave.theta0
    assert mass[near_zero].sum() == pytest.approx(1.0, abs=1e-9)
    assert mass[near_branches].sum() == 0.0
    assert summary.direction_hist.mass.sum() == pytest.approx(1.0, abs=1e-9)


def test_exp_heisenberg_product(wave):
    cfg = ExpConfig(lambda_sep=1e-6, n_trials=10_000)
    summary = simulate_exp(wave, cfg, 5)
    assert summary.sigma_px == 0.0
    assert summary.sigma_z > 0.0
    assert summary.heisenberg_product < summary.hbar_half


def test_exp_lambda_table_slope(wave):
    cfg = ExpConfig(lambda_sep=1e-6, n_trials=100_000)
    summary = simulate_exp(wave, cfg, 31)
    lams, gammas = zip(*summary.lambda_table)
    slope = np.polyfit(np.log(lams), np.log(gammas), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_exp_counter_mode_reproducible(wave):
    cfg = ExpConfig(lambda_sep=1e-6, n_trials=5_000)
    s1 = simulate_exp(wave, cfg, 77)
    s2 = simulate_exp(wave, cfg, 77)
    assert np.array_equal(s1.fringe_hist.mass, s2.fringe_hist.mass)
    assert np.array_equal(s1.direction_hist.mass, s2.direction_hist.mass)
    assert s1.sigma_z == s2.sigma_z


def test_run_trace_record(wave):
    cfg = ExpConfig(lambda_sep=1e-6, n_trials=1)
    rec = run_trace(wave, cfg, np.random.default_rng(4))
    assert len(rec.ionizations) == 2
    (r1, t1), (r2, t2) = rec.ionizations
    assert t2 > t1
    assert rec.estimated_p[0] == pytest.approx(guided_momentum(wave)[0], rel=1e-12)
    assert rec.gammas.shape == (1,)


def test_run_trace_honours_kick_law(wave):
    # one trial has at most two kicks, each within kappa * kick_half_width
    # under the uniform law; the normal law must leave that support
    def kicks(law):
        cfg = ExpConfig(lambda_sep=1e-6, kick_law=law, n_trials=1)
        out = []
        for seed in range(32):
            (r1, _), (r2, _) = run_trace(wave, cfg, seed).ionizations
            out.append(abs(r2[2] - r1[2]))
        return np.array(out)

    support = 2 * default_kappa(wave) * ExpConfig(lambda_sep=1e-6).kick_half_width
    assert np.all(kicks("uniform") <= support)
    assert np.any(kicks("normal") > support)


def test_straight_line_trajectory_exact(wave):
    r0 = np.array([1.0e-7, 0.0, 2.0e-10])
    times = np.linspace(0.0, 1e-11, 101)
    pos = straight_line_positions(wave, r0, times)
    v = guided_velocity(wave)
    # independent incremental integration under zero quantum force
    z_kept = pos[:, 2]
    assert np.all(z_kept == r0[2])
    stepped = r0[0]
    dt = times[1] - times[0]
    for k in range(1, len(times)):
        stepped += v[0] * dt + 0.5 * quantum_force(wave, z_kept[k]) / wave.m0 * dt ** 2
    closed = r0[0] + v[0] * times[-1]
    assert stepped == pytest.approx(closed, rel=1e-12)
    assert pos[-1, 0] == pytest.approx(closed, rel=1e-15)


def test_fringe_sampling_density(wave):
    # sampled z histogram tracks the squared amplitude
    n = 200_000
    z = dbb._sample_fringe(wave, trial_generator(8, 0), n, n_periods=2)
    lo, hi = wave.fringe_window(2)
    counts, edges = np.histogram(z, bins=80, range=(lo, hi))
    centers = (edges[:-1] + edges[1:]) / 2
    density = dbb.fringe_density(wave, centers)
    expected = density / density.sum() * n
    # chi-square-ish bound: every bin within 5 sigma of expectation
    ok = np.abs(counts - expected) <= 5 * np.sqrt(expected + 1)
    assert ok.all()


# --- plane-wave sums ----------------------------------------------------------

def test_plane_wave_sum_rejects_repeated_momentum():
    # weights 1 and -1 on one momentum make |psi|^2 vanish everywhere, and a
    # rejection sampler would never accept a position
    with pytest.raises(ValueError, match=r"momentum \[1\.0, 0\.0, 2\.0\]"):
        PlaneWaveSum(components=((1.0, (1, 0, 2)), (-1.0, (1, 0, 2))),
                     box=2 * math.pi)


def test_single_plane_wave_delta_at_p():
    w = PlaneWaveSum(components=((1.0 + 0j, (1.5, 0.0, -0.5)),),
                     box=2 * math.pi, hbar=1.0)
    rec = extended_born_check(w, 3_000, 3)
    assert rec.mean_guided_p == pytest.approx([1.5, 0.0, -0.5], abs=1e-9)
    assert rec.total_variation == pytest.approx(0.0, abs=1e-12)
    assert rec.histogram_mass_total == pytest.approx(1.0, abs=1e-9)
    for hist in rec.guided_hists:
        assert hist.mass.sum() == pytest.approx(1.0, abs=1e-9)


def test_equal_weight_two_wave_delta_at_half_sum():
    k, pz = 2.0, 3.0
    w = PlaneWaveSum(components=((0.5 + 0j, (k, 0.0, pz)),
                                 (0.5 + 0j, (k, 0.0, -pz))),
                     box=2 * math.pi, hbar=1.0)
    rec = extended_born_check(w, 3_000, 4)
    assert rec.mean_guided_p == pytest.approx([k, 0.0, 0.0], abs=1e-9)
    # conjectured pair-sum spectrum sits at p1+p2 = (2k,0,0): distance 1
    vecs, wts = rec.candidate_spectrum
    assert vecs.shape == (1, 3)
    assert vecs[0] == pytest.approx([2 * k, 0.0, 0.0])
    assert rec.total_variation == pytest.approx(1.0)
    assert rec.histogram_mass_total == pytest.approx(1.0, abs=1e-9)


def quadrature_mean_momentum(w, n_grid=40_001):
    """Deterministic oracle: |psi|^2-weighted average of the phase gradient
    over one box length along the varying axis."""
    zs = np.linspace(0.0, w.box, n_grid)
    pts = np.stack([np.zeros_like(zs), np.zeros_like(zs), zs], axis=1)
    dens = np.abs(w.field(pts)) ** 2
    mom = w.guided_momentum_at(pts)
    return (dens[:, None] * mom).sum(axis=0) / dens.sum()


def test_unequal_weights_mean_matches_quadrature():
    w = PlaneWaveSum(components=((0.8 + 0j, (2.0, 0.0, 3.0)),
                                 (0.6 + 0j, (2.0, 0.0, -3.0))),
                     box=2 * math.pi, hbar=1.0)
    rec = extended_born_check(w, 200_000, 7)
    oracle = quadrature_mean_momentum(w)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(rec.mean_guided_p - oracle)) < 0.01 * scale
    assert rec.histogram_mass_total == pytest.approx(1.0, abs=1e-9)


def test_guidance_matches_finite_difference(rng):
    # analytic phase gradient vs central differences of the evaluated phase
    w = PlaneWaveSum(components=((0.7 + 0.1j, (1.0, 0.5, -0.3)),
                                 (0.4 - 0.2j, (-0.6, 1.1, 0.8)),
                                 (0.3 + 0j, (0.2, -0.9, 1.5))),
                     box=2 * math.pi, hbar=1.0)
    eps = 1e-7
    checked = 0
    for _ in range(200):
        r = rng.uniform(0, w.box, size=3)
        if abs(w.field(r)) < 0.2:   # stay away from amplitude nodes
            continue
        grad = np.empty(3)
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = eps
            dphi = np.angle(w.field(r + step) / w.field(r - step))
            grad[axis] = dphi / (2 * eps)
        analytic = w.guided_momentum_at(r)
        assert analytic == pytest.approx(w.hbar * grad, rel=1e-6, abs=1e-8)
        checked += 1
    assert checked > 50


def test_plane_wave_sampling_counter_matches_generator_statistics():
    w = PlaneWaveSum(components=((0.8 + 0j, (2.0, 0.0, 3.0)),
                                 (0.6 + 0j, (2.0, 0.0, -3.0))),
                     box=2 * math.pi, hbar=1.0)
    rec_a = extended_born_check(w, 30_000, 11)
    rec_b = extended_born_check(w, 30_000, np.random.default_rng(11))
    assert rec_a.mean_guided_p == pytest.approx(rec_b.mean_guided_p, abs=0.05)


def test_density_bound_is_valid(rng):
    w = PlaneWaveSum(components=((0.7 + 0.1j, (1.0, 0.5, -0.3)),
                                 (-0.4 - 0.2j, (-0.6, 1.1, 0.8))),
                     box=2 * math.pi, hbar=1.0)
    r = rng.uniform(0, w.box, size=(5_000, 3))
    assert np.all(np.abs(w.field(r)) ** 2 <= w.density_bound() + 1e-12)


def test_two_wave_state_invariants():
    with pytest.raises(ValueError):
        TwoWaveState(nu=1e20, V=1e9, theta0=2.0, delta_phase=0.0,
                     m0=9.1e-31, M=9.1e-31)  # cos(theta0) < 0 -> chi < 0
    with pytest.raises(ValueError):
        TwoWaveState.from_corpuscle_speed(v12=4e8, theta0=0.1,
                                          delta_phase=0.0, m0=9.1e-31)


# --- plane-wave terms, guidance and sampling, against oracles in this file -----

def direct_field(components, r, hbar):
    """psi(r) = sum_n w_n exp(i p_n . r / hbar), one full phase per component."""
    psi = np.zeros(r.shape[:-1], dtype=complex)
    for wn, pn in components:
        psi += wn * np.exp(1j * (r @ np.asarray(pn)) / hbar)
    return psi


@pytest.mark.parametrize("components", [
    ((0.9 - 0.3j, (1.2, -0.4, 0.7)),),
    ((0.8 + 0j, (2.0, 0.0, 3.0)), (0.6 + 0.2j, (-1.0, 1.5, -3.0))),
    ((0.7 + 0.1j, (1.0, 0.5, -0.3)), (0.4 - 0.2j, (-0.6, 1.1, 0.8)),
     (0.3 + 0j, (0.2, -0.9, 1.5))),
    # component 0, whose phase is factored out, has zero weight
    ((0j, (5.0, -2.0, 1.0)), (0.7 + 0.1j, (1.0, 0.5, -0.3)),
     (0.4 - 0.2j, (-0.6, 1.1, 0.8))),
], ids=["N1", "N2", "N3", "N3-zero-w0"])
def test_field_and_guidance_match_direct_sum(components, rng):
    w = PlaneWaveSum(components=components, box=2 * math.pi, hbar=0.7)
    r = rng.uniform(0, w.box, size=(400, 3))
    psi = direct_field(components, r, w.hbar)
    assert np.allclose(w.field(r), psi, rtol=0, atol=1e-12)
    # central differences of the phase, away from amplitude nodes
    r = r[np.abs(psi) > 0.2]
    assert len(r) > 100
    eps = 1e-6
    grad = np.empty_like(r)
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = eps
        ratio = (direct_field(components, r + step, w.hbar)
                 / direct_field(components, r - step, w.hbar))
        grad[:, axis] = np.angle(ratio) / (2 * eps)
    guided = w.guided_momentum_at(r)
    assert np.allclose(guided, w.hbar * grad, rtol=1e-6, atol=1e-6)
    # any leading shape, a single point included
    assert np.array_equal(w.guided_momentum_at(r[:100].reshape(10, 10, 3)),
                          guided[:100].reshape(10, 10, 3))
    assert w.guided_momentum_at(r[0]) == pytest.approx(guided[0], abs=1e-12)
    assert w.field(r[0]) == pytest.approx(psi[np.abs(psi) > 0.2][0], abs=1e-12)


def test_borncheck_marginals_are_histograms_of_guided_momenta():
    # |w_0| > |w_1| + |w_2|: no amplitude nodes, every axis spread over bins
    w = PlaneWaveSum(components=((1.0 + 0j, (1.0, 0.0, 2.0)),
                                 (0.4 - 0.2j, (0.0, 2.0, -1.0)),
                                 (0.3j, (-1.0, 1.0, 0.0))),
                     box=2 * math.pi, hbar=1.0)
    n = 20_000
    rec = extended_born_check(w, n, 17, bins=16)
    # the check draws its points from stream 0 of its seed
    positions, _ = dbb._sample_box(w, trial_generator(17, 0), n)
    guided = w.guided_momentum_at(positions)
    assert rec.mean_guided_p == pytest.approx(guided.mean(axis=0), abs=1e-12)
    for axis, hist in enumerate(rec.guided_hists):
        assert hist.edges.size == 17
        counts, _ = np.histogram(guided[:, axis], bins=hist.edges)
        assert np.array_equal(hist.mass, counts / n)


def test_three_wave_mean_guided_p_within_clt_bound_of_quadrature():
    # momenta differ only along z, so psi varies only along z; no nodes
    comps = ((1.0 + 0j, (1.0, -2.0, 3.0)), (0.5 - 0.2j, (1.0, -2.0, -1.0)),
             (0.3j, (1.0, -2.0, 0.5)))
    w = PlaneWaveSum(components=comps, box=2 * math.pi, hbar=1.0)
    n = 100_000
    rec = extended_born_check(w, n, 23)
    # |psi|^2-weighted mean and spread of p_z by midpoint quadrature over z
    points = 1 << 16
    z = (np.arange(points) + 0.5) * (w.box / points)
    amps = np.array([c[0] for c in comps])
    kz = np.array([c[1][2] for c in comps])
    waves = amps[:, None] * np.exp(1j * kz[:, None] * z)
    psi = waves.sum(axis=0)
    pz = np.imag((1j * kz[:, None] * waves).sum(axis=0) / psi)
    dens = np.abs(psi) ** 2 / np.sum(np.abs(psi) ** 2)
    mean = np.sum(dens * pz)
    sd = math.sqrt(np.sum(dens * (pz - mean) ** 2))
    assert abs(rec.mean_guided_p[2] - mean) <= 5 * sd / math.sqrt(n)
    assert rec.mean_guided_p[:2] == pytest.approx([1.0, -2.0], abs=1e-12)


@pytest.mark.parametrize("law", ["uniform", "normal"])
def test_run_trace_is_the_one_trial_run(wave, law):
    cfg = ExpConfig(lambda_sep=1e-6, kick_law=law, n_trials=5_000)
    pairs = [(seed, seed) for seed in range(8)]
    pairs.append((np.random.default_rng(5), np.random.default_rng(5)))
    for rng_trace, rng_exp in pairs:
        rec = run_trace(wave, cfg, rng_trace)
        one = simulate_exp(wave, replace(cfg, n_trials=1), rng_exp)
        assert np.array_equal(rec.estimated_p, one.mean_estimated_p)
        assert one.lambda_table[0][0] == cfg.lambda_sep
        assert abs(rec.gammas[0]) == one.lambda_table[0][1]
    # the trace starts at the point sample_position draws from the same seed
    for seed in range(8):
        (r1, _), _ = run_trace(wave, cfg, seed).ionizations
        assert r1[2] == wave.sample_position(seed)[2]

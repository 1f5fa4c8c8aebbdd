import math

import numpy as np
import pytest

from qfact import dbb
from qfact.dbb import (
    ExpConfig,
    PlaneWaveSum,
    TwoWaveState,
    default_kappa,
    extended_born_check,
    guided_momentum,
    guided_velocity,
    ionization_kick,
    quantum_force,
    simulate_exp,
    straight_line_positions,
)
from qfact.seeding import trial_generator

ELECTRON = dict(v12=1.0e6, theta0=0.1, delta_phase=0.3, m0=9.109e-31)


@pytest.fixture
def wave():
    return TwoWaveState.from_corpuscle_speed(**ELECTRON)


def zero_of_amplitude(s):
    # chi z + delta/2 = pi/2
    return (math.pi / 2 - s.delta_phase / 2) / s.chi


# --- amplitude, through the fringe density (its square, peak 1) -------------

def test_amplitude_maximum(wave):
    z_max = -wave.delta_phase / (2 * wave.chi)
    assert dbb.fringe_density(wave, z_max) == pytest.approx(1.0, abs=1e-12)


def test_amplitude_node(wave):
    assert dbb.fringe_density(wave, zero_of_amplitude(wave)) == \
        pytest.approx(0.0, abs=1e-12)


def test_amplitude_periodicity(wave, rng):
    # the amplitude has period 2 pi / chi; its square half that
    for z in rng.uniform(-1e-9, 1e-9, size=10):
        assert dbb.fringe_density(wave, z + wave.fringe_period) == \
            pytest.approx(dbb.fringe_density(wave, z), rel=1e-9, abs=1e-12)


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


# --- quantum force --------------------------------------------------------------

def test_quantum_force_zero_everywhere(wave, rng):
    for z in rng.uniform(-1e-9, 1e-9, size=50):
        assert quantum_force(wave, z) == 0.0
    assert quantum_force(wave, zero_of_amplitude(wave)) == 0.0


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


def test_exp_px_is_its_closed_form(wave):
    # every trial flies lambda_sep in dt: p_x is M lambda_sep / dt to the bit
    cfg = ExpConfig(lambda_sep=1e-6, n_trials=1_000)
    summary = simulate_exp(wave, cfg, 8088)
    dt = cfg.lambda_sep / guided_velocity(wave)[0]
    assert summary.mean_estimated_p[0] == wave.M * cfg.lambda_sep / dt
    assert summary.sigma_px == 0.0


@pytest.mark.parametrize("theta0,lambda_sep", [
    (1e-300, 1e300), (0.1, 5e-324), (0.0, 1e-6),
], ids=["flight_time_overflow", "flight_time_underflow", "guided_speed_zero"])
def test_exp_refuses_a_flight_time_out_of_range(theta0, lambda_sep):
    # an infinite flight time would give p = 0 and sigma_px = 0 without error
    s = TwoWaveState.from_corpuscle_speed(1e6, theta0, 0.0, 9.109e-31)
    with pytest.raises(ValueError, match="guided speed"):
        simulate_exp(s, ExpConfig(lambda_sep=lambda_sep, n_trials=1_000), 1)


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


@pytest.mark.parametrize("weights,momenta,box,hbar", [
    ((1, 1), ((1e308, 0, 0), (-1e308, 0, 0)), 2 * math.pi, 1.0),
    ((0.8, 0.6), ((2, 0, 3), (2, 0, -3)), 2 * math.pi, 1e-320),
    ((0.8, 0.6), ((2, 0, 3), (2, 0, -3)), 1e308, 1.0),
    ((0.8e-200, 0.6e-200), ((2, 0, 3), (2, 0, -3)), 2 * math.pi, 1.0),
    ((0.8e200, 0.6e200), ((2, 0, 3), (2, 0, -3)), 2 * math.pi, 1.0),
    ((1, 1e-170), ((2, 0, 3), (2, 0, -3)), 2 * math.pi, 1.0),
    ((1e-170,), ((2, 0, 3),), 2 * math.pi, 1.0),
    ((1, 1), ((1e308, 0, 0), (1.5e308, 0, 0)), 1.0, 1.0),
], ids=["wave_number", "hbar", "phase_across_box", "bound_underflow",
        "bound_overflow", "pair_weights_underflow", "single_wave_underflow",
        "pair_sum"])
def test_plane_wave_sum_rejects_out_of_range_derived_quantities(weights, momenta,
                                                                box, hbar):
    # non-finite wave numbers make every density NaN, so no candidate is ever
    # accepted; a density bound of 0 accepts every candidate; zero pair
    # weights normalize to NaN; a pair sum past the largest float is an
    # infinite candidate momentum
    with pytest.raises(ValueError, match="a derived quantity is out of range"):
        PlaneWaveSum(components=tuple(zip(weights, momenta)), box=box, hbar=hbar)


def test_plane_wave_sum_accepts_extreme_finite_inputs():
    w = PlaneWaveSum(components=((1e-70, (2, 0, 3)), (1e-70, (2, 0, -3))),
                     box=2 * math.pi, hbar=1e-300)
    vecs, wts = dbb.pair_sum_spectrum(w)
    assert np.all(np.isfinite(vecs)) and wts.tolist() == [1.0]
    # box / hbar overflows, each wave number times box does not
    w = PlaneWaveSum(components=((1.0, (0, 0, 0)), (1.0, (1e-300, 0, 0))),
                     box=1e300, hbar=1e-300)
    assert dbb.box_acceptance_rate(w) == pytest.approx(0.5, abs=1e-15)


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
    # a relative phase past one turn either way is refused; the bounds pass
    for delta in (-2 * math.pi, 2 * math.pi):
        TwoWaveState.from_corpuscle_speed(v12=1e6, theta0=0.1,
                                          delta_phase=delta, m0=9.1e-31)
    with pytest.raises(ValueError, match="delta_phase"):
        TwoWaveState.from_corpuscle_speed(v12=1e6, theta0=0.1,
                                          delta_phase=1e100, m0=9.1e-31)


@pytest.mark.parametrize("kappa", [-1.0, math.nan, 1.7976931348623157e308, 1e308])
def test_exp_config_refuses_kappa(kappa):
    # kicks are KICK_HALF_WIDTH * kappa times a draw: that scale must be
    # finite, and twice it for a trial's two uniform kicks
    with pytest.raises(ValueError, match="kappa"):
        ExpConfig(lambda_sep=1e-6, kappa=kappa)


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
    positions, _ = direct_box(w, trial_generator(17, 0), n)
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


# --- the squeezed samplers against the direct proposals ---------------------------

def direct_fringe(s, gen, n, n_periods):
    """Every candidate decided on the float64 fringe density."""
    lo, hi = s.fringe_window(n_periods)

    def propose(m):
        z = gen.uniform(lo, hi, m)
        return (np.compress(gen.random(m) <= dbb.fringe_density(s, z), z),)

    return dbb._rejection_sample(n, 0.5, propose)[0]


def direct_box(w, gen, n):
    """Every candidate decided on |psi|^2 from the full float64 terms."""

    def propose(m):
        r = gen.random((3, m)) * w.box
        terms = w.terms(r.T)
        psi = terms.sum(axis=0)
        keep = gen.random(m) * w.density_bound() <= psi.real ** 2 + psi.imag ** 2
        return np.compress(keep, r, axis=1), np.compress(keep, terms, axis=1)

    r, terms = dbb._rejection_sample(n, dbb.box_acceptance_rate(w), propose)
    return r.T, terms


SEEDS = range(50)


@pytest.mark.parametrize("delta", [0.0, 2 * math.pi, -2 * math.pi,
                                   *np.random.default_rng(5).uniform(
                                       -2 * math.pi, 2 * math.pi, 3)])
def test_fringe_sampler_equals_direct_proposals(delta):
    s = TwoWaveState.from_corpuscle_speed(v12=1e6, theta0=0.1,
                                          delta_phase=float(delta), m0=9.109e-31)
    for seed in SEEDS:  # 40 000 draws: two rounds of candidates
        got = dbb._sample_fringe(s, trial_generator(seed, 0), 40_000, dbb.Z_PERIODS)
        want = direct_fringe(s, trial_generator(seed, 0), 40_000, dbb.Z_PERIODS)
        assert np.array_equal(got, want)


BOX_CASES = {
    # the plane waves of scenarios/trace_experiment.json
    "shipped": ((0.8, (2.0, 0.0, 3.0)), (0.6, (2.0, 0.0, -3.0))),
    # the benchmark's kind of pair: equal p_x and p_y, complex weights
    "equal_px_py": ((0.9 - 0.4j, (3.0, 2.0, -4.0)), (0.5 + 0.3j, (3.0, 2.0, 1.0))),
    "off_lattice_three": ((0.7 + 0.1j, (1.0, 0.5, -0.3)),
                          (0.4 - 0.2j, (-0.6, 1.1, 0.8)),
                          (0.3 + 0j, (0.2, -0.9, 1.5))),
}


@pytest.mark.parametrize("case,box", [
    *((name, 2 * math.pi) for name in BOX_CASES),
    ("shipped", 3e5),  # phases past _BOX_PHASE_LIMIT: the float64 path only
], ids=[*BOX_CASES, "exact_fallback"])
def test_box_sampler_equals_direct_proposals(case, box):
    w = PlaneWaveSum(components=BOX_CASES[case], box=box)
    rate = dbb.box_acceptance_rate(w)
    for seed in SEEDS:
        terms, = dbb._rejection_sample(
            20_000, rate, dbb._box_proposal(w, trial_generator(seed, 0)))
        _, terms0 = direct_box(w, trial_generator(seed, 0), 20_000)
        assert np.array_equal(terms, terms0)
    # the Born check draws the same points and keeps their terms
    rec = extended_born_check(w, 20_000, 49)
    guided = dbb._guided_momentum(w.momenta, terms0)
    assert np.array_equal(rec.mean_guided_p, guided.mean(axis=0))


@pytest.mark.parametrize("components,lattice_refuted", [
    # exact 0.3761, lattice rate 0.3735
    (BOX_CASES["off_lattice_three"], False),
    # p_z = 0.37 lies off the lattice of a 2 pi box: exact 0.343, lattice rate 1/2
    (((1.0, (0.0, 0.0, 0.0)), (-1.0, (0.0, 0.0, 0.37))), True),
], ids=["off_lattice_three", "cancelling_pair"])
def test_box_acceptance_rate_matches_monte_carlo(components, lattice_refuted):
    # the share of 2 * 10^6 uniform candidates that |psi|^2 accepts against
    # its bound is binomial with the exact rate as its mean
    w = PlaneWaveSum(components=components, box=2 * math.pi)
    gen, m, accepted = np.random.default_rng(29), 250_000, 0
    for _ in range(8):
        r = gen.uniform(0.0, w.box, (m, 3))
        density = np.abs(direct_field(components, r, w.hbar)) ** 2
        accepted += int(np.sum(gen.random(m) * w.density_bound() <= density))
    rate, n = dbb.box_acceptance_rate(w), 8 * m
    bound = 5 * math.sqrt(rate * (1 - rate) / n)
    assert abs(accepted / n - rate) <= bound
    if lattice_refuted:  # the lattice rate sum |w_n|^2 / (sum |w_n|)^2
        assert abs(accepted / n - 0.5) > 10 * bound


@pytest.mark.parametrize("case", ["shipped", "equal_px_py"])
def test_box_acceptance_rate_on_the_lattice_is_the_assumed_rate(case):
    # integer momentum differences in a 2 pi box: the cross terms average out,
    # leaving the lattice rate sum |w_n|^2 / (sum |w_n|)^2
    w = PlaneWaveSum(components=BOX_CASES[case], box=2 * math.pi)
    amps = np.abs(w.weights)
    assert dbb.box_acceptance_rate(w) == pytest.approx(
        np.sum(amps ** 2) / np.sum(amps) ** 2, rel=1e-14)


def test_born_check_refuses_a_rate_within_rounding():
    # weights 1 and -1, momenta 1e-9 apart in a unit box: |psi|^2 stays near
    # 1e-18 against a bound of 4
    w = PlaneWaveSum(components=((1.0, (0.0, 0.0, 0.0)), (-1.0, (1e-9, 0.0, 0.0))),
                     box=1.0)
    assert dbb.box_acceptance_rate(w) < 1e-15
    with pytest.raises(ValueError, match="rounding noise 4.4e-15"):
        extended_born_check(w, 100, 1)


def test_fringe_squeeze_within_a_quarter_margin():
    # 10^6 arguments chi z + delta/2 cover [-5 pi, 5 pi]: 8 periods of pi/chi
    # around delta/2 = -pi, 0 and pi
    gen = np.random.default_rng(11)
    worst = 0.0
    for delta in (-2 * math.pi, 0.0, 2 * math.pi):
        s = TwoWaveState.from_corpuscle_speed(v12=1e6, theta0=0.1,
                                              delta_phase=delta, m0=9.109e-31)
        lo, hi = s.fringe_window(dbb.Z_PERIODS)
        z = np.concatenate([gen.uniform(lo, hi, 340_000), [lo, hi]])
        gap = dbb._fringe_squeeze(s, z) - dbb.fringe_density(s, z)
        worst = max(worst, float(np.max(np.abs(gap))))
    assert worst <= dbb._FRINGE_MARGIN / 4


@pytest.mark.parametrize("n_waves,points", [(2, 1_000_000), (3, 300_000),
                                            (8, 100_000)])
def test_box_squeeze_within_a_quarter_margin(n_waves, points):
    # phases up to the limit, where the float32 path stops
    gen = np.random.default_rng(n_waves)
    weights = gen.normal(size=n_waves) + 1j * gen.normal(size=n_waves)
    w = PlaneWaveSum(components=tuple(
        (complex(wn), (float(k), 0.0, 0.0)) for k, wn in enumerate(weights)),
        box=2 * math.pi)
    limit = dbb._BOX_PHASE_LIMIT
    phases = gen.uniform(-limit, limit, (n_waves - 1, points))
    phases[:, :4] = [limit * (1 - 2 ** -52), -limit * (1 - 2 ** -52), math.pi, 0.0]
    psi = w.terms_at(phases).sum(axis=0)
    density = (psi.real ** 2 + psi.imag ** 2) / w.density_bound()
    gap = dbb._box_squeeze(w, phases) - density
    assert np.max(np.abs(gap)) <= dbb._BOX_MARGIN * n_waves / 4


def test_joint_histogram_equals_histogramdd():
    # edges as extended_born_check builds them, from spans that are not
    # binary fractions, so bin arithmetic and edge array disagree by an ulp
    gen = np.random.default_rng(3)
    edges = [np.linspace(-4.7 - 0.31, 3.3 + 0.31, 65),
             np.array([0.25 - 1e-9, 0.25 + 1e-9]),  # a delta axis: one bin
             np.linspace(-1.9 - 0.173, 1.57 + 0.173, 17)]
    samples = np.column_stack([gen.uniform(e[0], e[-1], 100_000) for e in edges])
    # every edge, the last included, and its neighbours one ulp either side
    for axis in (0, 2):
        e = edges[axis]
        near = np.concatenate([e, np.nextafter(e[1:], -np.inf),
                               np.nextafter(e[:-1], np.inf)])
        samples[:len(near), axis] = near
    want, _ = np.histogramdd(samples, bins=edges)
    assert np.array_equal(dbb._joint_histogram(samples, edges), want)
    weights = gen.random(len(samples))
    want, _ = np.histogramdd(samples, bins=edges, weights=weights)
    assert np.array_equal(dbb._joint_histogram(samples, edges, weights), want)


@pytest.mark.parametrize("law", ["uniform", "normal"])
@pytest.mark.parametrize("kappa", [None, 0.0, 3e-9])
def test_kick_totals_equal_the_masked_sum(wave, law, kappa):
    # 0.0 + the first kick, plus the second on trials with two, sign of
    # zero included (kappa = 0 makes every kick a signed zero)
    cfg = ExpConfig(lambda_sep=1e-6, kappa=kappa, kick_law=law, n_trials=1)
    k = default_kappa(wave) if kappa is None else kappa
    for seed in range(5):
        _, total = dbb._trial_draws(wave, cfg, seed, 20_000)
        gen = trial_generator(seed, 1)
        n_ion = gen.integers(1, 3, 20_000)
        dd = (gen.uniform(-1.0, 1.0, (2, 20_000)) if law == "uniform"
              else gen.standard_normal((2, 20_000)))
        kicks = -k * (dbb.KICK_HALF_WIDTH * dd)
        want = kicks.sum(axis=0, where=np.arange(2)[:, None] < n_ion)
        assert np.array_equal(total, want)
        assert np.array_equal(np.signbit(total), np.signbit(want))


def test_exp_config_kappa_bound_follows_the_kick_law():
    # two uniform kicks sum to at most 2 kappa KICK_HALF_WIDTH; a normal kick
    # has no bound, and the CLI refuses a non-finite output instead
    ExpConfig(lambda_sep=1e-6, kappa=0.5e308)
    ExpConfig(lambda_sep=1e-6, kappa=1e308, kick_law="normal")

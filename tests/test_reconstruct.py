import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfact import finprob, hilbert, reconstruct
from qfact.errors import InconsistentLawsError, UnlinkedObservableError
from qfact.hilbert import OracleState, basis_observable, born_law, random_observable, random_state, transform_between
from qfact.reconstruct import (
    RetrievalConfig,
    StateReconstructor,
    _basins,
    _descend,
    _residual_terms,
    _wrap_phase,
    amplitudes_from_law,
    assemble_equivalent,
    law_vector,
    predict_heldout,
    retrieve_phases,
)
from qfact.seeding import trial_generator


def oracle_setup(dim, seed, n_partners=2, heldout=True):
    rng = np.random.default_rng(seed)
    psi = random_state(dim, rng)
    ref = basis_observable("A", dim)
    partners = [random_observable(f"B{i}", dim, rng) for i in range(n_partners)]
    extra = random_observable("D", dim, rng) if heldout else None
    laws = {"A": born_law(psi, ref)}
    taus = {}
    for obs in partners:
        laws[obs.name] = born_law(psi, obs)
        taus[obs.name] = transform_between(ref, obs)
    return psi, ref, partners, extra, laws, taus


# --- amplitudes -------------------------------------------------------------

def test_amplitudes_delta_law():
    assert amplitudes_from_law(np.array([1.0, 0.0, 0.0])) == \
        pytest.approx([1.0, 0.0, 0.0])


def test_amplitudes_arithmetic():
    assert amplitudes_from_law(np.array([0.25, 0.75])) == \
        pytest.approx([0.5, np.sqrt(0.75)])


def test_amplitudes_from_counted_law():
    law = finprob.FactualLaw.from_block_counts(
        ("A:0", "A:1"), [{"A:0": 1, "A:1": 3}], block_size_n0=4)
    amp = amplitudes_from_law(law)
    assert amp == pytest.approx([0.5, np.sqrt(0.75)])
    assert np.sum(amp ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("vec", [[np.nan, 0.5], [0.5, 0.5, np.nan],
                                 [np.inf, 0.5], [np.nan, np.inf],
                                 [0.5, 0.5, -np.inf]])
def test_law_vector_rejects_non_finite_entries(vec):
    with pytest.raises(ValueError):
        law_vector(np.array(vec))
    with pytest.raises(ValueError):
        retrieve_phases(np.array(vec), {"B": [0.5, 0.5]},
                        {"B": hilbert.TransformMatrix("A", "B", np.eye(len(vec)))})


# --- phase retrieval --------------------------------------------------------

@pytest.mark.parametrize("settings", [
    {"restarts": 0}, {"restarts": -1}, {"restarts": 2.0},
    {"tol": 0.0}, {"tol": -1e-3}, {"tol": np.nan}, {"tol": np.inf},
    {"stop_tol": -1e-30}, {"stop_tol": np.nan}, {"stop_tol": np.inf},
])
def test_retrieval_config_rejects_bad_settings(settings):
    with pytest.raises(ValueError):
        RetrievalConfig(**settings)


def test_dim2_complex_state_recovered_to_high_fidelity():
    psi = OracleState(np.array([1.0, 1.0j]) / np.sqrt(2))
    ref = basis_observable("A", 2)
    rng = np.random.default_rng(55)
    partners = [random_observable("B1", 2, rng), random_observable("B2", 2, rng)]
    laws = {o.name: born_law(psi, o) for o in partners}
    taus = {o.name: transform_between(ref, o) for o in partners}
    phases, report = retrieve_phases(born_law(psi, ref), laws, taus)
    recovered = np.sqrt(born_law(psi, ref)) * np.exp(1j * phases)
    truth = hilbert.coefficients(psi, ref)
    fidelity = abs(np.vdot(truth, recovered))
    assert fidelity >= 1 - 1e-6
    assert report.converged and report.ambiguity_flag == "unique"


def test_real_positive_state_zero_phases(rng):
    psi = OracleState(np.array([0.6, 0.8]))
    ref = basis_observable("A", 2)
    b = random_observable("B", 2, rng)
    phases, report = retrieve_phases(
        born_law(psi, ref), {"B": born_law(psi, b)},
        {"B": transform_between(ref, b)})
    assert phases == pytest.approx([0.0, 0.0], abs=1e-7)
    assert report.residual < 1e-15


def test_inconsistent_laws_rejected():
    tau = hilbert.TransformMatrix("A", "B", np.eye(2))
    with pytest.raises(InconsistentLawsError):
        retrieve_phases(np.array([1.0, 0.0]), {"B": np.array([0.5, 0.5])},
                        {"B": tau})


def test_gauge_invariance_of_residual(rng):
    psi = random_state(3, rng)
    ref = basis_observable("A", 3)
    b = random_observable("B", 3, rng)
    amp = np.sqrt(born_law(psi, ref))
    tau, law = transform_between(ref, b).entries, born_law(psi, b)
    alpha = rng.uniform(-np.pi, np.pi, size=(1, 3))
    r0 = np.sum(_residual_terms(alpha, amp, tau, law)[0] ** 2, axis=1)
    for offset in (0.3, -1.2, 2.9):
        r_shift = np.sum(_residual_terms(alpha + offset, amp, tau, law)[0] ** 2, axis=1)
        assert r_shift == pytest.approx(r0, rel=1e-9)


def test_reported_solution_is_gauged():
    psi = OracleState(np.array([1.0, 1.0j]) / np.sqrt(2))
    ref = basis_observable("A", 2)
    rng = np.random.default_rng(3)
    b = random_observable("B", 2, rng)
    phases, _ = retrieve_phases(born_law(psi, ref), {"B": born_law(psi, b)},
                                {"B": transform_between(ref, b)})
    assert phases[0] == 0.0


def test_descent_is_monotone(rng):
    # value after k+1 iterations never exceeds value after k iterations
    psi = random_state(4, rng)
    ref = basis_observable("A", 4)
    b = random_observable("B", 4, rng)
    c = random_observable("C", 4, rng)
    amp = np.sqrt(born_law(psi, ref))
    partners = [(transform_between(ref, b).entries, born_law(psi, b)),
                (transform_between(ref, c).entries, born_law(psi, c))]
    start = np.random.default_rng(0).uniform(-np.pi, np.pi, size=(4, 4))
    start[:, 0] = 0.0
    prev = _descend(start.copy(), amp, partners, 0, 0.0)[1]
    for iters in range(1, 40):
        _, value = _descend(start.copy(), amp, partners, iters, 0.0)
        assert np.all(value <= prev + 1e-18)
        prev = value


@pytest.mark.parametrize("dim", range(2, 9))
def test_jacobian_matches_central_differences(dim):
    psi, ref, partners, _, laws, taus = oracle_setup(dim, 700 + dim, heldout=False)
    amp = np.sqrt(laws["A"])
    tau = np.concatenate([taus[o.name].entries for o in partners])
    law = np.concatenate([laws[o.name] for o in partners])
    anchor = int(np.argmax(amp))
    alpha = np.random.default_rng(dim).uniform(-np.pi, np.pi, size=(3, dim))
    r, jac = _residual_terms(alpha, amp, tau, law, anchor)
    r_alone = _residual_terms(alpha, amp, tau, law, anchor, jacobian=False)
    assert np.array_equal(r_alone, r)
    # R = sum_k r_k^2, against the residual written out, and its gradient 2 J^T r
    value, grad = np.sum(r ** 2, axis=1), 2.0 * np.einsum("mkj,mk->mj", jac, r)
    coeff = amp * np.exp(1j * alpha)
    direct = sum(np.sum((np.abs(coeff @ taus[o.name].entries.T) ** 2 - laws[o.name]) ** 2,
                        axis=1) for o in partners)
    assert value == pytest.approx(direct, rel=1e-12)
    h = 1e-6
    for j in range(dim):
        shift = np.zeros(dim)
        shift[j] = h
        r_up, r_down = (_residual_terms(alpha + s, amp, tau, law, anchor)[0]
                        for s in (shift, -shift))
        if j == anchor:
            assert np.all(jac[:, :, j] == 0.0) and np.all(grad[:, j] == 0.0)
            continue
        assert jac[:, :, j] == pytest.approx((r_up - r_down) / (2 * h), abs=1e-8)
        fd_grad = (np.sum(r_up ** 2, axis=1) - np.sum(r_down ** 2, axis=1)) / (2 * h)
        assert grad[:, j] == pytest.approx(fd_grad, abs=1e-8)


def test_descent_stops_restarts_on_a_residual_floor():
    # partner B1's law comes from another state, so no phases fit and every
    # restart ends on a floor above zero; with no stop tolerance each one
    # stops on the relative-reduction test well before iteration 45, so
    # running on to 5000 iterations changes nothing
    for s in range(5):
        psi, ref, partners, _, laws, taus = oracle_setup(4, 4242 + s)
        laws["B1"] = born_law(oracle_setup(4, 9999 + s)[0], partners[1])
        amp = np.sqrt(laws["A"])
        pairs = [(taus[o.name].entries, laws[o.name]) for o in partners]
        anchor = int(np.argmax(amp))
        start = np.random.default_rng(s).uniform(-np.pi, np.pi, size=(16, 4))
        start[:, anchor] = 0.0
        short, value = _descend(start.copy(), amp, pairs, 45, 0.0, anchor)
        long, _ = _descend(start.copy(), amp, pairs, 5000, 0.0, anchor)
        assert value.min() > 1e-3
        assert np.array_equal(short, long)


def _fit_outcome(laws, taus, tau_d, seed, tol):
    """(ambiguity flag, held-out law) of a fit, or None when it raises."""
    try:
        est = StateReconstructor(reference="A", seed=seed, tol=tol).fit(
            laws, list(taus.values()) + [tau_d])
    except InconsistentLawsError:
        return None
    return est.report_.ambiguity_flag, est.predict(tau_d)


def _assert_same_outcomes(cases, monkeypatch, tol):
    # with FLOOR_FTOL = 0 the floor test never fires (a kept step always
    # lowers R), which leaves the stop rule without it
    floor = [_fit_outcome(*case) for case in cases]
    monkeypatch.setattr(reconstruct, "FLOOR_FTOL", 0.0)
    for got, want in zip(floor, [_fit_outcome(*case) for case in cases]):
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0]
            assert np.max(np.abs(got[1] - want[1])) <= tol


@pytest.mark.parametrize("dim", range(2, 9))
def test_floor_stop_keeps_exact_fit_answers(dim, monkeypatch):
    cases = []
    for case in range(10):
        psi, ref, _, heldout, laws, taus = oracle_setup(dim, 5000 * dim + case)
        cases.append((laws, taus, transform_between(ref, heldout), case, 1e-10))
    _assert_same_outcomes(cases, monkeypatch, 1e-12)


@pytest.mark.parametrize("dim", range(2, 6))
def test_floor_stop_keeps_sampled_fit_answers(dim, monkeypatch):
    n = 1_000_000
    cases = []
    for case in range(5):
        psi, ref, _, heldout, exact, taus = oracle_setup(dim, 6000 * dim + case)
        laws = {name: trial_generator(6000 * dim + case, i).multinomial(n, law / law.sum()) / n
                for i, (name, law) in enumerate(exact.items())}
        tol = RetrievalConfig.for_sampled_laws(n, 2 * dim).tol
        cases.append((laws, taus, transform_between(ref, heldout), case, tol))
    _assert_same_outcomes(cases, monkeypatch, 1e-6)


def _basins_one_by_one(cands, first, amp):
    """The per-candidate grouping loop _basins replaced, kept as its oracle."""
    def distance(a, b):
        mask = amp > reconstruct.ZERO_AMP
        diff = _wrap_phase(a - b)
        return float(np.max(np.abs(diff[mask]))) if mask.any() else 0.0
    clusters = [first]
    for cand in cands:
        if all(distance(cand, known) > 1e-3 for known in clusters):
            clusters.append(cand)
    return clusters


_phase = st.one_of(
    st.sampled_from([-np.pi, np.pi, 0.0, np.pi - 4e-4, -np.pi + 4e-4]),
    st.floats(-np.pi, np.pi))
_jitter = st.sampled_from([0.0, 5e-4, -5e-4, 1e-3, -1e-3, 2e-3, -2e-3])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_basins_match_per_candidate_loop(data):
    # candidates scattered around a few centres, some of them at +-pi, by
    # offsets on both sides of the 1e-3 basin gap; zero amplitudes ignored,
    # all of them zero included
    d = data.draw(st.integers(2, 5))
    amp = np.array(data.draw(st.lists(st.sampled_from([0.0, 1e-13, 0.3, 1.0]),
                                      min_size=d, max_size=d)))
    centres = data.draw(st.lists(st.lists(_phase, min_size=d, max_size=d),
                                 min_size=1, max_size=4))
    rows = data.draw(st.lists(st.tuples(st.integers(0, len(centres) - 1),
                                        st.lists(_jitter, min_size=d, max_size=d)),
                              max_size=12))
    cands = _wrap_phase(np.array([np.add(centres[i], jitter) for i, jitter in rows],
                                 dtype=float).reshape(len(rows), d))
    first = np.array(centres[0], dtype=float)
    got, want = _basins(cands, first, amp), _basins_one_by_one(cands, first, amp)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_single_partner_reports_conjugate_pair():
    psi = OracleState(np.array([1.0, 1.0j]) / np.sqrt(2))
    ref = basis_observable("A", 2)
    rng = np.random.default_rng(88)
    b = random_observable("B", 2, rng)
    heldout = random_observable("C", 2, rng)
    tau_b = transform_between(ref, b)
    tau_c = transform_between(ref, heldout)
    phases, report = retrieve_phases(born_law(psi, ref),
                                     {"B": born_law(psi, b)}, {"B": tau_b})
    assert report.ambiguity_flag == "conjugate-pair"
    assert report.alternate_phases is not None
    # at least one member of the pair predicts the held-out basis
    devs = []
    for cand in (phases, report.alternate_phases):
        coeff = np.sqrt(born_law(psi, ref)) * np.exp(1j * cand)
        pred = np.abs(tau_c.entries @ coeff) ** 2
        devs.append(np.max(np.abs(pred - born_law(psi, heldout))))
    assert min(devs) < 1e-6


def test_zero_amplitude_phase_fixed_to_zero(rng):
    psi = OracleState(np.array([0.0, 0.6, 0.8j]))
    ref = basis_observable("A", 3)
    b = random_observable("B", 3, rng)
    c = random_observable("C", 3, rng)
    laws = {"B": born_law(psi, b), "C": born_law(psi, c)}
    taus = {"B": transform_between(ref, b), "C": transform_between(ref, c)}
    phases, _ = retrieve_phases(born_law(psi, ref), laws, taus)
    assert phases[0] == 0.0  # zero-amplitude component pinned by convention


# --- assembly and prediction ------------------------------------------------

def test_assemble_single_observable_reference_only():
    law = np.array([0.25, 0.75])
    exp = assemble_equivalent({"A": law}, np.zeros(2), {}, "A")
    assert set(exp.amplitudes) == {"A"}
    assert exp.amplitudes["A"] == pytest.approx(np.sqrt(law))


def test_assemble_exact_derived_amplitudes_match_sqrt_law(rng):
    psi, ref, partners, _, laws, taus = oracle_setup(3, 7)
    phases, _ = retrieve_phases(laws["A"], {o.name: laws[o.name] for o in partners}, taus)
    exp = assemble_equivalent(laws, phases, taus, "A")
    for obs in partners:
        assert exp.amplitudes[obs.name] == \
            pytest.approx(np.sqrt(laws[obs.name]), abs=1e-10)


def test_assemble_sampled_derived_amplitudes_close(rng):
    psi, ref, partners, _, laws_exact, taus = oracle_setup(3, 11)
    n = 1_000_000
    laws = {name: trial_generator(400, i).multinomial(n, law / law.sum()) / n
            for i, (name, law) in enumerate(laws_exact.items())}
    cfg = RetrievalConfig.for_sampled_laws(n, sum(o.dim for o in partners))
    phases, _ = retrieve_phases(laws["A"],
                                {o.name: laws[o.name] for o in partners},
                                taus, cfg)
    exp = assemble_equivalent(laws, phases, taus, "A")
    for obs in partners:
        assert np.max(np.abs(exp.amplitudes[obs.name]
                             - np.sqrt(laws[obs.name]))) < 0.01


def test_predict_reference_returns_its_own_law():
    law = np.array([0.25, 0.75])
    exp = assemble_equivalent({"A": law}, np.zeros(2), {}, "A")
    tau_self = hilbert.TransformMatrix("A", "A", np.eye(2))
    assert predict_heldout(exp, tau_self) == pytest.approx(law)


def test_predict_heldout_matches_oracle_exact():
    psi, ref, partners, heldout, laws, taus = oracle_setup(4, 23)
    phases, _ = retrieve_phases(laws["A"],
                                {o.name: laws[o.name] for o in partners}, taus)
    exp = assemble_equivalent(laws, phases, taus, "A")
    tau_d = transform_between(ref, heldout)
    pred = predict_heldout(exp, tau_d)
    assert np.max(np.abs(pred - born_law(psi, heldout))) < 1e-6


def test_predict_requires_link():
    exp = assemble_equivalent({"A": np.array([0.5, 0.5])}, np.zeros(2), {}, "A")
    with pytest.raises(UnlinkedObservableError):
        predict_heldout(exp, hilbert.TransformMatrix("X", "Y", np.eye(2)))


def test_expansion_json_round_trip(rng):
    psi, ref, partners, _, laws, taus = oracle_setup(3, 9)
    phases, _ = retrieve_phases(laws["A"],
                                {o.name: laws[o.name] for o in partners}, taus)
    exp = assemble_equivalent(laws, phases, taus, "A")
    back = reconstruct.ExpansionSet.from_json_dict(exp.to_json_dict())
    for name in exp.amplitudes:
        assert back.amplitudes[name] == pytest.approx(exp.amplitudes[name])
        assert back.phases[name] == pytest.approx(exp.phases[name])


# --- round trip over random oracle states ------------------------------------

@pytest.mark.parametrize("dim", [2, 3, 4])
def test_round_trip_random_states(dim):
    for case in range(7):
        psi, ref, partners, heldout, laws, taus = oracle_setup(
            dim, 1000 * dim + case)
        est = StateReconstructor(reference="A", seed=case).fit(
            laws, list(taus.values()) + [transform_between(ref, heldout)])
        pred = est.predict(transform_between(ref, heldout))
        assert np.max(np.abs(pred - born_law(psi, heldout))) < 1e-6


# generated exact cases (state, two partners and the held-out observable from
# oracle_setup(dim, 100000 * dim + case), restart seed ``case``); from d = 6 on,
# ones where a first-order descent with Armijo steps ran out of iterations: it
# raised InconsistentLawsError or missed the held-out law by up to 5.7e-6
@pytest.mark.parametrize("dim,case", [(4, 0), (5, 0), (6, 105), (7, 9), (7, 10),
                                      (7, 182), (8, 116), (8, 149), (8, 198)])
def test_heldout_law_recovered_where_descent_stalled(dim, case):
    psi, ref, partners, heldout, laws, taus = oracle_setup(dim, 100000 * dim + case)
    tau_d = transform_between(ref, heldout)
    est = StateReconstructor(reference="A", seed=case).fit(
        laws, list(taus.values()) + [tau_d])
    assert np.max(np.abs(est.predict(tau_d) - born_law(psi, heldout))) < 1e-6


# --- estimator API ----------------------------------------------------------

def test_estimator_holds_one_retrieval_config():
    assert StateReconstructor(restarts=8, tol=1e-8).config == \
        RetrievalConfig(restarts=8, tol=1e-8)
    with pytest.raises(TypeError):
        StateReconstructor(bogus=1)


def test_estimator_requires_fit_before_predict():
    with pytest.raises(RuntimeError):
        StateReconstructor().predict(hilbert.TransformMatrix("A", "B", np.eye(2)))


def test_estimator_reference_defaults_to_first_key():
    psi, ref, partners, _, laws, taus = oracle_setup(2, 31)
    est = StateReconstructor().fit(laws, list(taus.values()))
    assert est.expansion_.reference_observable == "A"
    assert est.report_.converged

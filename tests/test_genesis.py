import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, stats

from qfact import finprob, hilbert, scenario
from qfact.genesis import Simple, run_laws, run_successions
from qfact.hilbert import OracleState, born_law, random_observable, random_state
from qfact.seeding import block_table


# --- recipes, read by the scenario loader ------------------------------------

def pairs(vec):
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex)]


def loaded(generation, states, hamiltonians=None):
    """The scenario of ``states``, ``hamiltonians`` and the recipe ``generation``."""
    doc = {"seed": 1, "generation": generation,
           "states": {k: pairs(s.amplitudes) for k, s in states.items()}}
    if hamiltonians:
        doc["hamiltonians"] = {k: {"matrix": [pairs(row) for row in h.matrix],
                                   "hbar": h.hbar} for k, h in hamiltonians.items()}
    return scenario.load_scenario(json.dumps(doc))


def test_generate_simple_reproduces_state(rng):
    psi = random_state(3, rng)
    scn = loaded({"kind": "simple", "id": "G", "state": "psi"}, {"psi": psi})
    g = scn.section("generation")
    assert g.id == "G" and g.state is scn.section("states")["psi"]
    assert np.array_equal(g.state.amplitudes, psi.amplitudes)
    # a recipe with no id is the trunk "generation"
    scn = loaded({"kind": "simple", "state": "psi"}, {"psi": psi})
    assert scn.section("generation").id == "generation"


def test_evolved_zero_dt_same_law(rng):
    psi = random_state(3, rng)
    h = hilbert.HamiltonianSpec(np.diag([1.0, 2.0, 3.0]).astype(complex))
    obs = random_observable("A", 3, rng)
    for dt in ({"dt": 0.0}, {}):  # dt defaults to 0
        scn = loaded({"kind": "evolved", "id": "Gt", "hamiltonian": "H", **dt,
                      "base": {"kind": "simple", "id": "G", "state": "psi"}},
                     {"psi": psi}, {"H": h})
        state = scn.section("generation").state
        oracle = linalg.expm(-1j * h.matrix * 0.0 / h.hbar) @ psi.amplitudes
        assert state.amplitudes == pytest.approx(oracle, abs=1e-12)
        assert born_law(state, obs) == \
            pytest.approx(born_law(psi, obs), abs=1e-12)


def test_composed_matches_superposition(rng):
    psi1, psi2 = random_state(4, rng), random_state(4, rng)
    w = np.array([0.8, 0.6j])
    scn = loaded({"kind": "composed", "id": "Gc", "weights": pairs(w),
                  "components": [{"kind": "simple", "id": "G1", "state": "a"},
                                 {"kind": "simple", "id": "G2", "state": "b"}]},
                 {"a": psi1, "b": psi2})
    raw = w[0] * psi1.amplitudes + w[1] * psi2.amplitudes
    assert scn.section("generation").id == "Gc"
    assert scn.section("generation").state.amplitudes == \
        pytest.approx(raw / np.linalg.norm(raw), abs=1e-12)


# --- run_successions --------------------------------------------------------

def test_succession_frequencies_match_born_law(rng):
    psi = random_state(3, rng)
    obs = random_observable("A", 3, rng)
    n = 100_000
    law = run_successions(Simple("G", state=psi), obs, n,
                          0.02, 0.05, 10_000, 314)
    pi = born_law(psi, obs)
    freq = finprob.frequency_vector(law)
    sigma = np.sqrt(pi * (1 - pi) / n)
    assert np.all(np.abs(freq - pi) <= 3 * sigma)
    assert finprob.check_convergence(law).stable


def test_eigenstate_specimen_codes_its_eigenvalue(rng):
    # every specimen of the eigenvector u_1 codes index 1, whatever the seed
    obs = random_observable("A", 3, rng)
    g = Simple("G", state=OracleState(obs.eigenbasis[:, 1]))
    for seed in range(10):
        law = run_successions(g, obs, 100, 0.02, 0.05, 10, seed)
        assert law.counts == {"A:0": 0, "A:1": 100, "A:2": 0}


def test_run_successions_eigenstate_delta_law(rng):
    obs = random_observable("A", 3, rng)
    psi = OracleState(obs.eigenbasis[:, 0])
    law = run_successions(Simple("G", state=psi), obs, 100, 0.02, 0.05, 10, 5)
    assert finprob.frequency_vector(law).tolist() == [1.0, 0.0, 0.0]


def test_run_successions_fair_two_outcome_stable():
    psi = OracleState(np.array([1, 1]) / np.sqrt(2))
    obs = hilbert.basis_observable("X", 2)
    law = run_successions(Simple("G", state=psi), obs, 1_000_000,
                          0.02, 0.05, 10_000, 42)
    assert finprob.check_convergence(law).stable


def test_run_successions_tolerates_born_law_rounding():
    # an eigenbasis inside the unitarity tolerance: the Born law sums to 1 + 8e-11
    obs = hilbert.ObservableSpec("A", np.array([0.0, 1.0]),
                                 np.eye(2, dtype=complex) * (1 + 4e-11))
    psi = OracleState(np.array([1.0, 0.0]))
    law = run_successions(Simple("G", state=psi), obs, 100, 0.02, 0.05, 10, 5)
    assert law.counts == {"A:0": 100, "A:1": 0}


def test_run_successions_rejects_zero_trials(rng):
    obs = random_observable("A", 2, rng)
    with pytest.raises(ValueError):
        run_successions(Simple("G", state=random_state(2, rng)), obs, 0,
                        0.02, 0.05, 10, 1)


def test_run_successions_keyed_by_seed_and_offset():
    # a law depends only on (seed, stream)
    psi = OracleState(np.array([0.6, 0.8]))
    obs = hilbert.basis_observable("X", 2)

    def law(seed, stream):
        return run_successions(Simple("G", state=psi), obs, 5_000,
                               0.02, 0.05, 1_000, seed, stream=stream)

    assert law(99, 0) == law(99, 0)
    assert law(99, 1) == law(99, 1)
    assert law(99, 1) != law(99, 0)
    assert law(100, 0) != law(99, 0)


def test_run_laws_draws_observable_k_from_stream_k():
    setup = np.random.default_rng(42)
    psi = random_state(3, setup)
    obs = [random_observable(name, 3, setup) for name in "ABC"]
    g, n = Simple("G", state=psi), 4_000
    laws = run_laws(g, obs, n, 0.02, 0.05, 500, 8)
    assert list(laws) == ["A", "B", "C"]
    for k, o in enumerate(obs):
        assert laws[o.name] == run_successions(g, o, n, 0.02, 0.05, 500, 8,
                                               stream=k)


# --- block_table ------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=5_000),
       st.integers(min_value=1, max_value=600),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 63 - 1))
def test_block_table_rows_hold_n0_then_the_remainder(n, n0, d, seed):
    probs = np.random.default_rng(seed % 1000).dirichlet(np.ones(d))
    table = block_table(seed, 7, probs, n, n0)
    sizes = [n0] * (n // n0) + ([n % n0] if n % n0 else [])
    assert table.shape == (len(sizes), d)
    assert table.dtype == np.int64
    assert table.sum(axis=1).tolist() == sizes
    assert (table >= 0).all()


def test_block_table_one_probability_row_per_block():
    probs = np.repeat([[1.0, 0.0], [0.0, 1.0]], [3, 2], axis=0)
    table = block_table(5, 0, probs, 5 * 10, 10)
    assert table.tolist() == [[10, 0]] * 3 + [[0, 10]] * 2
    assert block_table(5, 0, np.zeros((0, 2)), 0, 10).shape == (0, 2)


def test_block_table_counts_follow_binomial_oracle():
    # a label's count per block is Binomial(n0, p), and blocks are independent;
    # both checks come from scipy, not from numpy's sampler
    n0, p_label, n_blocks = 40, 0.3, 4_000
    probs = np.array([p_label, 0.5, 0.2])
    counts = block_table(2024, 3, probs, n_blocks * n0, n0)[:, 0]
    pmf = stats.binom.pmf(np.arange(n0 + 1), n0, p_label)
    # pool the tails so every bin expects at least 5 blocks
    keep = np.flatnonzero(pmf * n_blocks >= 5)
    lo, hi = keep[0], keep[-1]
    observed = np.bincount(counts, minlength=n0 + 1)
    obs_bins = np.concatenate([[observed[:lo + 1].sum()], observed[lo + 1:hi],
                               [observed[hi:].sum()]])
    exp_bins = n_blocks * np.concatenate([[pmf[:lo + 1].sum()], pmf[lo + 1:hi],
                                          [pmf[hi:].sum()]])
    chi2 = stats.chisquare(obs_bins, exp_bins * obs_bins.sum() / exp_bins.sum())
    assert chi2.pvalue > 1e-3
    adjacent = stats.pearsonr(counts[:-1], counts[1:])
    assert adjacent.pvalue > 1e-3


# --- individual successions against the batched runner -----------------------

def test_folded_successions_follow_born_law_in_full_blocks():
    # the individual level: one Born-law draw per succession, folded into
    # blocks of n0 consecutive outcomes, against the batched runner
    setup = np.random.default_rng(31)
    psi, obs = random_state(3, setup), random_observable("A", 3, setup)
    n, n0 = 10_000, 1000
    # oracle: |<u_j|psi>|^2 from the eigenbasis columns
    pi = np.array([abs(np.vdot(obs.eigenbasis[:, j], psi.amplitudes)) ** 2
                   for j in range(3)])
    coded = np.random.default_rng(2718).choice(3, size=n, p=pi / pi.sum())
    folded = np.array([np.bincount(coded[k:k + n0], minlength=3)
                       for k in range(0, n, n0)])
    counts = folded.sum(axis=0)
    assert stats.chisquare(counts, n * pi / pi.sum()).pvalue > 1e-3
    # the batched runner: the same block layout, and counts from one law
    batched = run_successions(Simple("G", state=psi), obs, n, 0.02, 0.05, n0, 2718)
    assert batched.blocks.shape == folded.shape
    assert batched.blocks.sum(axis=1).tolist() == [n0] * (n // n0)
    both = np.array([counts, batched.blocks.sum(axis=0)])
    assert stats.chi2_contingency(both).pvalue > 1e-3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qfact import finprob, hilbert
from qfact.errors import DestroyedSpecimenError, DimensionMismatchError
from qfact.genesis import (
    Composed,
    Evolved,
    MultiSystem,
    Simple,
    generate,
    mes_coding_nc,
    mes_complete,
    resolve_state,
    run_complete_successions,
    run_laws,
    run_successions,
)
from qfact.hilbert import OracleState, born_law, compose_superposition, random_observable, random_state
from qfact.seeding import block_table


# --- generate ---------------------------------------------------------------

def test_generate_simple_reproduces_state(rng):
    psi = random_state(3, rng)
    s = generate(Simple("G", state=psi))
    assert s.alive
    assert s.hidden_state is psi


def test_evolved_zero_dt_same_law(rng):
    psi = random_state(3, rng)
    h = hilbert.HamiltonianSpec(np.diag([1.0, 2.0, 3.0]).astype(complex))
    g0 = Simple("G", state=psi)
    g = Evolved("Gt", base=g0, hamiltonian=h, dt=0.0)
    obs = random_observable("A", 3, rng)
    assert born_law(resolve_state(g), obs) == \
        pytest.approx(born_law(psi, obs), abs=1e-12)


def test_composed_matches_superposition(rng):
    psi1, psi2 = random_state(4, rng), random_state(4, rng)
    w = (0.8 + 0j, 0.6j)
    g = Composed("Gc", weights=w,
                 components=(Simple("G1", state=psi1), Simple("G2", state=psi2)))
    expected = compose_superposition(list(w), [psi1, psi2])
    assert resolve_state(g).amplitudes == \
        pytest.approx(expected.amplitudes, abs=1e-12)


# --- non-composed coding measurement ----------------------------------------

def test_eigenstate_specimen_codes_its_eigenvalue(rng):
    obs = random_observable("A", 3, rng)
    psi = OracleState(obs.eigenbasis[:, 1])
    for k in range(10):
        s = generate(Simple("G", state=psi))
        out = mes_coding_nc(s, obs, np.random.default_rng(k))
        assert out.eigen_index == 1
        assert out.eigenvalue == obs.eigenvalues[1]
        assert out.label == "A:1"


def test_specimen_destroyed_after_measurement(rng):
    psi = random_state(2, rng)
    obs = random_observable("A", 2, rng)
    s = generate(Simple("G", state=psi))
    mes_coding_nc(s, obs, rng)
    assert not s.alive
    with pytest.raises(DestroyedSpecimenError):
        mes_coding_nc(s, obs, rng)


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


# --- run_successions --------------------------------------------------------

def test_run_successions_eigenstate_delta_law(rng):
    obs = random_observable("A", 3, rng)
    psi = OracleState(obs.eigenbasis[:, 0])
    law = run_successions(Simple("G", state=psi), obs, 100, 0.02, 0.05, 10, 5)
    assert finprob.frequencies(law) == {"A:0": 1.0, "A:1": 0.0, "A:2": 0.0}


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


def test_one_factor_runs_are_the_complete_measurement_runs():
    # mes_coding_nc and run_successions are the one-factor cases of
    # mes_complete and run_complete_successions, draw for draw
    setup = np.random.default_rng(41)
    psi, obs = random_state(3, setup), random_observable("A", 3, setup)
    g = MultiSystem("G", joint_state=psi, factor_dims=(3,))
    g1, g2 = np.random.default_rng(9), np.random.default_rng(9)
    coded = [mes_coding_nc(generate(g), obs, g1, trial_id=t) for t in range(200)]
    assert coded == [mes_complete(generate(g), [obs], g2, trial_id=t)[0]
                     for t in range(200)]
    assert len({c.eigen_index for c in coded}) == 3
    law = run_successions(g, obs, 25_000, 0.02, 0.05, 1_000, 17, stream=3)
    joint, (marginal,) = run_complete_successions(g, [obs], 25_000, 0.02, 0.05,
                                                  1_000, 17, stream=3)
    assert joint == law and marginal == law


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


# --- multi-system complete measurements --------------------------------------

def joint_marginal_oracle(joint_amps, dims, factor, bases):
    """Brute-force marginal law: loop every joint index tuple."""
    law = np.zeros(dims[factor])
    basis = bases[0]
    for b in bases[1:]:
        basis = np.kron(basis, b)
    joint_law = np.abs(basis.conj().T @ joint_amps) ** 2
    for flat, prob in enumerate(joint_law):
        idx = np.unravel_index(flat, dims)
        law[idx[factor]] += prob
    return law


def test_complete_measurement_one_group_per_factor(rng):
    joint = random_state(4, rng)
    g = MultiSystem("G2", joint_state=joint, factor_dims=(2, 2))
    obs = [random_observable("A1", 2, rng), random_observable("A2", 2, rng)]
    s = generate(g)
    outcomes = mes_complete(s, obs, rng)
    assert len(outcomes) == 2
    assert [o.observable for o in outcomes] == ["A1", "A2"]
    assert not s.alive
    with pytest.raises(DestroyedSpecimenError):
        mes_complete(s, obs, rng)


def test_multisystem_marginals_match_partial_trace_oracle(rng):
    joint = random_state(6, rng)
    g = MultiSystem("G23", joint_state=joint, factor_dims=(2, 3))
    obs = [random_observable("A1", 2, rng), random_observable("A2", 3, rng)]
    n = 200_000
    _, marginals = run_complete_successions(g, obs, n, 0.02, 0.05, 10_000, 17)
    for factor in range(2):
        oracle = joint_marginal_oracle(joint.amplitudes, (2, 3), factor,
                                       [o.eigenbasis for o in obs])
        freq = finprob.frequency_vector(marginals[factor])
        sigma = np.sqrt(oracle * (1 - oracle) / n)
        assert np.all(np.abs(freq - oracle) <= 3 * sigma)


def test_complete_successions_reject_observables_off_the_factors(rng):
    # observable i measures factor i: a 3-level then a 2-level observable do
    # not fit a (2, 3) factorization, though their dims multiply to 6
    g = MultiSystem("G23", joint_state=random_state(6, rng), factor_dims=(2, 3))
    obs = [random_observable("A1", 3, rng), random_observable("A2", 2, rng)]
    with pytest.raises(DimensionMismatchError, match="factor dims"):
        run_complete_successions(g, obs, 1_000, 0.02, 0.05, 100, 17)


def test_multisystem_joint_equals_factor_outcomes(rng):
    joint = random_state(4, rng)
    g = MultiSystem("G22", joint_state=joint, factor_dims=(2, 2))
    obs = [hilbert.basis_observable("A1", 2), hilbert.basis_observable("A2", 2)]
    joint_law, marginals = run_complete_successions(g, obs, 10_000,
                                                    0.02, 0.05, 1_000, 23)
    jf = finprob.frequency_vector(joint_law)
    # marginal of the joint equals each factor law exactly (same stream)
    assert marginals[0].counts["A1:0"] == \
        joint_law.counts["A1*A2:0"] + joint_law.counts["A1*A2:1"]
    assert marginals[1].counts["A2:0"] == \
        joint_law.counts["A1*A2:0"] + joint_law.counts["A1*A2:2"]
    # block by block: sum the joint row over every flat index of a factor
    for factor, marginal in enumerate(marginals):
        expected = np.zeros(marginal.blocks.shape, dtype=np.int64)
        for flat in range(4):
            j = np.unravel_index(flat, (2, 2))[factor]
            expected[:, j] += joint_law.blocks[:, flat]
        assert np.array_equal(marginal.blocks, expected)
    assert abs(jf.sum() - 1.0) < 1e-12


# --- individual successions against the batched runners ----------------------

def test_folded_successions_follow_born_law_in_full_blocks():
    # the individual level: one generate-then-measure succession per coded
    # outcome, folded into the law one label at a time
    setup = np.random.default_rng(31)
    psi, obs = random_state(3, setup), random_observable("A", 3, setup)
    g, gen = Simple("G", state=psi), np.random.default_rng(2718)
    n, n0 = 10_000, 1000
    law = finprob.FactualLaw.empty(obs.labels(), block_size_n0=n0)
    for _ in range(n):
        law = finprob.accumulate(
            law, mes_coding_nc(generate(g), obs, gen).label)
    assert law.blocks.sum(axis=1).tolist() == [n0] * (n // n0)
    # oracle: |<u_j|psi>|^2 from the eigenbasis columns
    pi = np.array([abs(np.vdot(obs.eigenbasis[:, j], psi.amplitudes)) ** 2
                   for j in range(3)])
    counts = law.blocks.sum(axis=0)
    assert stats.chisquare(counts, n * pi / pi.sum()).pvalue > 1e-3
    # the batched runner: the same block layout, and counts from one law
    batched = run_successions(g, obs, n, 0.02, 0.05, n0, 2718)
    assert batched.blocks.shape == law.blocks.shape
    both = np.array([counts, batched.blocks.sum(axis=0)])
    assert stats.chi2_contingency(both).pvalue > 1e-3


def test_complete_measurement_outcomes_follow_joint_born_law():
    setup = np.random.default_rng(32)
    joint = random_state(6, setup)
    g = MultiSystem("G23", joint_state=joint, factor_dims=(2, 3))
    obs = [random_observable("A1", 2, setup), random_observable("A2", 3, setup)]
    gen, n = np.random.default_rng(2719), 10_000
    flat = [np.ravel_multi_index(
                [o.eigen_index for o in mes_complete(generate(g), obs, gen)],
                (2, 3))
            for _ in range(n)]
    counts = np.bincount(flat, minlength=6)
    # oracle: |<u_i (x) v_j|psi>|^2 at flat index 3 i + j
    pi = np.array([abs(np.vdot(np.kron(obs[0].eigenbasis[:, i],
                                       obs[1].eigenbasis[:, j]),
                               joint.amplitudes)) ** 2
                   for i in range(2) for j in range(3)])
    assert stats.chisquare(counts, n * pi / pi.sum()).pvalue > 1e-3
    batched, _ = run_complete_successions(g, obs, n, 0.02, 0.05, 1000, 2719)
    both = np.array([counts, batched.blocks.sum(axis=0)])
    assert stats.chi2_contingency(both).pvalue > 1e-3

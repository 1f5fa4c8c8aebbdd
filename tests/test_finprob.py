import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qfact import finprob
from qfact.errors import EmptyLawError, InsufficientBlocksError, UnknownLabelError
from qfact.finprob import FactualLaw, accumulate, check_convergence, frequencies
from qfact.seeding import trial_generator

LABELS = ("a1", "a2")


def fresh(spectrum=LABELS, eps=0.02, delta=0.05, n0=4):
    return FactualLaw.empty(spectrum, eps, delta, n0)


def fold(law, indices):
    """Accumulate a stream of spectrum indices one outcome at a time."""
    for i in indices:
        law = accumulate(law, law.spectrum[i])
    return law


# --- accumulate -------------------------------------------------------------

def test_accumulate_single_increment():
    law = accumulate(fresh(), "a1")
    assert law.counts == {"a1": 1, "a2": 0}
    assert law.n_total == 1


def test_accumulate_disjoint_increment():
    law = accumulate(accumulate(fresh(), "a1"), "a2")
    assert law.counts == {"a1": 1, "a2": 1}
    assert law.n_total == 2


def test_accumulate_unknown_label_rejected():
    with pytest.raises(UnknownLabelError):
        accumulate(fresh(), "a3")


def test_accumulate_opens_new_block_when_full():
    law = fresh(n0=2)
    for lab in ("a1", "a2", "a1"):
        law = accumulate(law, lab)
    assert law.blocks.shape == (2, 2)
    assert law.blocks.sum(axis=1).tolist() == [2, 1]


def test_accumulate_is_value_like():
    base = accumulate(fresh(), "a1")
    accumulate(base, "a2")
    assert base.counts == {"a1": 1, "a2": 0}


@st.composite
def index_streams(draw):
    n_labels = draw(st.integers(min_value=1, max_value=4))
    n0 = draw(st.integers(min_value=1, max_value=6))
    stream = draw(st.lists(st.integers(min_value=0, max_value=n_labels - 1),
                           max_size=50))
    return n_labels, n0, stream


@settings(max_examples=100, deadline=None)
@given(index_streams())
def test_accumulate_fold_matches_block_bincount(case):
    n_labels, n0, stream = case
    law = fold(fresh(spectrum=tuple(f"a{j}" for j in range(n_labels)),
                     n0=n0), stream)
    # oracle: one bincount per run of n0 consecutive outcomes
    assert law.blocks.tolist() == [
        np.bincount(stream[k:k + n0], minlength=n_labels).tolist()
        for k in range(0, len(stream), n0)]


# --- frequencies ------------------------------------------------------------

def test_frequencies_arithmetic():
    law = fold(fresh(), [0, 0, 0, 1])
    assert frequencies(law) == {"a1": 0.75, "a2": 0.25}


def test_frequencies_delta_law():
    law = fold(fresh(), [0, 0, 0, 0, 0])
    assert frequencies(law) == {"a1": 1.0, "a2": 0.0}


def test_frequencies_empty_law_errors():
    with pytest.raises(EmptyLawError):
        frequencies(fresh())


def test_frequency_sum_exact_with_shared_denominator():
    law = fold(fresh(), [0, 1, 0, 1, 1, 1, 0])
    assert sum(law.counts.values()) / law.n_total == 1.0


# --- check_convergence ------------------------------------------------------

def test_identical_blocks_stable_zero_dispersion():
    blocks = [{"a1": 3, "a2": 1}] * 10
    law = FactualLaw.from_block_counts(LABELS, blocks, epsilon=1e-9,
                                       delta=0.05, block_size_n0=4)
    verdict = check_convergence(law)
    assert verdict.stable
    assert verdict.worst_deviation == 0.0
    assert verdict.pooled_frequencies == {"a1": 0.75, "a2": 0.25}


def test_insufficient_blocks_error():
    law = FactualLaw.from_block_counts(LABELS, [{"a1": 2, "a2": 2}],
                                       block_size_n0=4)
    with pytest.raises(InsufficientBlocksError):
        check_convergence(law)


def binomial_block_failure_probability(n0, p, eps):
    """Oracle: chance one block's frequency lands more than eps away from p,
    from the exact binomial tail."""
    lo = int(np.floor((p - eps) * n0))
    hi = int(np.ceil((p + eps) * n0))
    return stats.binom.cdf(lo - 1, n0, p) + stats.binom.sf(hi, n0, p)


def test_fair_coin_blocks_stable():
    # oracle (computed before the fixture): at n0=1e4, p=0.5, eps=0.02 a block
    # misses by more than eps with probability ~6.3e-5, so >5 misses out of
    # 100 blocks (the delta=0.05 threshold) is essentially impossible
    p_fail = binomial_block_failure_probability(10_000, 0.5, 0.02)
    assert p_fail < 1e-4
    assert stats.binom.sf(5, 100, p_fail) < 1e-15

    for rep in range(10):
        blocks = []
        for b in range(100):
            c = int(trial_generator(900 + rep, b).binomial(10_000, 0.5))
            blocks.append({"a1": c, "a2": 10_000 - c})
        law = FactualLaw.from_block_counts(LABELS, blocks, epsilon=0.02,
                                           delta=0.05, block_size_n0=10_000)
        assert check_convergence(law).stable


def test_drift_blocks_unstable():
    # oracle: first 50 blocks sit near 0.3, last 50 near 0.7, pooled near 0.5;
    # every block deviates by ~0.2 > eps=0.1, so the within-eps fraction is ~0
    blocks = []
    for b in range(100):
        p = 0.3 if b < 50 else 0.7
        c = int(trial_generator(77, b).binomial(10_000, p))
        blocks.append({"a1": c, "a2": 10_000 - c})
    law = FactualLaw.from_block_counts(LABELS, blocks, epsilon=0.1,
                                       delta=0.05, block_size_n0=10_000)
    verdict = check_convergence(law)
    assert not verdict.stable
    assert verdict.worst_deviation > 0.15
    assert all(f < 0.05 for f in
               verdict.per_label_fraction_within_epsilon.values())


def test_check_convergence_deterministic():
    blocks = [{"a1": 2, "a2": 2}, {"a1": 3, "a2": 1}, {"a1": 1, "a2": 3}]
    law = FactualLaw.from_block_counts(LABELS, blocks, block_size_n0=4)
    assert check_convergence(law) == check_convergence(law)


def test_partial_final_block_excluded():
    blocks = [{"a1": 4}, {"a2": 4}, {"a1": 1}]
    law = FactualLaw.from_block_counts(LABELS, blocks, block_size_n0=4)
    verdict = check_convergence(law)
    # pooled over the two complete blocks only
    assert verdict.pooled_frequencies == {"a1": 0.5, "a2": 0.5}


# --- serialization ----------------------------------------------------------

def test_csv_round_trip_counts_bit_exact():
    law = fold(fresh(eps=0.015, delta=0.07, n0=3), [0, 1, 1, 0, 1, 1, 1])
    back = finprob.from_csv(finprob.to_csv(law))
    assert back.counts == law.counts
    assert back.n_total == law.n_total
    assert (back.epsilon, back.delta, back.block_size_n0) == \
        (law.epsilon, law.delta, law.block_size_n0)


def test_json_round_trip_full():
    law = fold(fresh(n0=3), [0, 1, 1, 0, 1, 1, 1])
    back = finprob.from_json(finprob.to_json(law))
    assert back == law


def test_law_invariants_enforced():
    with pytest.raises(ValueError):
        FactualLaw(LABELS, [[1, 0, 0]], 4, 0.02, 0.05)
    with pytest.raises(ValueError):
        FactualLaw(LABELS, [1, 0], 4, 0.02, 0.05)
    with pytest.raises(ValueError):
        FactualLaw(LABELS, [[1, -1]], 4, 0.02, 0.05)
    with pytest.raises(UnknownLabelError):
        FactualLaw.from_block_counts(LABELS, [{"a1": 1}, {"zz": 1}])
    law = FactualLaw(LABELS, [[1, 2]], 4, 0.02, 0.05)
    with pytest.raises(ValueError):
        law.blocks[0, 0] = 5
    assert law.counts == {"a1": 1, "a2": 2}
    assert law.n_total == 3


@pytest.mark.parametrize("n0", [True, 2.5, 0, -3])
def test_law_block_size_must_be_a_positive_integer(n0):
    # a bool or a fraction would be written to law.csv as "True" or "2.5",
    # which no reader takes back as a block size
    with pytest.raises((TypeError, ValueError)):
        FactualLaw(LABELS, [[1, 2]], n0, 0.02, 0.05)


def test_law_block_size_integral_float_read_as_int():
    # 10.0 follows the scenario schema's integer rule, and reads back
    law = FactualLaw(LABELS, [[1, 2]], 10.0, 0.02, 0.05)
    assert type(law.block_size_n0) is int and law.block_size_n0 == 10
    assert finprob.to_csv(law).splitlines()[1].startswith("3,10,")
    assert finprob.from_csv(finprob.to_csv(law)).block_size_n0 == 10


def test_law_total_must_stay_below_2_63():
    # an int64 table sum would wrap to -2**63
    with pytest.raises(ValueError, match="below 2\\*\\*63"):
        FactualLaw(LABELS, [[2 ** 62, 0], [2 ** 62, 0]], 2 ** 62, 0.02, 0.05)
    law = FactualLaw(LABELS, [[2 ** 62, 0], [2 ** 61, 2 ** 60]], 2 ** 62, 0.02, 0.05)
    assert law.n_total == 2 ** 62 + 2 ** 61 + 2 ** 60


def test_json_declared_totals_must_match_block_table():
    doc = finprob.to_json_dict(fold(fresh(n0=3), [0, 1, 1, 0, 1]))
    bad_counts = dict(doc, counts={"a1": 3, "a2": 2})
    bad_total = dict(doc, n_total=6)
    for bad in (bad_counts, bad_total):
        with pytest.raises(ValueError):
            finprob.from_json_dict(bad)
    with pytest.raises(KeyError):
        finprob.from_json_dict({k: v for k, v in doc.items()
                                if k != "block_history"})
    with pytest.raises(UnknownLabelError):
        finprob.from_json_dict(dict(doc, block_history=[{"a1": 2, "zz": 1},
                                                        {"a2": 2}]))
    with pytest.raises(ValueError, match="unknown law key 'epsilonn'"):
        finprob.from_json_dict(dict(doc, epsilonn=0.5))


@pytest.mark.parametrize("field,value", [
    ("block_history", [{"a1": 1.5, "a2": 2}, {"a1": 1, "a2": 1}]),
    ("block_history", [{"a1": True, "a2": 2}, {"a1": 1, "a2": 1}]),
    ("block_history", [{"a1": "1", "a2": 2}, {"a1": 1, "a2": 1}]),
    ("block_history", [[["a1", 1], ["a2", 2]], {"a1": 1, "a2": 1}]),
    ("block_history", {"a1": 2, "a2": 3}),
    ("block_size_n0", 3.5),
    ("n_total", 5.9),
    ("counts", {"a1": 2.5, "a2": 3}),
], ids=["count_float", "count_bool", "count_string", "block_pairs",
        "history_object", "n0_float", "n_total_float", "declared_float"])
def test_json_non_integers_rejected(field, value):
    # a reader that truncates would read each value but the history object
    # as the law's own
    doc = finprob.to_json_dict(fold(fresh(n0=3), [0, 1, 1, 0, 1]))
    with pytest.raises(TypeError):
        finprob.from_json_dict(dict(doc, **{field: value}))


def test_json_integral_float_totals_accepted():
    # n0 and the declared totals follow the scenario schema's integer rule
    law = fold(fresh(n0=3), [0, 1, 1, 0, 1])
    doc = dict(finprob.to_json_dict(law), block_size_n0=3.0, n_total=5.0,
               counts={"a1": 2.0, "a2": 3e0})
    assert finprob.from_json_dict(doc) == law


@st.composite
def block_tables(draw):
    """A law of d = 1-8 labels and 0-50 blocks of n0 trials, the last one
    possibly partial; small n0 leaves many zero counts."""
    d = draw(st.integers(min_value=1, max_value=8))
    n0 = draw(st.integers(min_value=1, max_value=6))
    n_blocks = draw(st.integers(min_value=0, max_value=50))
    sizes = [n0] * n_blocks
    if sizes:
        sizes[-1] = draw(st.integers(min_value=1, max_value=n0))
    rows = [np.bincount(draw(st.lists(st.integers(0, d - 1), min_size=k,
                                      max_size=k)), minlength=d)
            for k in sizes]
    table = np.reshape(rows, (n_blocks, d)).astype(np.int64)
    return FactualLaw(tuple(f"a{j}" for j in range(d)), table, n0, 0.02, 0.05)


@settings(max_examples=100, deadline=None)
@given(block_tables(), st.randoms(use_true_random=False))
def test_block_counts_scatter_matches_row_loop(law, rnd):
    doc = json.loads(json.dumps(finprob.to_json_dict(law)))
    assert finprob.from_json_dict(doc) == law
    # the same blocks with their labels in a shuffled order, zeros left out
    blocks = []
    for row in law.blocks.tolist():
        labels = [lab for lab, c in zip(law.spectrum, row) if c]
        rnd.shuffle(labels)
        blocks.append({lab: row[law.spectrum.index(lab)] for lab in labels})
    # reference: one list per block in spectrum order
    reference = [[block.get(lab, 0) for lab in law.spectrum] for block in blocks]
    built = FactualLaw.from_block_counts(law.spectrum, blocks, law.epsilon,
                                         law.delta, law.block_size_n0)
    assert built.blocks.tolist() == reference
    assert built == law
    if blocks:
        unknown = sorted(rnd.sample(["zz", "b0", "a9", "x"], rnd.randint(1, 4)))
        for lab in unknown:
            blocks[rnd.randrange(len(blocks))][lab] = 1
        with pytest.raises(UnknownLabelError, match=re.escape(str(unknown))):
            FactualLaw.from_block_counts(law.spectrum, blocks)

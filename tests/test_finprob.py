import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qfact import finprob
from qfact.errors import EmptyLawError, InsufficientBlocksError, UnknownLabelError
from qfact.finprob import FactualLaw, check_convergence, frequency_vector
from qfact.seeding import block_table, trial_generator

LABELS = ("a1", "a2")


def fresh(spectrum=LABELS, eps=0.02, delta=0.05, n0=4):
    return FactualLaw.empty(spectrum, eps, delta, n0)


def fold(law, indices):
    """The law of a stream of spectrum indices, with the metadata of the
    empty ``law``: one bincount per n0 consecutive outcomes."""
    n0, d = law.block_size_n0, len(law.spectrum)
    rows = [np.bincount(indices[k:k + n0], minlength=d)
            for k in range(0, len(indices), n0)]
    return FactualLaw(law.spectrum, np.reshape(rows, (-1, d)), n0, law.epsilon,
                      law.delta)


# --- frequencies ------------------------------------------------------------

def test_frequencies_arithmetic():
    law = fold(fresh(), [0, 0, 0, 1])
    assert frequency_vector(law).tolist() == [0.75, 0.25]


def test_frequencies_delta_law():
    law = fold(fresh(), [0, 0, 0, 0, 0])
    assert frequency_vector(law).tolist() == [1.0, 0.0]


def test_frequencies_empty_law_errors():
    with pytest.raises(EmptyLawError):
        frequency_vector(fresh())


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
    # law.csv carries the metadata and the counts, each read back exactly
    law = fold(fresh(eps=0.015, delta=0.07, n0=3), [0, 1, 1, 0, 1, 1, 1])
    rows = list(csv.reader(io.StringIO(finprob.to_csv(law))))
    assert rows[:3] == [["n_total", "block_size_n0", "epsilon", "delta"],
                        ["7", "3", "0.015", "0.07"], ["label", "count"]]
    assert {lab: int(c) for lab, c in rows[3:]} == law.counts == {"a1": 2, "a2": 5}


def test_json_round_trip_full():
    law = fold(fresh(n0=3), [0, 1, 1, 0, 1, 1, 1])
    back = finprob.from_json_dict(json.loads(json.dumps(finprob.to_json_dict(law))))
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


def test_law_numpy_integers_are_integers():
    # a block size computed with numpy is an integer like any other
    law = FactualLaw(LABELS, [[1, 2]], np.int64(4), 0.02, 0.05)
    assert type(law.block_size_n0) is int and law.block_size_n0 == 4
    assert law == FactualLaw(LABELS, [[1, 2]], 4, 0.02, 0.05)
    for n0 in (np.True_, True, np.uint64(2 ** 63)):
        with pytest.raises(TypeError, match="expected an integer"):
            FactualLaw(LABELS, [[1, 2]], n0, 0.02, 0.05)
    # so are counts computed with numpy; a numpy bool is not, nor is a float
    law = FactualLaw.from_block_counts(
        ("a", "b"), [{"a": np.int64(3), "b": 1}], block_size_n0=4)
    assert law == FactualLaw.from_block_counts(("a", "b"), [{"a": 3, "b": 1}],
                                               block_size_n0=4)
    # exact past float64's 53 bits, with unsigned and signed counts mixed
    big = FactualLaw.from_block_counts(
        ("a", "b"), [{"a": np.uint64(2 ** 62 + 1), "b": np.int64(2 ** 61)}],
        block_size_n0=2 ** 62 + 1 + 2 ** 61)
    assert big.counts == {"a": 2 ** 62 + 1, "b": 2 ** 61}
    for count in (np.True_, True, np.float64(3.0), 3.0):
        with pytest.raises(TypeError, match="block counts must be integers"):
            FactualLaw.from_block_counts(("a", "b"), [{"a": count, "b": 1}],
                                         block_size_n0=4)


def test_law_total_must_stay_below_2_63():
    # an int64 table sum would wrap to -2**63
    with pytest.raises(ValueError, match="below 2\\*\\*63"):
        FactualLaw(LABELS, [[2 ** 62, 0], [2 ** 62, 0]], 2 ** 62, 0.02, 0.05)
    law = FactualLaw(LABELS, [[2 ** 62, 0], [2 ** 61, 2 ** 60]], 2 ** 62, 0.02, 0.05)
    assert law.n_total == 2 ** 62 + 2 ** 61 + 2 ** 60


def test_law_total_exact_up_to_2_63_minus_1():
    # a float64 sum rounds both totals up to 2**63
    law = FactualLaw(LABELS, [[2 ** 62, 0], [2 ** 62 - 1, 0]], 2 ** 62, 0.02, 0.05)
    assert law.n_total == 2 ** 63 - 1
    law = FactualLaw(LABELS, [[2 ** 63 - 2, 1]], 2 ** 63 - 1, 0.02, 0.05)
    assert law.n_total == 2 ** 63 - 1
    assert len(law.complete_blocks()) == 1


def test_wrapping_block_sum_refused():
    # the block's int64 sum wraps to exactly n0 = 2**62
    with pytest.raises(ValueError, match="the trial total must stay below 2\\*\\*63"):
        FactualLaw(("a", "b", "c"), [[2 ** 63 - 1, 2 ** 63 - 1, 2 ** 62 + 2]],
                   2 ** 62, 0.02, 0.05)


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


def law_doc(blocks, n0):
    """A law JSON document of the ``(n_blocks, n_labels)`` table ``blocks``
    over the labels a0, a1, ..., written by hand, not by :func:`to_json_dict`."""
    blocks = np.asarray(blocks, dtype=np.int64)
    spectrum = [f"a{j}" for j in range(blocks.shape[1])]
    return {"spectrum": spectrum,
            "counts": dict(zip(spectrum, blocks.sum(axis=0).tolist())),
            "n_total": int(blocks.sum()), "block_size_n0": n0,
            "epsilon": 0.02, "delta": 0.05,
            "block_history": [dict(zip(spectrum, row)) for row in blocks.tolist()]}


def each_builder(blocks, n0):
    """Build the law of ``blocks`` with every builder in turn."""
    doc = law_doc(blocks, n0)
    yield lambda: FactualLaw(doc["spectrum"], blocks, n0, 0.02, 0.05)
    yield lambda: FactualLaw.from_block_counts(doc["spectrum"],
                                               doc["block_history"], 0.02, 0.05, n0)
    yield lambda: finprob.from_json_dict(doc)


@pytest.mark.parametrize("history,named", [
    ([[2, 2], [1, 0]], (0, 4)),
    ([[1, 1], [1, 2], [1, 0]], (0, 2)),
    ([[1, 2], [2, 2]], (1, 4)),
], ids=["block_over_n0", "partial_block_not_last", "last_block_over_n0"])
def test_json_block_layout_enforced(history, named):
    # a block of more than n0 trials, or a partial block before the last,
    # would be left out of the verdict with all of its trials
    for build in each_builder(history, 3):
        with pytest.raises(ValueError, match=r"block %d holds %d trials" % named):
            build()


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
@given(st.integers(1, 8), st.integers(0, 200), st.integers(1, 30),
       st.integers(0, 2 ** 32), st.data())
def test_block_layout_invariant(d, n, n0, seed, data):
    # a drawn block table has the layout: its complete blocks are exactly the
    # rows of n0 trials
    table = block_table(seed, 0, np.full(d, 1 / d), n, n0)
    law = FactualLaw(tuple(f"a{j}" for j in range(d)), table, n0, 0.02, 0.05)
    assert np.array_equal(law.complete_blocks(),
                          table[table.sum(axis=1) == n0])
    assert law.n_total == n
    # one block moved off n0 trials, before the last or past n0 in the last,
    # is refused by every builder
    if n == 0:
        return
    row = data.draw(st.integers(0, len(table) - 1))
    bad = table.copy()
    if row < len(table) - 1 and data.draw(st.booleans()):
        bad[row, data.draw(st.integers(0, d - 1))] += data.draw(st.integers(1, 5))
    elif row < len(table) - 1:
        bad[row] = 0
        bad[row, 0] = data.draw(st.integers(0, n0 - 1))
    else:
        bad[row, 0] += n0 + 1 - bad[row].sum()
    for build in each_builder(bad, n0):
        with pytest.raises(ValueError, match=r"block \d+ holds"):
            build()


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

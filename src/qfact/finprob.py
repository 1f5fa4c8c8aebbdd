"""Finite, effective probability laws built from coded outcome streams.

A law is one ``(n_blocks, n_labels)`` integer table over a fixed spectrum
of labels, together with (epsilon, delta, n0) stability metadata.  The
trial stream is chunked into consecutive blocks of n0 trials, one table row
per block in trial order; the counts and the trial total are column and
table sums.  A law is declared stable when, for every label, at least a
(1 - delta) fraction of the complete blocks has a block frequency within
epsilon of the frequency pooled over all complete blocks.  The trailing
partial block never enters the verdict, so every judged block has the same
sample size.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import EmptyLawError, InsufficientBlocksError, UnknownLabelError
from .validation import check_in_unit_interval, check_integer, check_real

DEFAULT_EPSILON = 0.02
DEFAULT_DELTA = 0.05
DEFAULT_BLOCK_SIZE = 10_000


@dataclass(eq=False)
class FactualLaw:
    """Relative-frequency law stored as a block table.

    ``blocks`` is a read-only ``(n_blocks, n_labels)`` int64 table, one row
    per block of trials in trial order and one column per spectrum label; a
    block is complete when its row sums to ``block_size_n0``.  Value-like:
    operations return new laws and never mutate their input, and two laws
    are equal when their metadata and tables are.
    """

    spectrum: tuple[str, ...]
    blocks: np.ndarray
    block_size_n0: int
    epsilon: float
    delta: float

    def __post_init__(self):
        self.spectrum = tuple(self.spectrum)
        if len(set(self.spectrum)) != len(self.spectrum):
            raise ValueError("spectrum labels must be unique")
        self.block_size_n0 = check_integer(self.block_size_n0)
        if self.block_size_n0 < 1:
            raise ValueError("block_size_n0 must be a positive integer")
        self.epsilon = check_in_unit_interval(self.epsilon, "epsilon")
        self.delta = check_in_unit_interval(self.delta, "delta")
        blocks = np.array(self.blocks, dtype=np.int64)
        if blocks.ndim != 2 or blocks.shape[1] != len(self.spectrum):
            raise ValueError("blocks must be an (n_blocks, n_labels) table")
        if (blocks < 0).any():
            raise ValueError("counts must be non-negative")
        # a float64 sum cannot overflow; it misjudges only totals within 2**11
        # of the limit
        if blocks.sum(dtype=np.float64) >= 2.0 ** 63:
            raise ValueError("the trial total must stay below 2**63")
        blocks.flags.writeable = False
        self.blocks = blocks

    def __eq__(self, other):
        if not isinstance(other, FactualLaw):
            return NotImplemented
        return ((self.spectrum, self.block_size_n0, self.epsilon, self.delta)
                == (other.spectrum, other.block_size_n0, other.epsilon,
                    other.delta)
                and np.array_equal(self.blocks, other.blocks))

    @property
    def n_total(self) -> int:
        return int(self.blocks.sum())

    @property
    def counts(self) -> dict[str, int]:
        return dict(zip(self.spectrum, self.blocks.sum(axis=0).tolist()))

    @classmethod
    def empty(cls, spectrum, epsilon=DEFAULT_EPSILON, delta=DEFAULT_DELTA,
              block_size_n0=DEFAULT_BLOCK_SIZE) -> "FactualLaw":
        return cls.from_block_counts(spectrum, [], epsilon, delta, block_size_n0)

    @classmethod
    def from_block_counts(cls, spectrum, blocks, epsilon=DEFAULT_EPSILON,
                          delta=DEFAULT_DELTA, block_size_n0=DEFAULT_BLOCK_SIZE
                          ) -> "FactualLaw":
        """Build a law from a sequence of per-block dicts of int counts (not
        bools) in trial order; a label a block leaves out counts 0 there."""
        spectrum = tuple(spectrum)
        col = {lab: j for j, lab in enumerate(spectrum)}
        if not set(map(type, blocks)) <= {dict}:
            raise TypeError("each block must be an object of label counts")
        try:
            cols = list(map(col.__getitem__, chain.from_iterable(blocks)))
        except KeyError:
            unknown = set(chain.from_iterable(blocks)) - col.keys()
            raise UnknownLabelError(
                f"block labels {sorted(unknown)} not in spectrum {spectrum}") from None
        values = list(chain.from_iterable(map(dict.values, blocks)))
        if not set(map(type, values)) <= {int}:
            raise TypeError("block counts must be integers")
        rows = np.repeat(np.arange(len(blocks)), list(map(len, blocks)))
        table = np.zeros((len(blocks), len(spectrum)), dtype=np.int64)
        table[rows, cols] = values
        return cls(spectrum, table, block_size_n0, epsilon, delta)

    def complete_blocks(self) -> np.ndarray:
        """Rows of the blocks that hold exactly n0 trials."""
        return self.blocks[self.blocks.sum(axis=1) == self.block_size_n0]

    def index_of(self, label: str) -> int:
        try:
            return self.spectrum.index(label)
        except ValueError:
            raise UnknownLabelError(
                f"label {label!r} not in spectrum {self.spectrum}") from None


def accumulate(law: FactualLaw, outcome: str) -> FactualLaw:
    """Record one coded outcome; opens a fresh block when the current one fills."""
    j, table = law.index_of(outcome), law.blocks
    if len(table) and table[-1].sum() < law.block_size_n0:
        table = table.copy()
    else:
        table = np.vstack([table, np.zeros(len(law.spectrum), dtype=np.int64)])
    table[-1, j] += 1
    return replace(law, blocks=table)


def frequencies(law: FactualLaw) -> dict[str, float]:
    """Relative frequencies count/n_total for every spectrum label."""
    return dict(zip(law.spectrum, frequency_vector(law).tolist()))


def frequency_vector(law: FactualLaw) -> np.ndarray:
    totals = law.blocks.sum(axis=0)
    n_total = int(totals.sum())
    if n_total == 0:
        raise EmptyLawError("cannot compute frequencies of an empty law")
    return totals / n_total


@dataclass
class StabilityVerdict:
    stable: bool
    per_label_fraction_within_epsilon: dict[str, float]
    worst_deviation: float
    pooled_frequencies: dict[str, float]
    n_complete_blocks: int


def check_convergence(law: FactualLaw) -> StabilityVerdict:
    """Block-stability verdict: every label must keep at least a (1 - delta)
    fraction of complete blocks within epsilon of the pooled frequency."""
    table = law.complete_blocks()
    if len(table) < 2:
        raise InsufficientBlocksError(
            f"need at least 2 complete blocks, have {len(table)}")
    n0 = law.block_size_n0
    labels = law.spectrum
    block_freq = table / n0
    pooled = table.sum(axis=0) / (len(table) * n0)
    dev = np.abs(block_freq - pooled)
    within = (dev <= law.epsilon).mean(axis=0)
    fractions = {lab: float(within[i]) for i, lab in enumerate(labels)}
    stable = bool(np.all(within >= 1.0 - law.delta))
    return StabilityVerdict(
        stable=stable,
        per_label_fraction_within_epsilon=fractions,
        worst_deviation=float(dev.max()),
        pooled_frequencies={lab: float(pooled[i]) for i, lab in enumerate(labels)},
        n_complete_blocks=len(table),
    )


# --- serialization ---------------------------------------------------------

def to_csv(law: FactualLaw) -> str:
    """Flat CSV: one metadata header line, then (label, count) rows."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n_total", "block_size_n0", "epsilon", "delta"])
    w.writerow([law.n_total, law.block_size_n0, repr(law.epsilon), repr(law.delta)])
    w.writerow(["label", "count"])
    w.writerows(law.counts.items())
    return buf.getvalue()


def from_csv(text: str) -> FactualLaw:
    """Read a flat CSV law.  The format carries counts only, so they come
    back as one block row, which is never complete unless it holds n0."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 3 or rows[0] != ["n_total", "block_size_n0", "epsilon", "delta"]:
        raise ValueError("malformed law CSV header")
    n_total, n0 = int(rows[1][0]), int(rows[1][1])
    eps, delta = float(rows[1][2]), float(rows[1][3])
    spectrum = [lab for lab, _ in rows[3:]]
    counts = [int(c) for _, c in rows[3:]]
    if sum(counts) != n_total:
        raise ValueError("counts must sum to n_total")
    blocks = [dict(zip(spectrum, counts))] if n_total else []
    return FactualLaw.from_block_counts(spectrum, blocks, eps, delta, n0)


JSON_KEYS = ("spectrum", "counts", "n_total", "block_size_n0", "epsilon", "delta",
             "block_history")


def to_json_dict(law: FactualLaw) -> dict:
    return {
        "spectrum": list(law.spectrum),
        "counts": law.counts,
        "n_total": law.n_total,
        "block_size_n0": law.block_size_n0,
        "epsilon": law.epsilon,
        "delta": law.delta,
        "block_history": [{lab: c for lab, c in zip(law.spectrum, row) if c}
                          for row in law.blocks.tolist()],
    }


def from_json_dict(doc: dict) -> FactualLaw:
    """Read :func:`to_json_dict`'s layout, and no other key, with JSON's
    types: a list of string labels, numbers for epsilon and delta, and
    objects of counts; the declared ``counts`` and ``n_total`` must equal
    the sums of the block table."""
    if unknown := [key for key in doc if key not in JSON_KEYS]:
        raise ValueError(f"unknown law key {', '.join(map(repr, unknown))}")
    spectrum, counts = doc["spectrum"], doc["counts"]
    if not isinstance(spectrum, list) or not set(map(type, spectrum)) <= {str}:
        raise TypeError(f"spectrum must be a list of strings, got {spectrum!r}")
    if not isinstance(counts, dict):
        raise TypeError(f"counts must be an object of label counts, got {counts!r}")
    law = FactualLaw.from_block_counts(
        spectrum, doc["block_history"], check_real(doc["epsilon"]),
        check_real(doc["delta"]), check_integer(doc["block_size_n0"]))
    declared = {k: check_integer(v) for k, v in counts.items()}
    if declared != law.counts or check_integer(doc["n_total"]) != law.n_total:
        raise ValueError("declared counts and n_total disagree with the block table")
    return law


def to_json(law: FactualLaw) -> str:
    return json.dumps(to_json_dict(law), sort_keys=True, indent=2) + "\n"


def from_json(text: str) -> FactualLaw:
    return from_json_dict(json.loads(text))

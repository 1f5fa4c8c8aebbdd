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
from dataclasses import dataclass, field
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
    per block of trials in trial order and one column per spectrum label;
    every block but the last holds ``block_size_n0`` trials, the last at
    most that.  ``n_total`` is the exact trial total, kept at construction
    and below 2**63.  Value-like: operations return new laws and never mutate
    their input, and two laws are equal when their metadata and tables are.
    """

    spectrum: tuple[str, ...]
    blocks: np.ndarray
    block_size_n0: int
    epsilon: float
    delta: float
    n_total: int = field(init=False)

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
        sizes, n0 = blocks.sum(axis=1), self.block_size_n0
        total = sizes.sum()
        # int64 sums wrap modulo 2**64, so the total falls short of its
        # float64 sum by a multiple of 2**64 exactly when it reaches 2**63;
        # rounding moves the float64 sum by far less
        if blocks.sum(dtype=np.float64) - total > 2.0 ** 62:
            raise ValueError("the trial total must stay below 2**63")
        # the verdict leaves out only a partial last block
        off = np.flatnonzero(sizes != n0)
        if len(off) and (off[0] < len(sizes) - 1 or sizes[-1] > n0):
            raise ValueError(f"block {off[0]} holds {sizes[off[0]]} trials; each "
                             f"block but the last holds block_size_n0 = {n0}, "
                             f"the last at most that")
        self.n_total = int(total)
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
        """Build a law from a sequence of per-block dicts of int or numpy
        integer counts (not bools) in trial order; a label a block leaves out
        counts 0 there."""
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
        if not (types := set(map(type, values))) <= {int}:  # JSON's counts
            if not all(t is int or issubclass(t, np.integer) for t in types):
                raise TypeError("block counts must be integers")
            values = list(map(int, values))
        rows = np.repeat(np.arange(len(blocks)), list(map(len, blocks)))
        table = np.zeros((len(blocks), len(spectrum)), dtype=np.int64)
        table[rows, cols] = values
        return cls(spectrum, table, block_size_n0, epsilon, delta)

    def complete_blocks(self) -> np.ndarray:
        """Rows of the blocks of exactly n0 trials: all but a partial last."""
        return self.blocks[: self.n_total // self.block_size_n0]


def frequency_vector(law: FactualLaw) -> np.ndarray:
    if law.n_total == 0:
        raise EmptyLawError("cannot compute frequencies of an empty law")
    return law.blocks.sum(axis=0) / law.n_total


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

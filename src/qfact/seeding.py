"""Keyed random streams, the one source of the keyed runs' randomness.

A Generator addressed by (seed, stream) is seeded by the splitmix64 finalizer
of the pair.  The streams of a seed: ``genesis.run_laws`` draws observable
k's law from stream k, a ``stability.sampling`` law takes stream 0; a
pilot-wave run draws positions from stream 0, ionization counts and kicks
from stream 1; phase retrieval draws its restart starts from
``RESTART_STREAM``, which no law takes, as a sampled reconstruction keys its
laws and restarts on one seed.  The ``hilbert.random_*`` test inputs draw
from a Generator.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)

RESTART_STREAM = 1 << 63


def _mix64(x: np.ndarray) -> np.ndarray:
    x = (x + _GOLDEN).astype(np.uint64)
    x ^= x >> _SHIFT30
    x *= _MIX1
    x ^= x >> _SHIFT27
    x *= _MIX2
    x ^= x >> _SHIFT31
    return x


def trial_generator(seed: int, stream: int) -> np.random.Generator:
    """Full numpy Generator for the stream (seed, stream)."""
    # the mix64(0) * golden term keeps the keys that frozen draws were
    # recorded with
    with np.errstate(over="ignore"):
        key = _mix64(np.uint64(stream)
                     ^ _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
                     ^ _mix64(np.uint64(0)) * _GOLDEN)
    return np.random.default_rng(int(key))


def block_table(seed: int, stream: int, probs, n: int, n0: int) -> np.ndarray:
    """The ``(ceil(n / n0), d)`` block table of n trials: one multinomial row
    per block, of n0 trials except a trailing row of n mod n0, all from the
    one Generator ``trial_generator(seed, stream)``.  ``probs`` is one row of
    d probabilities, or one row per block; rows are normalized."""
    if n < 0 or n0 < 1:
        raise ValueError("need n >= 0 trials and a block size n0 >= 1")
    sizes = np.full(-(-n // n0), n0, dtype=np.int64)
    if n % n0:
        sizes[-1] = n % n0
    # a validated state and eigenbasis give a Born law summing to 1 only
    # within about 1e-10, and multinomial rejects a sum above 1 + 1e-12
    p = np.asarray(probs, dtype=float)
    return trial_generator(seed, stream).multinomial(
        sizes, p / p.sum(axis=-1, keepdims=True))

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

import operator

import numpy as np

from .errors import check_array_size

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

RESTART_STREAM = 1 << 63


def _mix64(x: int) -> int:
    """One splitmix64 output from the state x, any integer taken modulo 2**64."""
    x = (x + _GOLDEN) & _MASK
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ x >> 27) * 0x94D049BB133111EB & _MASK
    return x ^ x >> 31


# keeps the keys that frozen draws were recorded with
_SALT = _mix64(0) * _GOLDEN & _MASK


def trial_generator(seed: int, stream: int) -> np.random.Generator:
    """Full numpy Generator for the stream (seed, stream), two integers taken
    modulo 2**64."""
    key = operator.index(stream) ^ _mix64(operator.index(seed)) ^ _SALT
    return np.random.default_rng(_mix64(key))


def block_table(seed: int, stream: int, probs, n: int, n0: int) -> np.ndarray:
    """The ``(ceil(n / n0), d)`` block table of n trials: one multinomial row
    per block, of n0 trials except a trailing row of n mod n0, all from the
    one Generator ``trial_generator(seed, stream)``.  ``probs`` is one row of
    d probabilities, or one row per block; rows are normalized."""
    if n < 0 or n0 < 1:
        raise ValueError("need n >= 0 trials and a block size n0 >= 1")
    n_blocks, p = -(-n // n0), np.asarray(probs, dtype=float)
    check_array_size((n_blocks, p.shape[-1]), np.int64)
    sizes = np.full(n_blocks, n0, dtype=np.int64)
    if n % n0:
        sizes[-1] = n % n0
    # a validated state and eigenbasis give a Born law summing to 1 only
    # within about 1e-10, and multinomial rejects a sum above 1 + 1e-12
    return trial_generator(seed, stream).multinomial(
        sizes, p / p.sum(axis=-1, keepdims=True))

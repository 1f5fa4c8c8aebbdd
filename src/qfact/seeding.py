"""Counter-based random numbers for schedule-independent Monte Carlo.

Every trial draws from a stream addressed by (seed, trial_id, draw_index),
so a batch of trials produces the same numbers no matter how it is split
across workers.  The mixer is the splitmix64 finalizer, applied to the
three coordinates; it vectorizes over trial ids.
"""

from __future__ import annotations

import numbers

import numpy as np

from .validation import check_rng

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)
_SHIFT11 = np.uint64(11)
_INV_2_53 = float(2.0 ** -53)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = (x + _GOLDEN).astype(np.uint64)
    x ^= x >> _SHIFT30
    x *= _MIX1
    x ^= x >> _SHIFT27
    x *= _MIX2
    x ^= x >> _SHIFT31
    return x


def stream_seed(rng) -> int:
    """Seed of the counter streams for an ``rng`` argument: an integer
    passes through unchanged, and a numpy Generator (or None, for fresh
    entropy) supplies one 63-bit draw and nothing else."""
    if isinstance(rng, numbers.Integral):
        return int(rng)
    return int(check_rng(rng).integers(2 ** 63))


def counter_uint64(seed: int, trial_ids, draw: int = 0) -> np.ndarray:
    """Deterministic 64-bit words for the given trials at one draw index."""
    with np.errstate(over="ignore"):
        t = np.asarray(trial_ids, dtype=np.uint64)
        s = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        d = _mix64(np.uint64(draw))
        return _mix64(t ^ s ^ (d * _GOLDEN))


def counter_uniforms(seed: int, trial_ids, draw: int = 0) -> np.ndarray:
    """Uniform[0, 1) floats addressed by (seed, trial_id, draw)."""
    bits = counter_uint64(seed, trial_ids, draw)
    return (bits >> _SHIFT11).astype(np.float64) * _INV_2_53


def trial_generator(seed: int, trial_id: int) -> np.random.Generator:
    """Full numpy Generator for one trial's private stream."""
    root = int(counter_uint64(seed, [trial_id]).item())
    return np.random.default_rng(root)

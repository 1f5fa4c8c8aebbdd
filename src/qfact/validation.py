"""Input validation helpers.

Small check_* functions in the style of scikit-learn's validation utilities:
each one coerces its input to a canonical ndarray form, verifies the
structural invariant, and raises a descriptive error otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError

MAX_DIM = 16

UNITARY_TOL = 1e-10
# Eigenbases that pass check_unitary (|U^H U - I| <= UNITARY_TOL = t
# entrywise, so ||U^H U - I||_2 <= d t) lie within d t / 2 of unitaries, to
# first order; when those share their eigenvectors, the overlaps |<v_k|u_j>|
# lie within d t of 0 or 1.  The transform tau = V^H U between two such bases
# has tau^H tau - I = (U^H U - I) + U^H (V V^H - I) U, whose entries are at
# most t + d t, so (d + 1) t.  Doubled at MAX_DIM for higher orders and
# rounding, this bounds both the overlaps and the transform's unitarity
OVERLAP_TOL = 2 * MAX_DIM * UNITARY_TOL
HERMITIAN_TOL = 1e-10
STATE_NORM_TOL = 1e-12


def check_complex_vector(x, name="vector") -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def check_state_vector(x, name="state") -> np.ndarray:
    """Coerce to a unit-norm complex vector of length 2 to 16."""
    arr = check_complex_vector(x, name)
    d = arr.shape[0]
    if not 2 <= d <= MAX_DIM:
        raise ValueError(f"{name} dimension must be in [2, {MAX_DIM}], got {d}")
    norm = np.linalg.norm(arr)
    if not abs(norm - 1.0) <= STATE_NORM_TOL:  # a NaN norm fails too
        raise ValueError(f"{name} must have unit norm, got {norm!r}")
    return arr


def check_square_matrix(m, dim=None, name="matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} has dimension {arr.shape[0]}, expected {dim}")
    return arr


def check_unitary(m, tol, dim=None, name="matrix") -> np.ndarray:
    """Square ``m`` with every entry of m^H m - I within ``tol``."""
    arr = check_square_matrix(m, dim, name)
    defect = np.max(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0])))
    if defect > tol:
        raise ValueError(f"{name} is not unitary within {tol} (defect {defect:.3e})")
    return arr


def check_hermitian(m, name="matrix") -> np.ndarray:
    arr = check_square_matrix(m, name=name)
    defect = np.max(np.abs(arr - arr.conj().T))
    if defect > HERMITIAN_TOL:
        raise ValueError(
            f"{name} is not Hermitian within {HERMITIAN_TOL} (defect {defect:.3e})")
    return arr


def check_strictly_increasing(values, name="eigenvalues") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.diff(arr) > 0):
        raise ValueError(f"{name} must be strictly increasing (non-degenerate)")
    return arr


def check_rng(rng) -> np.random.Generator:
    """The Generator a random test input draws from; keyed runs take a seed
    instead."""
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"expected a numpy Generator, got {type(rng)!r}")
    return rng


def check_in_unit_interval(x, name) -> float:
    val = float(x)
    if not 0.0 < val < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {val!r}")
    return val


def check_integer(x) -> int:
    """A JSON integer, an integral float such as 1e6, or a numpy integer,
    below 2**63; never a bool."""
    if isinstance(x, float) and x.is_integer() or isinstance(x, np.integer):
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, int) or abs(x) >= 2 ** 63:
        raise TypeError(f"expected an integer below 2**63, got {x!r}")
    return x


def check_real(x) -> float:
    """A finite JSON number: an int or a float, not a bool or a string."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        raise TypeError(f"expected a finite number, got {x!r}")
    return float(x)

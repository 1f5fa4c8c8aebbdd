"""Exception types shared across the package, and the check that reports
a count no array can hold as a shortage of memory."""

import math
import sys

import numpy as np


class QfactError(Exception):
    """Base class for all package-specific errors."""


class UnknownLabelError(QfactError):
    """An outcome label is not part of the law's spectrum (mis-coded outcome)."""


class EmptyLawError(QfactError):
    """Operation requires at least one recorded trial."""


class InsufficientBlocksError(QfactError):
    """Stability verdicts need at least two complete blocks."""


class DimensionMismatchError(QfactError):
    """State / observable / transform dimensions do not agree."""


class DestructiveAnnihilationError(QfactError):
    """Superposition weights cancel: the composed state has (near-)zero norm."""


class UnlinkedObservableError(QfactError):
    """No transform matrix links the reference observable to the target."""


class InconsistentLawsError(QfactError):
    """No phase assignment reproduces the measured laws: the law set is not
    representable as squared projections of a single state vector."""


class ScenarioError(QfactError):
    """Scenario file failed schema validation."""


def check_array_size(shape, dtype=float) -> None:
    """Raise MemoryError, as numpy does for an array too large for this
    machine, for an array of ``shape`` too large for any machine: numpy
    refuses that one with a ValueError, which reads as bad input."""
    if math.prod(shape) * np.dtype(dtype).itemsize > sys.maxsize:
        raise MemoryError(f"Unable to allocate an array with shape {tuple(shape)} "
                          f"and data type {np.dtype(dtype)}: more bytes than "
                          "any array can hold")

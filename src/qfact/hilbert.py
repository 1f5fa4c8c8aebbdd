"""Finite-dimensional complex linear-algebra oracle.

States, observables with non-degenerate spectra, basis-change transforms,
unitary evolution, and superposition composition.  Everything is immutable
after construction and every operation is pure; the random construction
helpers draw only from the RNG handle they are given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DestructiveAnnihilationError, DimensionMismatchError
from .validation import (
    OVERLAP_TOL,
    UNITARY_TOL,
    check_hermitian,
    check_rng,
    check_state_vector,
    check_strictly_increasing,
    check_unitary,
)

ANNIHILATION_TOL = 1e-12


@dataclass(frozen=True)
class OracleState:
    """Unit-norm complex state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes",
                           check_state_vector(self.amplitudes, name="state"))
        self.amplitudes.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class ObservableSpec:
    """Named observable: strictly increasing eigenvalues and a unitary
    eigenbasis whose columns are the eigenvectors."""

    name: str
    eigenvalues: np.ndarray
    eigenbasis: np.ndarray

    def __post_init__(self):
        vals = check_strictly_increasing(self.eigenvalues,
                                         f"{self.name} eigenvalues")
        basis = check_unitary(self.eigenbasis, UNITARY_TOL, dim=len(vals),
                              name=f"{self.name} eigenbasis")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenbasis", basis)
        self.eigenvalues.setflags(write=False)
        self.eigenbasis.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def label(self, j: int) -> str:
        return f"{self.name}:{j}"

    def labels(self) -> list[str]:
        return [self.label(j) for j in range(self.dim)]


@dataclass(frozen=True)
class TransformMatrix:
    """Basis-change matrix between two observables: entries[k, j] is the
    overlap of target eigenvector k with source eigenvector j.  It is unitary
    within OVERLAP_TOL, the bound that any two valid eigenbases meet."""

    source: str
    target: str
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", check_unitary(
            self.entries, OVERLAP_TOL,
            name=f"transform {self.source} -> {self.target}"))
        self.entries.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def transform_between(a: ObservableSpec, b: ObservableSpec) -> TransformMatrix:
    """tau(a -> b) with entries <v_k|u_j> for the two eigenbases."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"observables {a.name} of dimension {a.dim} "
                                     f"and {b.name} of dimension {b.dim}")
    return TransformMatrix(a.name, b.name, b.eigenbasis.conj().T @ a.eigenbasis)


@dataclass(frozen=True)
class HamiltonianSpec:
    matrix: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           check_hermitian(self.matrix, name="Hamiltonian"))
        self.matrix.setflags(write=False)
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def born_law(state: OracleState, obs: ObservableSpec) -> np.ndarray:
    """Outcome probabilities |<u_j|psi>|^2."""
    return np.abs(coefficients(state, obs)) ** 2


def coefficients(state: OracleState, obs: ObservableSpec) -> np.ndarray:
    """Expansion coefficients of the state on the observable's eigenbasis."""
    if state.dim != obs.dim:
        raise DimensionMismatchError(
            f"state dim {state.dim} vs observable dim {obs.dim}")
    return obs.eigenbasis.conj().T @ state.amplitudes


def dirac_transform(coeffs, tau: TransformMatrix) -> np.ndarray:
    """Re-express expansion coefficients in the target basis: d = tau . c."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.shape[0] != tau.dim:
        raise DimensionMismatchError(
            f"coefficient length {c.shape[0]} vs transform dim {tau.dim}")
    return tau.entries @ c


def evolve(state: OracleState, h: HamiltonianSpec, dt: float) -> OracleState:
    """Apply exp(-i H dt / hbar) through the eigendecomposition of H."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if state.dim != h.dim:
        raise DimensionMismatchError(
            f"state dim {state.dim} vs Hamiltonian dim {h.dim}")
    if dt == 0:
        return state
    energies, u = np.linalg.eigh(h.matrix)
    # phases out of float range give NaNs, which OracleState refuses
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * energies * dt / h.hbar)
        psi = u @ (phases * (u.conj().T @ state.amplitudes))
        psi = psi / np.linalg.norm(psi)
    return OracleState(psi)


def compose_superposition(weights, states) -> OracleState:
    """Normalized weighted sum of unit states sharing one dimension.  Its
    norm is at most sum |w_i|, so it cancels when it is within
    ANNIHILATION_TOL times that bound of 0, whatever the weights' scale."""
    w = np.array(weights, dtype=np.complex128)  # a contiguous copy
    if w.ndim != 1 or w.shape[0] != len(states):
        raise ValueError("need one weight per component state")
    if not np.any(w != 0):
        raise ValueError("at least one weight must be nonzero")
    if len({s.dim for s in states}) != 1:
        raise DimensionMismatchError("component states must share one dimension")
    # scale the largest real or imaginary part to 1, so the norm cannot
    # overflow or underflow; the float view divides by a subnormal safely
    parts = w.view(float)
    w = (parts / np.abs(parts).max()).view(np.complex128)
    raw = sum(wi * s.amplitudes for wi, s in zip(w, states))
    norm = np.linalg.norm(raw)
    if norm <= ANNIHILATION_TOL * np.abs(w).sum():
        raise DestructiveAnnihilationError(
            "superposition weights cancel to zero norm")
    return OracleState(raw / norm)


@dataclass(frozen=True)
class CrossTermExpansion:
    """Per-outcome breakdown of |sum_i w_i c_{j,i}|^2 into the component
    squared terms and the complex interference cross terms.  ``total`` is
    the un-normalized composite weight per outcome; dividing by its sum
    gives the composite probability law."""

    diagonal: np.ndarray      # shape (n_components, dim), real
    cross: np.ndarray         # shape (dim,), real: 2 Re sum_{i<i'} terms
    total: np.ndarray         # shape (dim,), real

    def normalized_law(self) -> np.ndarray:
        return self.total / self.total.sum()


def cross_term_expansion(weights, states, obs: ObservableSpec) -> CrossTermExpansion:
    """Expand the composite law on obs into squared and interference terms."""
    w = np.asarray(weights, dtype=np.complex128)
    comps = np.stack([w[i] * coefficients(s, obs) for i, s in enumerate(states)])
    diagonal = np.abs(comps) ** 2
    total = np.abs(comps.sum(axis=0)) ** 2
    cross = total - diagonal.sum(axis=0)
    return CrossTermExpansion(diagonal=diagonal, cross=cross, total=total)


def compatible(a: ObservableSpec, b: ObservableSpec) -> bool:
    """Whether every |<v_k|u_j>| of tau(a -> b) is within OVERLAP_TOL of 0 or
    1: a and b share their eigenvectors, so [A, B] = 0.  No eigenvalue is
    read."""
    overlap = np.abs(transform_between(a, b).entries)
    return bool(np.all(np.minimum(overlap, np.abs(overlap - 1)) <= OVERLAP_TOL))


# --- construction helpers --------------------------------------------------

def basis_observable(name: str, dim: int, eigenvalues=None) -> ObservableSpec:
    """Observable diagonal in the computational basis."""
    vals = np.arange(dim, dtype=float) if eigenvalues is None else eigenvalues
    return ObservableSpec(name, vals, np.eye(dim, dtype=np.complex128))


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    rng = check_rng(rng)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_observable(name: str, dim: int, rng) -> ObservableSpec:
    return ObservableSpec(name, np.arange(dim, dtype=float),
                          random_unitary(dim, rng))


def random_state(dim: int, rng) -> OracleState:
    rng = check_rng(rng)
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return OracleState(z / np.linalg.norm(z))

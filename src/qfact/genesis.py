"""Generation operations and coding-measurement successions.

A generation recipe produces one specimen per realization; measuring the
specimen codes its registered marks into one eigenvalue and destroys it,
so every coded outcome costs a whole generate-then-measure succession.
Batched runners draw each block of successions as one multinomial row of
counter-keyed randomness, so a law depends only on its seed and stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from . import finprob
from .errors import (
    DestroyedSpecimenError,
    DimensionMismatchError,
    GuidedCodingUnavailableError,
)
from .hilbert import (
    HamiltonianSpec,
    ObservableSpec,
    OracleState,
    born_law,
    compose_superposition,
    evolve,
    sample_outcome,
)
from .seeding import block_table, stream_seed
from .validation import check_rng


@dataclass(frozen=True)
class GenerationOp:
    """Base recipe; concrete kinds below.  ``attachment`` optionally points
    to a closed-form wave scenario used for guided coding (duck-typed: it
    must provide sample_position(rng) and momentum_at(r, t))."""

    id: str
    attachment: object | None = field(default=None, kw_only=True)


@dataclass(frozen=True)
class Simple(GenerationOp):
    state: OracleState = None

    def __post_init__(self):
        if self.state is None:
            raise ValueError("Simple recipe needs a state")


@dataclass(frozen=True)
class Composed(GenerationOp):
    weights: tuple[complex, ...] = ()
    components: tuple[GenerationOp, ...] = ()

    def __post_init__(self):
        if len(self.weights) != len(self.components) or not self.components:
            raise ValueError("Composed recipe needs one weight per component")


@dataclass(frozen=True)
class Evolved(GenerationOp):
    base: GenerationOp = None
    hamiltonian: HamiltonianSpec = None
    dt: float = 0.0

    def __post_init__(self):
        if self.base is None or self.hamiltonian is None:
            raise ValueError("Evolved recipe needs a base recipe and a Hamiltonian")
        if self.dt < 0:
            raise ValueError("dt must be non-negative")


@dataclass(frozen=True)
class MultiSystem(GenerationOp):
    joint_state: OracleState = None
    factor_dims: tuple[int, ...] = ()
    factor_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.joint_state is None or not self.factor_dims:
            raise ValueError("MultiSystem recipe needs a joint state and factor dims")
        if prod(self.factor_dims) != self.joint_state.dim:
            raise DimensionMismatchError(
                "product of factor dims must equal the joint state dimension")
        if len(self.factor_labels) != len(self.factor_dims):
            raise ValueError("need one label per factor")


def resolve_state(g: GenerationOp) -> OracleState:
    """Hidden state the recipe prepares (deterministic per recipe)."""
    if isinstance(g, Simple):
        return g.state
    if isinstance(g, Composed):
        return compose_superposition(list(g.weights),
                                     [resolve_state(c) for c in g.components])
    if isinstance(g, Evolved):
        return evolve(resolve_state(g.base), g.hamiltonian, g.dt)
    if isinstance(g, MultiSystem):
        return g.joint_state
    raise TypeError(f"unknown generation kind {type(g)!r}")


@dataclass
class Specimen:
    """One individual realization of a recipe.  Measurement operations
    require ``alive`` and clear it."""

    hidden_state: OracleState
    dbb_attachment: object | None = None
    corpuscle_position: np.ndarray | None = None
    alive: bool = True

    def _consume(self):
        if not self.alive:
            raise DestroyedSpecimenError(
                "specimen already measured; realize a fresh succession")
        self.alive = False


@dataclass(frozen=True)
class CodedOutcome:
    observable: str
    eigen_index: int
    eigenvalue: float
    region_index: int
    trial_id: int = 0

    def __post_init__(self):
        if self.region_index != self.eigen_index:
            raise ValueError("coding map is the identity on indices")

    @property
    def label(self) -> str:
        return f"{self.observable}:{self.eigen_index}"


def generate(g: GenerationOp, rng) -> Specimen:
    """Realize the recipe once."""
    state = resolve_state(g)
    position = None
    if g.attachment is not None:
        position = g.attachment.sample_position(rng)
    return Specimen(hidden_state=state, dbb_attachment=g.attachment,
                    corpuscle_position=position)


def mes_coding_nc(s: Specimen, obs: ObservableSpec, rng, trial_id: int = 0
                  ) -> CodedOutcome:
    """Non-composed coding measurement: marks registered in region j code
    the eigenvalue with the same index."""
    s._consume()
    j = sample_outcome(s.hidden_state, obs, rng)
    return CodedOutcome(observable=obs.name, eigen_index=j,
                        eigenvalue=float(obs.eigenvalues[j]),
                        region_index=j, trial_id=trial_id)


def mes_coding_guided(s: Specimen, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Guided coding: read position and guided momentum off the trace."""
    if s.dbb_attachment is None:
        raise GuidedCodingUnavailableError(
            "guided coding needs a wave attachment on the specimen")
    s._consume()
    r = np.asarray(s.corpuscle_position, dtype=float)
    p = np.asarray(s.dbb_attachment.momentum_at(r, t), dtype=float)
    return r, p


def _joint_law(state: OracleState, obs_list) -> tuple[np.ndarray, list[int]]:
    """Born law of the joint state on the Kronecker product of the factor
    eigenbases, over flattened outcome tuples, and the factor dims."""
    dims = [o.dim for o in obs_list]
    if prod(dims) != state.dim:
        raise DimensionMismatchError(
            "factor observables do not cover the joint dimension")
    basis = obs_list[0].eigenbasis
    for o in obs_list[1:]:
        basis = np.kron(basis, o.eigenbasis)
    return np.abs(basis.conj().T @ state.amplitudes) ** 2, dims


def mes_complete(s: Specimen, obs_list, rng, trial_id: int = 0
                 ) -> list[CodedOutcome]:
    """Complete measurement on a multi-system specimen: one group of marks
    per factor, sampled jointly from the joint Born law."""
    s._consume()
    joint_law, dims = _joint_law(s.hidden_state, obs_list)
    flat = int(check_rng(rng).choice(joint_law.size,
                                     p=joint_law / joint_law.sum()))
    parts = np.unravel_index(flat, dims)
    return [CodedOutcome(observable=o.name, eigen_index=int(j),
                         eigenvalue=float(o.eigenvalues[int(j)]),
                         region_index=int(j), trial_id=trial_id)
            for o, j in zip(obs_list, parts)]


def time_of_flight(x_n, t_n: float, t0: float, m: float, origin=None
                   ) -> np.ndarray:
    """Momentum from an impact point and its flight time: m * d / (t_n - t0)."""
    if t_n <= t0:
        raise ValueError("flight time must be positive")
    if m <= 0:
        raise ValueError("mass must be positive")
    x = np.asarray(x_n, dtype=float)
    o = np.zeros_like(x) if origin is None else np.asarray(origin, dtype=float)
    return m * (x - o) / (t_n - t0)


def run_successions(g: GenerationOp, obs: ObservableSpec, n: int,
                    eps: float, delta: float, n0: int, rng,
                    trial_offset: int = 0) -> finprob.FactualLaw:
    """Accumulate n independent generate-then-measure successions.

    The hidden state is fixed by the recipe, so a block's outcome counts
    are one multinomial draw of n0 trials from its Born law: exactly the
    distribution of the per-trial successions.  The block table comes from
    :func:`seeding.block_table` keyed by (seed, trial_offset); give each law
    built from one seed its own offset.  ``rng`` takes an integer seed or a
    numpy Generator, which only supplies the seed.
    """
    if n < 1:
        raise ValueError("need at least one succession")
    law_vec = born_law(resolve_state(g), obs)
    table = block_table(stream_seed(rng), trial_offset, law_vec, n, n0)
    return finprob.FactualLaw(obs.labels(), table, n0, eps, delta)


def run_complete_successions(g: MultiSystem, obs_list, n: int,
                             eps: float, delta: float, n0: int, rng,
                             trial_offset: int = 0
                             ) -> tuple[finprob.FactualLaw, list[finprob.FactualLaw]]:
    """Batched complete measurements on a multi-system recipe.

    Returns the joint law over flattened outcome tuples, drawn like
    :func:`run_successions` from the joint Born law, plus one marginal law
    per factor summed from the joint block table.  ``rng`` takes an integer
    seed or a Generator, as in :func:`run_successions`.
    """
    if n < 1:
        raise ValueError("need at least one succession")
    joint_law, dims = _joint_law(resolve_state(g), obs_list)
    joint_name = "*".join(o.name for o in obs_list)
    joint = finprob.FactualLaw(
        [f"{joint_name}:{k}" for k in range(prod(dims))],
        block_table(stream_seed(rng), trial_offset, joint_law, n, n0),
        n0, eps, delta)
    # factor i's block table: the joint table summed over the other factors
    per_factor = joint.blocks.reshape(-1, *dims)
    marginals = [
        finprob.FactualLaw(o.labels(), per_factor.sum(axis=tuple(
            a + 1 for a in range(len(dims)) if a != i)), n0, eps, delta)
        for i, o in enumerate(obs_list)
    ]
    return joint, marginals

"""Generation operations and coding-measurement successions.

A generation recipe produces one specimen per realization; measuring the
specimen codes its registered marks into one eigenvalue and destroys it,
so every coded outcome costs a whole generate-then-measure succession.
Batched runners draw each block of successions as one multinomial row of
the stream keyed by an integer seed, so a law depends only on its seed and
stream; a specimen draws from the numpy Generator it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from . import finprob
from .errors import DestroyedSpecimenError, DimensionMismatchError
from .hilbert import (
    HamiltonianSpec,
    ObservableSpec,
    OracleState,
    born_law,
    compose_superposition,
    evolve,
)
from .seeding import block_table
from .validation import check_rng


@dataclass(frozen=True)
class GenerationOp:
    """Base recipe; concrete kinds below."""

    id: str


@dataclass(frozen=True)
class Simple(GenerationOp):
    state: OracleState


@dataclass(frozen=True)
class Composed(GenerationOp):
    weights: tuple[complex, ...]
    components: tuple[GenerationOp, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.components) or not self.components:
            raise ValueError("Composed recipe needs one weight per component")


@dataclass(frozen=True)
class Evolved(GenerationOp):
    base: GenerationOp
    hamiltonian: HamiltonianSpec
    dt: float = 0.0

    def __post_init__(self):
        if self.dt < 0:
            raise ValueError("dt must be non-negative")


@dataclass(frozen=True)
class MultiSystem(GenerationOp):
    joint_state: OracleState
    factor_dims: tuple[int, ...]

    def __post_init__(self):
        if prod(self.factor_dims) != self.joint_state.dim:
            raise DimensionMismatchError(
                "product of factor dims must equal the joint state dimension")


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
    trial_id: int = 0

    @property
    def label(self) -> str:
        return f"{self.observable}:{self.eigen_index}"


def generate(g: GenerationOp) -> Specimen:
    """Realize the recipe once."""
    return Specimen(hidden_state=resolve_state(g))


def mes_coding_nc(s: Specimen, obs: ObservableSpec, rng, trial_id: int = 0
                  ) -> CodedOutcome:
    """Non-composed coding measurement: marks registered in region j code
    the eigenvalue with the same index: the one-factor complete measurement."""
    return mes_complete(s, [obs], rng, trial_id)[0]


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
                         eigenvalue=float(o.eigenvalues[int(j)]), trial_id=trial_id)
            for o, j in zip(obs_list, parts)]


def _draw_law(labels, probs, n, eps, delta, n0, seed, stream):
    """Law of n successions on the outcome law ``probs``: both runners' draw."""
    if n < 1:
        raise ValueError("need at least one succession")
    table = block_table(seed, stream, probs, n, n0)
    return finprob.FactualLaw(labels, table, n0, eps, delta)


def run_successions(g: GenerationOp, obs: ObservableSpec, n: int,
                    eps: float, delta: float, n0: int, seed: int,
                    stream: int = 0) -> finprob.FactualLaw:
    """Accumulate n independent generate-then-measure successions.

    The hidden state is fixed by the recipe, so a block's outcome counts
    are one multinomial draw of n0 trials from its Born law: exactly the
    distribution of the per-trial successions.  The block table comes from
    :func:`seeding.block_table` keyed by (seed, stream); give each law
    built from one seed its own stream.
    """
    return _draw_law(obs.labels(), born_law(resolve_state(g), obs), n, eps,
                     delta, n0, seed, stream)


def run_laws(g: GenerationOp, observables, n: int, eps: float, delta: float,
             n0: int, seed: int) -> dict[str, finprob.FactualLaw]:
    """One law of n successions per observable, keyed by name: observable k's
    from :func:`run_successions` on stream k of ``seed``."""
    return {obs.name: run_successions(g, obs, n, eps, delta, n0, seed, stream=k)
            for k, obs in enumerate(observables)}


def run_complete_successions(g: MultiSystem, obs_list, n: int,
                             eps: float, delta: float, n0: int, seed: int,
                             stream: int = 0
                             ) -> tuple[finprob.FactualLaw, list[finprob.FactualLaw]]:
    """Batched complete measurements on a multi-system recipe.

    Returns the joint law over flattened outcome tuples, drawn like
    :func:`run_successions` from the joint Born law, plus one marginal law
    per factor summed from the joint block table.  Observable i measures
    factor i, so its dimension is ``g.factor_dims[i]``.
    """
    if tuple(o.dim for o in obs_list) != tuple(g.factor_dims):
        raise DimensionMismatchError(f"observable dims {[o.dim for o in obs_list]} "
                                     f"vs factor dims {list(g.factor_dims)}")
    joint_law, dims = _joint_law(resolve_state(g), obs_list)
    joint_name = "*".join(o.name for o in obs_list)
    joint = _draw_law([f"{joint_name}:{k}" for k in range(joint_law.size)],
                      joint_law, n, eps, delta, n0, seed, stream)
    # factor i's block table: the joint table summed over the other factors
    per_factor = joint.blocks.reshape(-1, *dims)
    marginals = [
        finprob.FactualLaw(o.labels(), per_factor.sum(axis=tuple(
            a + 1 for a in range(len(dims)) if a != i)), n0, eps, delta)
        for i, o in enumerate(obs_list)
    ]
    return joint, marginals

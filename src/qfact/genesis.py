"""Generation operations and coding-measurement successions.

A generation recipe produces one specimen per realization; measuring the
specimen codes its registered marks into one eigenvalue and destroys it,
so every coded outcome costs a whole generate-then-measure succession.
Batched runners reproduce the per-trial behaviour with counter-based
randomness so results are independent of worker scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce
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
    sample_outcomes_from_uniforms,
)
from .seeding import counter_uniforms, stream_seed
from .validation import check_rng

CHUNK_TRIALS = 250_000  # trials per partial law, rounded to a block multiple


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
    u = check_rng(rng).random()
    flat = int(sample_outcomes_from_uniforms(joint_law, np.array([u]))[0])
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
                    trial_offset: int = 0, workers: int = 1
                    ) -> finprob.FactualLaw:
    """Accumulate n independent generate-then-measure successions.

    The hidden state is fixed by the recipe, so trial i's outcome is one
    inverse-CDF draw from its Born law against the counter uniform keyed
    by (seed, trial_offset + i), which reproduces the per-trial succession
    exactly in distribution.  ``rng`` takes an integer seed or a numpy
    Generator; a Generator only supplies the seed of the counter streams.

    Trials are drawn in chunks of CHUNK_TRIALS rounded to a multiple of n0,
    built on up to ``workers`` threads and merged in order.  Chunk bounds
    depend only on n and n0, so the law is the same for any worker count,
    and partial laws built from disjoint trial ranges merge into it.
    """
    if n < 1:
        raise ValueError("need at least one succession")
    seed = stream_seed(rng)
    law_vec = born_law(resolve_state(g), obs)
    empty = finprob.FactualLaw.empty(obs.labels(), eps, delta, n0)
    chunk = n0 * max(1, CHUNK_TRIALS // n0)

    def build(start: int) -> finprob.FactualLaw:
        ids = np.arange(trial_offset + start,
                        trial_offset + min(start + chunk, n))
        idx = sample_outcomes_from_uniforms(law_vec, counter_uniforms(seed, ids))
        return finprob.accumulate_indices(empty, idx)

    starts = range(0, n, chunk)
    if workers <= 1 or len(starts) == 1:
        partials = [build(start) for start in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            partials = list(ex.map(build, starts))
    return reduce(finprob.merge, partials)


def run_complete_successions(g: MultiSystem, obs_list, n: int,
                             eps: float, delta: float, n0: int, rng,
                             trial_offset: int = 0
                             ) -> tuple[finprob.FactualLaw, list[finprob.FactualLaw]]:
    """Batched complete measurements on a multi-system recipe.

    Returns the joint law over flattened outcome tuples plus one marginal
    law per factor, all built from the same succession stream.  ``rng``
    takes an integer seed or a Generator, as in :func:`run_successions`.
    """
    if n < 1:
        raise ValueError("need at least one succession")
    joint_law, dims = _joint_law(resolve_state(g), obs_list)
    uniforms = counter_uniforms(stream_seed(rng),
                                np.arange(trial_offset, trial_offset + n))
    flat = sample_outcomes_from_uniforms(joint_law, uniforms)

    joint_name = "*".join(o.name for o in obs_list)
    joint_labels = [f"{joint_name}:{k}" for k in range(prod(dims))]
    joint = finprob.accumulate_indices(
        finprob.FactualLaw.empty(joint_labels, eps, delta, n0), flat)
    # factor i's block table: the joint table summed over the other factors
    per_factor = joint.blocks.reshape(-1, *dims)
    marginals = [
        finprob.FactualLaw(o.labels(), per_factor.sum(axis=tuple(
            a + 1 for a in range(len(dims)) if a != i)), n0, eps, delta)
        for i, o in enumerate(obs_list)
    ]
    return joint, marginals

"""Generation recipes and coding-measurement successions.

A generation recipe prepares one hidden state; measuring a specimen of it
codes its registered marks into one eigenvalue and destroys it, so every
coded outcome costs a whole generate-then-measure succession.  The state is
fixed by the recipe, so the runners draw each block of successions as one
multinomial row of the stream keyed by an integer seed, and a law depends
only on its seed and stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import finprob
from .hilbert import (
    HamiltonianSpec,
    ObservableSpec,
    OracleState,
    born_law,
    compose_superposition,
    evolve,
)
from .seeding import block_table


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


def resolve_state(g: GenerationOp) -> OracleState:
    """Hidden state the recipe prepares (deterministic per recipe)."""
    if isinstance(g, Simple):
        return g.state
    if isinstance(g, Composed):
        return compose_superposition(list(g.weights),
                                     [resolve_state(c) for c in g.components])
    if isinstance(g, Evolved):
        return evolve(resolve_state(g.base), g.hamiltonian, g.dt)
    raise TypeError(f"unknown generation kind {type(g)!r}")


def _law(state: OracleState, obs: ObservableSpec, n, eps, delta, n0, seed,
         stream) -> finprob.FactualLaw:
    """Law of n successions measuring ``obs`` on ``state``, from one stream."""
    if n < 1:
        raise ValueError("need at least one succession")
    table = block_table(seed, stream, born_law(state, obs), n, n0)
    return finprob.FactualLaw(obs.labels(), table, n0, eps, delta)


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
    return _law(resolve_state(g), obs, n, eps, delta, n0, seed, stream)


def run_laws(g: GenerationOp, observables, n: int, eps: float, delta: float,
             n0: int, seed: int) -> dict[str, finprob.FactualLaw]:
    """One law of n successions per observable, keyed by name: observable k's
    is :func:`run_successions` on stream k of ``seed``, with the recipe's
    state resolved once for all of them."""
    state = resolve_state(g)
    return {obs.name: _law(state, obs, n, eps, delta, n0, seed, k)
            for k, obs in enumerate(observables)}

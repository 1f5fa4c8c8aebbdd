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
from .hilbert import ObservableSpec, OracleState, born_law
from .seeding import block_table


@dataclass(frozen=True)
class Simple:
    """A recipe: its id, the probability tree's trunk, and the state it
    prepares.  A scenario's composed or evolved recipe is read into one."""

    id: str
    state: OracleState


def run_successions(g: Simple, obs: ObservableSpec, n: int,
                    eps: float, delta: float, n0: int, seed: int,
                    stream: int = 0) -> finprob.FactualLaw:
    """Accumulate n independent generate-then-measure successions.

    The hidden state is fixed by the recipe, so a block's outcome counts
    are one multinomial draw of n0 trials from its Born law: exactly the
    distribution of the per-trial successions.  The block table comes from
    :func:`seeding.block_table` keyed by (seed, stream); give each law
    built from one seed its own stream.
    """
    if n < 1:
        raise ValueError("need at least one succession")
    table = block_table(seed, stream, born_law(g.state, obs), n, n0)
    return finprob.FactualLaw(obs.labels(), table, n0, eps, delta)


def run_laws(g: Simple, observables, n: int, eps: float, delta: float,
             n0: int, seed: int) -> dict[str, finprob.FactualLaw]:
    """One law of n successions per observable, keyed by name: observable k's
    is :func:`run_successions` on stream k of ``seed``."""
    return {obs.name: run_successions(g, obs, n, eps, delta, n0, seed, k)
            for k, obs in enumerate(observables)}

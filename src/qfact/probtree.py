"""Probability trees: branch observables by compatibility, crown each
branch with factual laws, and record cross-branch correlation residuals."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import finprob
from .errors import UnlinkedObservableError
from .genesis import Simple, run_laws
from .hilbert import ObservableSpec, TransformMatrix, compatible
from .reconstruct import law_vector, predict_heldout

CONSISTENCY_TOL = 0.01  # largest max-abs deviation of a consistent prediction


@dataclass(frozen=True)
class CompatibilityGroup:
    members: tuple[str, ...]


@dataclass
class MetaCorrelationPair:
    reference: str
    target: str
    residual: float
    predicted_law: dict[str, float]
    measured_law: dict[str, float]
    consistent: bool


@dataclass
class MetaCorrelationRecord:
    pairs: list[MetaCorrelationPair] = field(default_factory=list)

    def max_residual(self) -> float:
        return max((p.residual for p in self.pairs), default=0.0)


@dataclass
class ProbabilityTree:
    trunk: str
    branches: list[tuple[CompatibilityGroup, dict[str, finprob.FactualLaw]]]
    mpc: MetaCorrelationRecord
    trunk_only: bool

    def law_for(self, name: str) -> finprob.FactualLaw:
        for _, laws in self.branches:
            if name in laws:
                return laws[name]
        raise KeyError(name)

    def observable_names(self) -> list[str]:
        return [name for _, laws in self.branches for name in laws]


def partition_branches(observables: list[ObservableSpec]
                       ) -> list[CompatibilityGroup]:
    """Greedy first-fit partition into maximal pairwise-compatible groups,
    processed in input order."""
    if not observables:
        raise ValueError("need at least one observable")
    groups: list[list[ObservableSpec]] = []
    for obs in observables:
        for grp in groups:
            if all(compatible(obs, other) for other in grp):
                grp.append(obs)
                break
        else:
            groups.append([obs])
    return [CompatibilityGroup(tuple(o.name for o in grp)) for grp in groups]


def build_tree(g: Simple, observables: list[ObservableSpec], n: int,
               eps: float, delta: float, n0: int, seed: int) -> ProbabilityTree:
    """One factual law per observable via repeated successions, grouped into
    branches of pairwise-commuting observables.

    The laws come from :func:`genesis.run_laws`: observable k's from
    stream k of ``seed``.
    """
    groups = partition_branches(observables)
    laws = run_laws(g, observables, n, eps, delta, n0, seed)
    branches = [(grp, {name: laws[name] for name in grp.members})
                for grp in groups]
    return ProbabilityTree(trunk=g.id, branches=branches,
                           mpc=MetaCorrelationRecord(),
                           trunk_only=len(groups) == 1)


def meta_correlation(tree: ProbabilityTree, expansion,
                     taus: list[TransformMatrix]) -> MetaCorrelationRecord:
    """Fill the correlation record: laws of other observables predicted from
    the reference expansion through the basis transforms, compared with the
    measured crown laws by max absolute deviation.

    ``expansion`` is a reconstruct.ExpansionSet whose reference observable
    sits on one branch of the tree.
    """
    ref = expansion.reference_observable
    tau_by_target = {t.target: t for t in taus if t.source == ref}
    record = MetaCorrelationRecord()
    for name in tree.observable_names():
        if name == ref:
            continue
        if name not in tau_by_target:
            raise UnlinkedObservableError(
                f"no transform from {ref!r} to {name!r}")
        predicted = predict_heldout(expansion, tau_by_target[name])
        law = tree.law_for(name)
        measured = law_vector(law)
        labels = (list(law.spectrum) if isinstance(law, finprob.FactualLaw)
                  else [f"{name}:{k}" for k in range(len(measured))])
        residual = float(np.max(np.abs(predicted - measured)))
        record.pairs.append(MetaCorrelationPair(
            reference=ref, target=name, residual=residual,
            predicted_law={lab: float(predicted[i])
                           for i, lab in enumerate(labels)},
            measured_law={lab: float(measured[i])
                          for i, lab in enumerate(labels)},
            consistent=residual <= CONSISTENCY_TOL,
        ))
    tree.mpc = record
    return record

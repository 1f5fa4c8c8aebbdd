"""Scenario files: the JSON schema driving every CLI pipeline.

Complex numbers are [re, im] pairs; matrices are row-major nested lists.
``load_scenario`` is the only reader of the document: whatever the command,
it checks every section present and resolves it to the value a command
uses: ``stability`` to its law (a ``sampling`` one drawn from stream 0 of
the effective seed), ``reconstruction`` to its ``n``, ``RetrievalConfig``
and the transforms from its reference, and ``generation`` to a
``genesis.Simple`` holding the recipe's id and the state it prepares,
checked against its observables' dimension.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import dbb, finprob
from .errors import DimensionMismatchError, ScenarioError, check_array_size
from .genesis import Simple
from .hilbert import (
    HamiltonianSpec,
    ObservableSpec,
    OracleState,
    TransformMatrix,
    compose_superposition,
    evolve,
    transform_between,
)
from .reconstruct import RetrievalConfig
from .seeding import block_table
from .validation import check_integer as _integer, check_real as _real


@dataclass(frozen=True)
class MeasurementPlan:
    observables: tuple[str, ...]
    n: int = 100_000
    epsilon: float = finprob.DEFAULT_EPSILON
    delta: float = finprob.DEFAULT_DELTA
    block_size: int = finprob.DEFAULT_BLOCK_SIZE

    def __post_init__(self):
        if not self.observables or len(set(self.observables)) < len(self.observables):
            raise ValueError(f"need distinct observables, got {list(self.observables)}")
        # the laws' own checks of epsilon, delta and block_size
        finprob.FactualLaw.empty((), self.epsilon, self.delta, self.block_size)


@dataclass(frozen=True)
class ReconstructionPlan:
    """``n``: successions per law, for sampled laws only; ``retrieval``: the
    fit's settings, seeded with the scenario seed; ``transforms``: tau from
    the reference to each partner and held-out observable, by target."""

    reference: str
    partners: tuple[str, ...]
    retrieval: RetrievalConfig
    heldout: tuple[str, ...] = ()
    source: str = "exact"
    n: int | None = None
    transforms: dict[str, TransformMatrix] = field(default_factory=dict)

    def __post_init__(self):
        fit, held = (self.reference, *self.partners), self.heldout
        if len(fit) < 2 or len(set(fit)) < len(fit) or len(set(held)) < len(held):
            raise ValueError(f"need partners, distinct and not the reference, and "
                             f"distinct heldout, got {self.partners}, {held}")
        if self.source not in ("exact", "sampled"):
            raise ValueError(f"bad source {self.source!r}")


@dataclass(frozen=True)
class BornCheckPlan:
    n_samples: int = 10_000
    bins: int = 64


@dataclass
class Scenario:
    """Seed, output directory, the config of each section present and the
    SHA-256 of each file the sections read, by path."""

    seed: int
    output_dir: str = "out"
    sections: dict[str, object] = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)

    def section(self, name: str):  # "dbb.exp" is "exp" inside "dbb"
        if name not in self.sections:
            raise ScenarioError(f"scenario has no {name!r} section")
        return self.sections[name]

    def observable(self, name: str) -> ObservableSpec:
        if name not in self.sections.get("observables", {}):
            raise ScenarioError(f"unknown observable {name!r}")
        return self.sections["observables"][name]


# readers: each returns a checked value or raises TypeError or ValueError

@contextmanager
def _reading(where: str):
    """Error boundary of one section or field: a malformed value or mismatched
    dimensions become a ScenarioError prefixed with ``where``; other
    QfactErrors pass through."""
    try:
        yield
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing or unknown {exc}") from None
    except (ScenarioError, DimensionMismatchError, TypeError, ValueError,
            ArithmeticError, OSError, RecursionError) as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _expect(v, ok: bool, what: str):
    if not ok:
        raise TypeError(f"expected {what}, got {v!r}")
    return v


def _instance(kind, what: str):
    return lambda v: _expect(v, isinstance(v, kind), what)


def _list_of(read):
    return lambda v: tuple(map(read, _expect(v, isinstance(v, list), "a list")))


def _complex(v) -> complex:
    _expect(v, isinstance(v, list) and len(v) == 2, "an [re, im] pair")
    return complex(_real(v[0]), _real(v[1]))


_object = _instance(dict, "an object")
_string = _instance(str, "a string")
_any = _instance(object, "any value")
_names, _reals = _list_of(_string), _list_of(_real)
_complex_vector = _list_of(_complex)
_complex_matrix = _list_of(_complex_vector)


def _fields(doc, /, **readers) -> dict:
    """The fields of the object ``doc``, each through its reader in ``readers``;
    a field left out keeps the config's default, one with no reader is an error."""
    doc, out = _object(doc), {}
    unknown = [key for key in doc if key not in readers]
    if unknown:
        raise ValueError(f"unknown field {', '.join(map(repr, unknown))}")
    for key in [key for key in readers if key in doc]:
        with _reading(key):
            out[key] = readers[key](doc[key])
    return out


def _record(**readers):
    """Reader of an object with exactly the fields ``readers`` names, all
    required, as the tuple of their values in that order."""
    def read(doc) -> tuple:
        doc = _fields(doc, **readers)
        return tuple(doc[key] for key in readers)
    return read


def _positive(v) -> int:
    v = _integer(v)
    return _expect(v, v >= 1, "a positive integer")


def _observable_name(scn: Scenario):
    return lambda v: scn.observable(_string(v)).name


# sections: name -> builder of its config from (its object, the scenario)

def _table(build):
    """Builder of a section of named entries, each through ``build``."""
    return lambda doc, scn: _fields(doc, **{k: partial(build, k) for k in _object(doc)})


def _stability(doc, scn: Scenario):
    doc = _fields(doc, law=_object, law_json=_string, sampling=_object)
    if "law" in doc:
        return finprob.from_json_dict(doc["law"])
    if "law_json" in doc:
        data = Path(doc["law_json"]).read_bytes()
        scn.inputs[doc["law_json"]] = hashlib.sha256(data).hexdigest()
        return finprob.from_json_dict(json.loads(data.decode("utf-8")))
    if "sampling" in doc:
        return _sampled_law(doc["sampling"], scn.seed)
    raise ValueError("needs 'law', 'law_json' or 'sampling'")


def _sampled_law(doc, seed: int) -> finprob.FactualLaw:
    """One multinomial draw of ``block_size`` trials per block, all from
    stream 0 of ``seed``; a segment's blocks share its probabilities,
    normalized to sum 1."""
    doc = _fields(doc, labels=_names, block_size=_integer, epsilon=_real, delta=_real,
                  segments=_list_of(_record(probs=_reals, blocks=_integer)))
    labels, n0, rows = doc["labels"], doc["block_size"], []
    for probs, blocks in doc["segments"]:
        total = sum(probs)  # overflows to inf without numpy's warning
        probs = np.array(probs, dtype=float)
        if (probs.shape != (len(labels),) or (probs < 0).any()
                or not 0 < total < math.inf or blocks < 0):
            raise ValueError("a segment needs blocks >= 0 and one prob >= 0 "
                             "per label, with a finite positive sum")
        rows.append(probs)  # block_table normalizes each row
    # one row per block: a count too large for memory ends in a MemoryError
    counts = [blocks for _, blocks in doc["segments"]]
    check_array_size((sum(counts), len(labels)))
    rows = np.repeat(np.reshape(rows, (-1, len(labels))), counts, axis=0)
    table = block_table(seed, 0, rows, len(rows) * n0, n0)
    return finprob.FactualLaw(labels, table, n0,
                              doc.get("epsilon", finprob.DEFAULT_EPSILON),
                              doc.get("delta", finprob.DEFAULT_DELTA))


def _reconstruction(doc, scn: Scenario) -> ReconstructionPlan:
    name = _observable_name(scn)
    doc = _fields(doc, reference=name, partners=_list_of(name), heldout=_list_of(name),
                  source=_string, restarts=_integer, tol=_real, n=_positive)
    ref = scn.observable(doc["reference"])
    doc["transforms"] = {o: transform_between(ref, scn.observable(o))
                         for o in (*doc["partners"], *doc.get("heldout", ()))}
    settings = {key: doc.pop(key) for key in ("restarts", "tol") if key in doc}
    if doc.get("source") != "sampled":
        doc.pop("n", None)  # for sampled laws only
        return ReconstructionPlan(**doc, retrieval=RetrievalConfig(
            seed=scn.seed, **settings))
    # sampled laws are drawn as measurement says, so it is required
    n = doc.setdefault("n", scn.section("measurement").n)
    retrieval = RetrievalConfig.for_sampled_laws(
        n, len(doc["partners"]) * ref.dim, seed=scn.seed, **settings)
    return ReconstructionPlan(**doc, retrieval=retrieval)


def _two_wave(doc, scn: Scenario) -> dbb.TwoWaveState:
    return dbb.TwoWaveState.from_corpuscle_speed(**{"delta_phase": 0.0, **_fields(
        doc, **dict.fromkeys(("v12", "theta0", "delta_phase", "m0"), _real))})


def _exp(doc, scn: Scenario) -> dbb.ExpConfig:
    cfg = dbb.ExpConfig(**_fields(
        doc, lambda_sep=_real, kappa=lambda v: v if v is None else _real(v),
        kick_law=_string, n_trials=_integer))
    if "dbb.two_wave" in scn.sections:
        dbb.flight_time(scn.sections["dbb.two_wave"], cfg)
    return cfg


# the fields of each recipe kind besides ``kind`` and ``id``
_RECIPE_FIELDS = {
    "simple": dict(state=_string),
    "composed": dict(weights=_complex_vector, components=_list_of(_object)),
    "evolved": dict(base=_object, hamiltonian=_string, dt=_real),
}


def _prepared(doc, scn: Scenario) -> OracleState:
    """The state a recipe prepares; a nested recipe's ``id`` is not read."""
    kind = _object(doc).get("kind")  # unknown: a KeyError naming it
    doc = _fields(doc, kind=_string, id=_string, **_RECIPE_FIELDS[kind])
    if kind == "simple":
        return scn.section("states")[doc["state"]]
    if kind == "composed":
        return compose_superposition(
            doc["weights"], [_prepared(c, scn) for c in doc["components"]])
    ham = scn.section("hamiltonians")[doc["hamiltonian"]]
    return evolve(_prepared(doc["base"], scn), ham, doc.get("dt", 0.0))


def _generation(doc, scn: Scenario) -> Simple:
    """The recipe's id and the state it prepares, which has the dimension of
    every observable that ``measurement`` and ``reconstruction`` name."""
    state, meas = _prepared(doc, scn), scn.sections.get("measurement")
    plan = scn.sections.get("reconstruction")
    names = [*(meas.observables if meas else ()),
             *((plan.reference, *plan.partners, *plan.heldout) if plan else ())]
    dim = state.dim
    other = {o: scn.observable(o).dim for o in names if scn.observable(o).dim != dim}
    if other:
        raise DimensionMismatchError(
            f"state of dimension {dim}, observables of other dimensions: {other}")
    return Simple(doc.get("id", "generation"), state)


def _born_check(doc, scn: Scenario) -> BornCheckPlan:
    """The plan, within the box sampler's budget on ``dbb.plane_waves``."""
    plan = BornCheckPlan(**_fields(doc, n_samples=_positive, bins=_positive))
    if (waves := scn.sections.get("dbb.plane_waves")) is not None:
        dbb.check_box_budget(waves, plan.n_samples)
    return plan


# built in this order: a section may use the ones above it
_SECTIONS = {
    "states": _table(lambda _, vec: OracleState(_complex_vector(vec))),
    "observables": _table(lambda name, doc: ObservableSpec(name, **_fields(
        doc, eigenvalues=_reals, eigenbasis=_complex_matrix))),
    "hamiltonians": _table(lambda name, doc: HamiltonianSpec(**_fields(
        doc, matrix=_complex_matrix, hbar=_real))),
    "measurement": lambda doc, scn: MeasurementPlan(**_fields(
        doc, observables=_list_of(_observable_name(scn)), n=_positive, epsilon=_real,
        delta=_real, block_size=_integer)),
    "stability": _stability,
    "reconstruction": _reconstruction,
    "dbb.two_wave": _two_wave,
    "dbb.exp": _exp,
    "dbb.plane_waves": lambda doc, scn: dbb.PlaneWaveSum(**_fields(
        doc, box=_real, hbar=_real, components=_list_of(
            _record(weight=_complex, momentum=_reals)))),
    "dbb.borncheck": _born_check,
    "generation": _generation,
}


def load_scenario(text: str, seed_override: int | None = None) -> Scenario:
    """Parse and validate a scenario document into its configs."""
    dbb_sections = {name[4:]: _any for name in _SECTIONS if name[:4] == "dbb."}
    with _reading("scenario"):
        raw = _fields(json.loads(text), seed=_any, output_dir=_string,
                      dbb=lambda doc: _fields(doc, **dbb_sections),
                      **{name: _any for name in _SECTIONS if "." not in name})
    with _reading("seed"):
        seed = _integer(raw["seed"] if seed_override is None else seed_override)
        _expect(seed, seed >= 0, "a non-negative integer")
    scn = Scenario(seed, raw.get("output_dir", Scenario.output_dir))
    # dbb.borncheck may be left out: all its fields have defaults
    docs = {**raw, "dbb.borncheck": {}, **{
        f"dbb.{key}": doc for key, doc in raw.get("dbb", {}).items()}}
    for name, build in _SECTIONS.items():
        if docs.get(name) is not None:
            with _reading(name):
                scn.sections[name] = build(docs[name], scn)
    return scn


def load_scenario_file(path, seed_override: int | None = None
                       ) -> tuple[Scenario, bytes]:
    """The scenario in the file at ``path``, and the bytes it was parsed from."""
    with _reading(f"scenario file {path}"):
        source = Path(path).read_bytes()
        text = source.decode("utf-8")
    return load_scenario(text, seed_override), source

"""Scenario files: the JSON schema driving every CLI pipeline.

Complex numbers are [re, im] pairs; matrices are row-major nested lists.
``load_scenario`` is the only reader of the document: whatever the command,
it checks every section present and builds its frozen config.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import dbb, finprob
from .errors import ScenarioError
from .genesis import Composed, Evolved, GenerationOp, MultiSystem, Simple
from .hilbert import (
    HamiltonianSpec,
    ObservableSpec,
    OracleState,
    TransformMatrix,
    transform_between,
)
from .reconstruct import RetrievalConfig
from .validation import check_integer as _integer, check_real as _real


@dataclass(frozen=True)
class MeasurementPlan:
    observables: tuple[str, ...]
    n: int = 100_000
    epsilon: float = finprob.DEFAULT_EPSILON
    delta: float = finprob.DEFAULT_DELTA
    block_size: int = finprob.DEFAULT_BLOCK_SIZE
    guided: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        # the laws' own checks of epsilon, delta and block_size
        finprob.FactualLaw.empty((), self.epsilon, self.delta, self.block_size)


@dataclass(frozen=True)
class SamplingPlan:
    """One multinomial draw of ``block_size`` trials per block; each segment
    is (probabilities normalized to sum 1, number of blocks)."""

    labels: tuple[str, ...]
    block_size: int
    segments: tuple[tuple[np.ndarray, int], ...]
    epsilon: float = finprob.DEFAULT_EPSILON
    delta: float = finprob.DEFAULT_DELTA

    def __post_init__(self):
        # the law's own checks of the labels, epsilon, delta and block_size
        finprob.FactualLaw.empty(self.labels, self.epsilon, self.delta, self.block_size)
        segments = []
        for probs, blocks in self.segments:
            probs = np.array(probs, dtype=float)
            if (probs.shape != (len(self.labels),) or (probs < 0).any()
                    or not 0 < probs.sum() < math.inf or blocks < 0):
                raise ValueError("a segment needs blocks >= 0 and one prob >= 0 "
                                 "per label, with a finite positive sum")
            segments.append((probs / probs.sum(), blocks))
        object.__setattr__(self, "segments", tuple(segments))

    def block_probs(self) -> np.ndarray:
        """Each block's probability row, segment after segment: (n_blocks, n_labels)."""
        probs = np.reshape([p for p, _ in self.segments], (-1, len(self.labels)))
        return np.repeat(probs, [b for _, b in self.segments], axis=0)


@dataclass(frozen=True)
class ReconstructionPlan:
    """``tol`` None: ``RetrievalConfig``'s default for exact laws, one scaled
    to the noise for sampled laws; ``n`` None: the measurement plan's."""

    reference: str
    partners: tuple[str, ...]
    heldout: tuple[str, ...] = ()
    source: str = "exact"
    restarts: int = RetrievalConfig.restarts
    tol: float | None = None
    n: int | None = None

    def __post_init__(self):
        if self.source not in ("exact", "sampled") or self.n is not None and self.n < 1:
            raise ValueError(f"bad source {self.source!r}, or n <= 0")
        # the retrieval's own checks of restarts and tol
        RetrievalConfig(self.restarts,
                        RetrievalConfig.tol if self.tol is None else self.tol)


@dataclass(frozen=True)
class BornCheckPlan:
    n_samples: int = 10_000
    bins: int = 64

    def __post_init__(self):
        if self.n_samples < 1 or self.bins < 1:
            raise ValueError("n_samples and bins must be positive")


@dataclass
class Scenario:
    """Seed, output directory and the config of each section present."""

    seed: int
    output_dir: str = "out"
    sections: dict[str, object] = field(default_factory=dict)

    def section(self, name: str):  # "dbb.exp" is "exp" inside "dbb"
        if name not in self.sections:
            raise ScenarioError(f"scenario has no {name!r} section")
        return self.sections[name]

    def observable(self, name: str) -> ObservableSpec:
        if name not in self.sections.get("observables", {}):
            raise ScenarioError(f"unknown observable {name!r}")
        return self.sections["observables"][name]

    def transform(self, source: str, target: str) -> TransformMatrix:
        """The declared transform, else the one between the two eigenbases."""
        return self.sections.get("transforms", {}).get((source, target)) or \
            transform_between(self.observable(source), self.observable(target))


# readers: each returns a checked value or raises TypeError or ValueError

@contextmanager
def _reading(where: str):
    """Error boundary of one section or field: a malformed value becomes a
    ScenarioError prefixed with ``where``; other QfactErrors pass through."""
    try:
        yield
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing or unknown {exc}") from None
    except (ScenarioError, TypeError, ValueError, ArithmeticError, OSError) as exc:
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
_flag = _instance(bool, "true or false")
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


def _observable_name(scn: Scenario):
    return lambda v: scn.observable(_string(v)).name


# sections: name -> builder of its config from (its object, the scenario)

def _table(build):
    """Builder of a section of named entries, each through ``build``."""
    return lambda doc, scn: _fields(doc, **{k: partial(build, k) for k in _object(doc)})


def _transforms(doc, scn: Scenario) -> dict:
    out = {}
    for e in reversed(_list_of(_object)(doc)):  # the first declared wins
        e = _fields(e, source=_string, target=_string, entries=_complex_matrix)
        src, tgt = e["source"], e["target"]
        out[src, tgt] = scn.transform(src, tgt) if "entries" not in e else \
            TransformMatrix(src, tgt, e["entries"])
    return out


def _stability(doc, scn: Scenario):
    doc = _fields(doc, law=_object, law_json=_string, sampling=_object)
    if "law" in doc:
        return finprob.from_json_dict(doc["law"])
    if "law_json" in doc:
        return finprob.from_json(Path(doc["law_json"]).read_text())
    if "sampling" in doc:
        return SamplingPlan(**_fields(
            doc["sampling"], labels=_names, block_size=_integer, epsilon=_real,
            delta=_real, segments=_list_of(_record(probs=_reals, blocks=_integer))))
    raise ValueError("needs 'law', 'law_json' or 'sampling'")


def _two_wave(doc, scn: Scenario) -> dbb.TwoWaveState:
    kw = {"delta_phase": 0.0, **_fields(doc, **dict.fromkeys(
        ("v12", "nu", "V", "theta0", "delta_phase", "m0", "M", "c", "h"), _real))}
    build = dbb.TwoWaveState.from_corpuscle_speed if "v12" in kw else dbb.TwoWaveState
    return build(**kw)


def _exp(doc, scn: Scenario) -> dbb.ExpConfig:
    wave = scn.sections.get("dbb.two_wave")
    if wave is not None and not wave.guided_speed > 0:
        raise ValueError("the dbb.two_wave guided speed must be positive")
    return dbb.ExpConfig(**_fields(
        doc, lambda_sep=_real, kappa=lambda v: v if v is None else _real(v),
        kick_law=_string, kick_half_width=_real, n_trials=_integer,
        elastic_interactions_per_trial=_integer, z_periods=_integer))


# the fields of each recipe kind besides ``kind``, ``id`` and ``attachment``
_RECIPE_FIELDS = {
    "simple": dict(state=_string),
    "composed": dict(weights=_complex_vector, components=_list_of(_object)),
    "evolved": dict(base=_object, hamiltonian=_string, dt=_real),
    "multisystem": dict(state=_string, factor_dims=_list_of(_integer),
                        factor_labels=_names),
}


def _recipe(doc, scn: Scenario, where: str = "generation") -> GenerationOp:
    kind = _object(doc).get("kind")  # unknown: a KeyError naming it
    doc = _fields(doc, kind=_string, id=_string, attachment=_any,
                  **_RECIPE_FIELDS[kind])
    rid, attachment = doc.get("id", where), doc.get("attachment")
    if attachment is not None:  # a dbb wave
        attachment = scn.section({"two_wave": "dbb.two_wave",
                                  "plane_waves": "dbb.plane_waves"}[attachment])
    if kind in ("simple", "multisystem"):
        state = scn.section("states")[doc["state"]]
    if kind == "simple":
        return Simple(rid, state=state, attachment=attachment)
    if kind == "composed":
        comps = tuple(_recipe(c, scn, f"{where}.components[{i}]")
                      for i, c in enumerate(doc["components"]))
        return Composed(rid, weights=doc["weights"], components=comps,
                        attachment=attachment)
    if kind == "evolved":
        ham = scn.section("hamiltonians")[doc["hamiltonian"]]
        return Evolved(rid, base=_recipe(doc["base"], scn, f"{where}.base"),
                       hamiltonian=ham, attachment=attachment,
                       dt=doc.get("dt", Evolved.dt))
    dims = doc["factor_dims"]
    labels = doc.get("factor_labels", tuple(f"S{i+1}" for i in range(len(dims))))
    return MultiSystem(rid, joint_state=state, factor_dims=dims,
                       factor_labels=labels, attachment=attachment)


# built in this order: a section may use the ones above it
_SECTIONS = {
    "states": _table(lambda _, vec: OracleState(_complex_vector(vec))),
    "observables": _table(lambda name, doc: ObservableSpec(name, **_fields(
        doc, eigenvalues=_reals, eigenbasis=_complex_matrix))),
    "hamiltonians": _table(lambda name, doc: HamiltonianSpec(**_fields(
        doc, matrix=_complex_matrix, hbar=_real))),
    "transforms": _transforms,
    "measurement": lambda doc, scn: MeasurementPlan(**_fields(
        doc, observables=_list_of(_observable_name(scn)), n=_integer, epsilon=_real,
        delta=_real, block_size=_integer, guided=_flag)),
    "stability": _stability,
    "reconstruction": lambda doc, scn: ReconstructionPlan(**_fields(
        doc, reference=_observable_name(scn), partners=_list_of(_observable_name(scn)),
        heldout=_list_of(_observable_name(scn)), source=_string, restarts=_integer,
        tol=_real, n=_integer)),
    "dbb.two_wave": _two_wave,
    "dbb.exp": _exp,
    "dbb.plane_waves": lambda doc, scn: dbb.PlaneWaveSum(**_fields(
        doc, box=_real, hbar=_real, components=_list_of(
            _record(weight=_complex, momentum=_reals)))),
    "dbb.borncheck": lambda doc, scn: BornCheckPlan(
        **_fields(doc, n_samples=_integer, bins=_integer)),
    "generation": _recipe,
}


def load_scenario(text: str, seed_override: int | None = None) -> Scenario:
    """Parse and validate a scenario document into its configs."""
    dbb_sections = {name[4:]: _any for name in _SECTIONS if name[:4] == "dbb."}
    with _reading("scenario"):
        raw = _fields(json.loads(text), seed=_any, output_dir=_string,
                      dbb=lambda doc: _fields(doc, **dbb_sections),
                      **{name: _any for name in _SECTIONS if "." not in name})
    with _reading("seed"):
        seed = _integer(raw["seed"]) if seed_override is None else int(seed_override)
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

"""Scenario files: the JSON schema driving every CLI pipeline.

Complex numbers are [re, im] pairs; matrices are row-major nested lists.
All referenced names must resolve and every matrix passes its module
invariant at load time, so a malformed scenario fails before any run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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


def _complex_scalar(v, where: str) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ScenarioError(f"{where}: complex numbers are [re, im] pairs")
    return complex(float(v[0]), float(v[1]))


def _complex_vector(v, where: str) -> np.ndarray:
    try:
        return np.array([_complex_scalar(x, where) for x in v],
                        dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: bad complex vector: {exc}") from None


def _complex_matrix(v, where: str) -> np.ndarray:
    try:
        return np.array([[_complex_scalar(x, where) for x in row] for row in v],
                        dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: bad complex matrix: {exc}") from None


def encode_complex_vector(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec)]


def encode_complex_matrix(mat) -> list:
    return [encode_complex_vector(row) for row in np.asarray(mat)]


@dataclass
class Scenario:
    seed: int
    raw: dict
    states: dict[str, OracleState] = field(default_factory=dict)
    observables: dict[str, ObservableSpec] = field(default_factory=dict)
    hamiltonians: dict[str, HamiltonianSpec] = field(default_factory=dict)
    transforms: list[TransformMatrix] = field(default_factory=list)
    generation: GenerationOp | None = None
    output_dir: str = "out"

    def observable(self, name: str) -> ObservableSpec:
        if name not in self.observables:
            raise ScenarioError(f"unknown observable {name!r}")
        return self.observables[name]

    def transform(self, source: str, target: str) -> TransformMatrix:
        for t in self.transforms:
            if (t.source, t.target) == (source, target):
                return t
        raise ScenarioError(f"no transform {source!r} -> {target!r} in scenario")

    def measurement_plan(self) -> dict:
        plan = self.raw.get("measurement")
        if plan is None:
            raise ScenarioError("scenario has no 'measurement' section")
        try:
            return {
                "observables": list(plan["observables"]),
                "n": int(plan.get("n", 100_000)),
                "epsilon": float(plan.get("epsilon", finprob.DEFAULT_EPSILON)),
                "delta": float(plan.get("delta", finprob.DEFAULT_DELTA)),
                "block_size": int(plan.get("block_size",
                                           finprob.DEFAULT_BLOCK_SIZE)),
                "guided": bool(plan.get("guided", False)),
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"measurement: bad field: {exc!r}") from None


def _build_recipe(doc, scn: Scenario, where: str = "generation") -> GenerationOp:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ScenarioError(f"{where}: recipe needs a 'kind'")
    kind = doc["kind"]
    rid = doc.get("id", where)
    attachment = _build_attachment(doc.get("attachment"), scn, where)
    try:
        if kind == "simple":
            state = scn.states.get(doc["state"])
            if state is None:
                raise ScenarioError(f"{where}: unknown state {doc['state']!r}")
            return Simple(rid, state=state, attachment=attachment)
        if kind == "composed":
            weights = tuple(_complex_scalar(w, where) for w in doc["weights"])
            comps = tuple(_build_recipe(c, scn, f"{where}.components[{i}]")
                          for i, c in enumerate(doc["components"]))
            return Composed(rid, weights=weights, components=comps,
                            attachment=attachment)
        if kind == "evolved":
            base = _build_recipe(doc["base"], scn, f"{where}.base")
            ham = scn.hamiltonians.get(doc["hamiltonian"])
            if ham is None:
                raise ScenarioError(
                    f"{where}: unknown Hamiltonian {doc['hamiltonian']!r}")
            return Evolved(rid, base=base, hamiltonian=ham,
                           dt=float(doc.get("dt", 0.0)), attachment=attachment)
        if kind == "multisystem":
            state = scn.states.get(doc["state"])
            if state is None:
                raise ScenarioError(f"{where}: unknown state {doc['state']!r}")
            return MultiSystem(rid, joint_state=state,
                               factor_dims=tuple(int(d) for d in doc["factor_dims"]),
                               factor_labels=tuple(doc.get(
                                   "factor_labels",
                                   [f"S{i+1}" for i in range(len(doc["factor_dims"]))])),
                               attachment=attachment)
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing field {exc}") from None
    raise ScenarioError(f"{where}: unknown recipe kind {kind!r}")


def _build_attachment(doc, scn: Scenario, where: str):
    if doc is None:
        return None
    if doc == "two_wave":
        return build_two_wave(scn.raw)
    if doc == "plane_waves":
        return build_plane_waves(scn.raw)
    raise ScenarioError(f"{where}: unknown attachment {doc!r}")


def build_two_wave(raw: dict) -> dbb.TwoWaveState:
    doc = (raw.get("dbb") or {}).get("two_wave")
    if doc is None:
        raise ScenarioError("scenario has no dbb.two_wave section")
    try:
        if "v12" in doc:
            return dbb.TwoWaveState.from_corpuscle_speed(
                v12=float(doc["v12"]), theta0=float(doc["theta0"]),
                delta_phase=float(doc.get("delta_phase", 0.0)),
                m0=float(doc["m0"]),
                c=float(doc.get("c", 299_792_458.0)),
                h=float(doc.get("h", 6.626_070_15e-34)))
        return dbb.TwoWaveState(
            nu=float(doc["nu"]), V=float(doc["V"]), theta0=float(doc["theta0"]),
            delta_phase=float(doc.get("delta_phase", 0.0)),
            m0=float(doc["m0"]), M=float(doc["M"]),
            c=float(doc.get("c", 299_792_458.0)),
            h=float(doc.get("h", 6.626_070_15e-34)))
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"dbb.two_wave: {exc}") from None


def build_exp_config(raw: dict) -> dbb.ExpConfig:
    doc = (raw.get("dbb") or {}).get("exp")
    if doc is None:
        raise ScenarioError("scenario has no dbb.exp section")
    try:
        return dbb.ExpConfig(
            lambda_sep=float(doc["lambda_sep"]),
            kappa=None if doc.get("kappa") is None else float(doc["kappa"]),
            kick_law=doc.get("kick_law", "uniform"),
            kick_half_width=float(doc.get("kick_half_width", math.pi / 2.0)),
            n_trials=int(doc.get("n_trials", 10_000)),
            elastic_interactions_per_trial=int(
                doc.get("elastic_interactions_per_trial", 0)),
            z_periods=int(doc.get("z_periods", 8)),
        )
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"dbb.exp: {exc}") from None


def build_plane_waves(raw: dict) -> dbb.PlaneWaveSum:
    doc = (raw.get("dbb") or {}).get("plane_waves")
    if doc is None:
        raise ScenarioError("scenario has no dbb.plane_waves section")
    try:
        comps = tuple(
            (_complex_scalar(c["weight"], "plane_waves"),
             tuple(float(x) for x in c["momentum"]))
            for c in doc["components"])
        return dbb.PlaneWaveSum(components=comps, box=float(doc["box"]),
                                hbar=float(doc.get("hbar", 1.0)))
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError(f"dbb.plane_waves: {exc}") from None


def load_scenario(text: str, seed_override: int | None = None) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    if "seed" not in raw and seed_override is None:
        raise ScenarioError("scenario needs a 'seed'")
    seed = int(raw.get("seed", 0)) if seed_override is None else int(seed_override)

    scn = Scenario(seed=seed, raw=raw,
                   output_dir=str(raw.get("output_dir", "out")))
    for name, vec in (raw.get("states") or {}).items():
        try:
            scn.states[name] = OracleState(_complex_vector(vec, f"states.{name}"))
        except ValueError as exc:
            raise ScenarioError(f"states.{name}: {exc}") from None
    for name, doc in (raw.get("observables") or {}).items():
        try:
            scn.observables[name] = ObservableSpec(
                name, np.asarray(doc["eigenvalues"], dtype=float),
                _complex_matrix(doc["eigenbasis"], f"observables.{name}"))
        except (KeyError, ValueError) as exc:
            raise ScenarioError(f"observables.{name}: {exc}") from None
    for name, doc in (raw.get("hamiltonians") or {}).items():
        try:
            scn.hamiltonians[name] = HamiltonianSpec(
                _complex_matrix(doc["matrix"], f"hamiltonians.{name}"),
                hbar=float(doc.get("hbar", 1.0)))
        except (KeyError, ValueError) as exc:
            raise ScenarioError(f"hamiltonians.{name}: {exc}") from None
    for doc in raw.get("transforms") or []:
        try:
            src, tgt = doc["source"], doc["target"]
            if "entries" in doc:
                scn.transforms.append(TransformMatrix(
                    src, tgt, _complex_matrix(doc["entries"], "transforms")))
            else:
                scn.transforms.append(
                    transform_between(scn.observable(src), scn.observable(tgt)))
        except (KeyError, ValueError) as exc:
            raise ScenarioError(f"transforms: {exc}") from None
    if raw.get("generation") is not None:
        scn.generation = _build_recipe(raw["generation"], scn)
    return scn


def load_scenario_file(path, seed_override: int | None = None) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read(), seed_override)

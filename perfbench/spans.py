"""Spans around qfact's public functions, recorded from outside the program.

qfact's modules import functions by name (``cli`` imports
``run_successions``; ``genesis`` and ``dbb`` import ``counter_uniforms``),
so a wrapper is installed in every qfact namespace that holds the function,
and in module-level dicts such as ``cli.COMMANDS``, not only in the module
that defines it.  Spans stay in memory; ``Recorder.dump`` writes them out
once the run ends.  Tracing assumes one thread: run it with one worker.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


def _size(arg_index: int):
    """Work count of a call: the element count of one argument, ignoring
    its last axis when that axis holds coordinates (shape (..., 3))."""
    def size(args, kwargs, result):
        a = np.asarray(args[arg_index])
        return int(a.size // 3 if a.ndim > 1 and a.shape[-1] == 3 else a.size)
    return size


def _accepted(args, kwargs, result):
    return int(len(result))


# (module, attribute path, work count of one call or None)
TARGETS = [
    ("cli", "run_command", None),
    ("cli", "cmd_tree", None),
    ("cli", "cmd_stability", None),
    ("cli", "cmd_reconstruct", None),
    ("cli", "cmd_exp", None),
    ("cli", "cmd_borncheck", None),
    ("scenario", "load_scenario", None),
    ("seeding", "counter_uniforms", _size(1)),
    ("seeding", "trial_generator", None),
    ("hilbert", "sample_outcomes_from_uniforms", None),
    ("genesis", "run_successions", None),
    ("finprob", "accumulate_indices", None),
    ("finprob", "merge", None),
    ("finprob", "check_convergence", None),
    ("finprob", "from_json_dict", None),
    ("finprob", "to_csv", None),
    ("probtree", "partition_branches", None),
    ("reconstruct", "retrieve_phases", None),
    ("reconstruct", "predict_heldout", None),
    ("dbb", "simulate_exp", None),
    ("dbb", "extended_born_check", None),
    ("dbb", "fringe_density", _size(1)),
    ("dbb", "PlaneWaveSum.field", _size(1)),
    ("dbb", "PlaneWaveSum.guided_momentum_at", None),
    # the rejection samplers: their results count accepted positions, and
    # the density calls inside them count candidates
    ("dbb", "_sample_fringe_counter", _accepted),
    ("dbb", "_sample_box_counter", _accepted),
]
SAMPLERS = ("dbb._sample_fringe_counter", "dbb._sample_box_counter")
DENSITIES = ("dbb.fringe_density", "dbb.PlaneWaveSum.field")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at top level
    op: int          # index of the op the span belongs to
    count: int | None


class Recorder:
    """Collects spans while installed; ``install`` patches, ``remove``
    restores every patched reference."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []

    def _wrap(self, name: str, fn, count):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            rec.spans.append(Span(name, 0.0, 0.0, parent, rec.op, None))
            rec._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                span = rec.spans[idx]
                span.start, span.end = start, end
            if count is not None:
                span.count = count(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "qfact" or k.startswith("qfact.")]
        for mod_name, path, count in TARGETS:
            owner = sys.modules.get(f"qfact.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            wrapper = self._wrap(f"{mod_name}.{path}", original, count)
            if outer:  # a method: patch the class attribute
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapper)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is original:
                                val[k] = wrapper
                                self._patches.append((val, k, original))

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def remove(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"missing": self.missing,
                                    "spans": [asdict(s) for s in self.spans]}))


def unit_of(name: str) -> str:
    if name.endswith(("ms", "_ms")):
        return "ms"
    if name.endswith((".calls", ".draws")):
        return "count"
    return "ratio"


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer figures per traced op: inclusive ms, self ms (span minus
    its direct children), call and work counts, and the rejection
    samplers' accepted / candidate ratio."""
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ms[s.parent] += (s.end - s.start) * 1e3
    ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    candidates = accepted = 0
    for i, s in enumerate(spans):
        dur = (s.end - s.start) * 1e3
        ms[s.name] = ms.get(s.name, 0.0) + dur
        self_ms[s.name] = self_ms.get(s.name, 0.0) + dur - child_ms[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.count is not None:
            counts[s.name] = counts.get(s.name, 0) + s.count
        if s.name in SAMPLERS:
            accepted += s.count
        elif s.name in DENSITIES and s.parent >= 0 \
                and spans[s.parent].name in SAMPLERS:
            candidates += s.count
    per_op = 1.0 / max(n_ops, 1)

    def get(table, name):
        return table.get(name, 0) * per_op

    return {
        "seeding.counter_uniforms.ms": get(ms, "seeding.counter_uniforms"),
        "seeding.counter_uniforms.draws": get(counts, "seeding.counter_uniforms"),
        "seeding.trial_generator.ms": get(ms, "seeding.trial_generator"),
        "seeding.trial_generator.calls": get(calls, "seeding.trial_generator"),
        "hilbert.sample_outcomes_from_uniforms.ms":
            get(ms, "hilbert.sample_outcomes_from_uniforms"),
        "genesis.run_successions.self_ms": get(self_ms, "genesis.run_successions"),
        "genesis.run_successions.calls": get(calls, "genesis.run_successions"),
        "finprob.accumulate_indices.ms": get(ms, "finprob.accumulate_indices"),
        "finprob.merge.ms": get(ms, "finprob.merge"),
        "finprob.merge.calls": get(calls, "finprob.merge"),
        "finprob.check_convergence.ms": get(ms, "finprob.check_convergence"),
        "finprob.from_json_dict.ms": get(ms, "finprob.from_json_dict"),
        "finprob.to_csv.ms": get(ms, "finprob.to_csv"),
        "probtree.partition_branches.ms": get(ms, "probtree.partition_branches"),
        "reconstruct.retrieve_phases.ms": get(ms, "reconstruct.retrieve_phases"),
        "reconstruct.predict_heldout.ms": get(ms, "reconstruct.predict_heldout"),
        "dbb.simulate_exp.self_ms": get(self_ms, "dbb.simulate_exp"),
        "dbb.extended_born_check.self_ms": get(self_ms, "dbb.extended_born_check"),
        "dbb.PlaneWaveSum.guided_momentum_at.ms":
            get(ms, "dbb.PlaneWaveSum.guided_momentum_at"),
        "dbb.fringe_density.calls": get(calls, "dbb.fringe_density"),
        "dbb.PlaneWaveSum.field.calls": get(calls, "dbb.PlaneWaveSum.field"),
        "dbb.fringe_sampler.ms": get(ms, "dbb._sample_fringe_counter"),
        "dbb.box_sampler.ms": get(ms, "dbb._sample_box_counter"),
        "dbb.accepted_per_candidate": accepted / candidates if candidates else 0.0,
        "scenario.load_scenario.ms": get(ms, "scenario.load_scenario"),
        "cli.run_command.self_ms": get(self_ms, "cli.run_command"),
    }

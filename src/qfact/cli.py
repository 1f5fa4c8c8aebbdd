"""Scenario-driven batch runner.

One scenario file drives one command; every run writes its artifacts plus a
manifest with per-output checksums.  All randomness, retrieval restarts too,
comes from ``seeding`` streams keyed by the scenario seed, so a re-run gives
identical bytes; an output with a NaN or an infinity is refused.

Commands: stability | tree | reconstruct | exp | borncheck
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import dbb, finprob, scenario
from .errors import QfactError, ScenarioError
from .genesis import run_laws
from .hilbert import born_law
from .probtree import build_tree
from .reconstruct import StateReconstructor


def _plain(value):  # json's hook for what it cannot write: numpy values
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(doc) -> str:
    try:  # JSON has no NaN or infinity; a reader would take them as errors
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False,
                          default=_plain) + "\n"
    except ValueError as exc:
        raise QfactError(f"an output holds a NaN or an infinity: {exc}") from None


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        row = [x.item() if isinstance(x, np.generic) else x for x in row]
        if not all(math.isfinite(x) for x in row if isinstance(x, float)):
            raise QfactError(f"an output row holds a NaN or an infinity: {row!r}")
        w.writerow([repr(x) if isinstance(x, float) else x for x in row])
    return buf.getvalue()


def _hist_csv(hist: dbb.Histogram1D) -> str:
    return _csv_text(["bin_low", "bin_high", "mass"],
                     zip(hist.edges[:-1], hist.edges[1:], hist.mass))


def _doc(result, omit=(), **extra) -> dict:
    """A result's fields but those written elsewhere, plus the run's settings."""
    return {**{k: v for k, v in vars(result).items() if k not in omit}, **extra}


def _verdict_doc(law, verdict) -> dict:
    return _doc(verdict, epsilon=law.epsilon, delta=law.delta,
                block_size_n0=law.block_size_n0)


# --------------------------------------------------------------------------
# commands: each returns {filename: text}
# --------------------------------------------------------------------------

def cmd_stability(scn: scenario.Scenario) -> dict[str, str]:
    law = scn.section("stability")
    verdict = finprob.check_convergence(law)
    return {
        "stability_verdict.json": _json_text(_verdict_doc(law, verdict)),
        "law.csv": finprob.to_csv(law),
    }


def cmd_tree(scn: scenario.Scenario) -> dict[str, str]:
    plan, recipe = scn.section("measurement"), scn.section("generation")
    tree = build_tree(recipe, [scn.observable(o) for o in plan.observables], plan.n,
                      plan.epsilon, plan.delta, plan.block_size, scn.seed)

    outputs: dict[str, str] = {}
    verdicts: dict[str, dict] = {}
    for _, laws in tree.branches:
        for name, law in laws.items():
            outputs[f"law_{name}.csv"] = finprob.to_csv(law)
            if len(law.complete_blocks()) >= 2:
                verdicts[name] = _verdict_doc(law, finprob.check_convergence(law))
    tree_doc = {
        "trunk": tree.trunk,
        "branches": [{"members": list(grp.members),
                      "laws": {m: f"law_{m}.csv" for m in grp.members}}
                     for grp, _ in tree.branches],
        "trunk_only": tree.trunk_only,
        "mpc": [],
        "stability": verdicts,
    }
    outputs["tree.json"] = _json_text(tree_doc)
    return outputs


def cmd_reconstruct(scn: scenario.Scenario) -> dict[str, str]:
    plan, recipe = scn.section("reconstruction"), scn.section("generation")
    names = [plan.reference, *plan.partners]
    if plan.source == "exact":
        laws = {name: born_law(recipe.state, scn.observable(name)) for name in names}
    else:
        meas = scn.section("measurement")
        laws = run_laws(recipe, [scn.observable(name) for name in names], plan.n,
                        meas.epsilon, meas.delta, meas.block_size, scn.seed)
    est = StateReconstructor(plan.reference, **dataclasses.asdict(plan.retrieval))
    est.fit(laws, plan.transforms.values())

    outputs = {
        "expansion.json": _json_text(_doc(est.expansion_)),
        "retrieval_report.json": _json_text(_doc(
            est.report_, omit=("alternate_phases",), tolerance=plan.retrieval.tol,
            source=plan.source)),
    }
    for name in plan.heldout:
        outputs[f"predicted_{name}.json"] = _json_text(dict(zip(
            scn.observable(name).labels(), est.predict(plan.transforms[name]))))
    return outputs


def cmd_exp(scn: scenario.Scenario) -> dict[str, str]:
    summary = dbb.simulate_exp(scn.section("dbb.two_wave"),
                               scn.section("dbb.exp"), scn.seed)
    doc = _doc(summary, omit=("direction_hist", "fringe_hist"),
               heisenberg_violated=summary.heisenberg_product < summary.hbar_half)
    return {
        "exp_summary.json": _json_text(doc),
        "exp_direction_hist.csv": _hist_csv(summary.direction_hist),
        "exp_fringe_hist.csv": _hist_csv(summary.fringe_hist),
        "exp_lambda_table.csv": _csv_text(["lambda", "mean_abs_gamma"],
                                          summary.lambda_table),
    }


def cmd_borncheck(scn: scenario.Scenario) -> dict[str, str]:
    plan = scn.section("dbb.borncheck")
    rec = dbb.extended_born_check(scn.section("dbb.plane_waves"),
                                  plan.n_samples, scn.seed, bins=plan.bins)
    doc = _doc(rec, omit=("guided_hists",), candidate_spectrum=[
        {"momentum": v, "weight": w} for v, w in zip(*rec.candidate_spectrum)])
    return {"borncheck_summary.json": _json_text(doc),
            **{f"borncheck_p{axis}.csv": _hist_csv(hist)
               for axis, hist in zip("xyz", rec.guided_hists)}}


COMMANDS = {
    "stability": cmd_stability,
    "tree": cmd_tree,
    "reconstruct": cmd_reconstruct,
    "exp": cmd_exp,
    "borncheck": cmd_borncheck,
}


def run_command(command: str, scenario_path: str, seed: int | None = None,
                out: str | None = None, workers: int = 1) -> Path:
    """Execute one pipeline; returns the output directory (``workers`` is ignored)."""
    started = time.perf_counter()
    scn, source = scenario.load_scenario_file(scenario_path, seed)
    outputs = COMMANDS[command](scn)

    out_dir = Path(out) if out is not None else Path(scn.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checksums = {}
    for name, text in sorted(outputs.items()):
        data = text.encode("utf-8")
        (out_dir / name).write_bytes(data)
        checksums[name] = hashlib.sha256(data).hexdigest()
    manifest = {
        "command": command,
        "scenario_hash": hashlib.sha256(source).hexdigest(),
        "inputs": scn.inputs,
        "seed": scn.seed,
        "outputs": checksums,
        "wall_clock_s": time.perf_counter() - started,
    }
    (out_dir / "manifest.json").write_text(_json_text(manifest))
    return out_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qfact",
        description="Scenario-driven runner for factual-law experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=1, help="ignored")
    args = parser.parse_args(argv)
    try:
        out_dir = run_command(args.command, args.scenario, args.seed,
                              args.out, args.workers)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except QfactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a count too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())

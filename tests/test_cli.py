import copy
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from qfact import cli, finprob, scenario
from qfact.errors import QfactError, ScenarioError

RT2 = 1 / math.sqrt(2)
ROOT = Path(__file__).resolve().parent.parent
SCENARIOS, SRC = ROOT / "scenarios", ROOT / "src"

TWO_LEVEL = {
    "states": {"psi": [[0.6, 0.0], [0.0, 0.8]]},
    "observables": {
        "A": {"eigenvalues": [0.0, 1.0],
              "eigenbasis": [[[1.0, 0.0], [0.0, 0.0]],
                             [[0.0, 0.0], [1.0, 0.0]]]},
        "B": {"eigenvalues": [-1.0, 1.0],
              "eigenbasis": [[[RT2, 0.0], [RT2, 0.0]],
                             [[RT2, 0.0], [-RT2, 0.0]]]},
        "C": {"eigenvalues": [0.0, 2.0],
              "eigenbasis": [[[RT2, 0.0], [0.0, RT2]],
                             [[RT2, 0.0], [0.0, -RT2]]]},
    },
    "generation": {"id": "G1", "kind": "simple", "state": "psi"},
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sampled_reconstruction_doc(**measurement):
    """The shipped reconstruct_two_level scenario, fitted to sampled laws."""
    doc = json.loads((SCENARIOS / "reconstruct_two_level.json").read_text())
    doc["reconstruction"]["source"] = "sampled"
    doc["measurement"] = {"observables": ["A", "B", "C"], "block_size": 1_000,
                          **measurement}
    return doc


def identical_blocks_doc(n_blocks=10):
    law = finprob.FactualLaw.from_block_counts(
        ("a1", "a2"), [{"a1": 3, "a2": 1}] * n_blocks, epsilon=0.02, delta=0.05,
        block_size_n0=4)
    return {"seed": 1, "stability": {"law": finprob.to_json_dict(law)}}


# --- scenario loading --------------------------------------------------------

def test_scenario_rejects_bad_json():
    with pytest.raises(ScenarioError):
        scenario.load_scenario("{not json")


def test_scenario_rejects_unknown_state_reference():
    doc = dict(TWO_LEVEL, seed=1,
               generation={"id": "G", "kind": "simple", "state": "nope"})
    with pytest.raises(ScenarioError):
        scenario.load_scenario(json.dumps(doc))


def test_scenario_rejects_invalid_matrix():
    doc = {"seed": 1, "observables": {"A": {
        "eigenvalues": [0.0, 1.0],
        "eigenbasis": [[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}}}
    with pytest.raises(ScenarioError, match="^observables: A: "):
        scenario.load_scenario(json.dumps(doc))


def test_scenario_requires_seed():
    with pytest.raises(ScenarioError):
        scenario.load_scenario("{}")
    scn = scenario.load_scenario("{}", seed_override=5)
    assert scn.seed == 5
    with pytest.raises(ScenarioError):
        scenario.load_scenario("{}", seed_override=-1)


def test_scenario_recipe_kinds():
    doc = {**TWO_LEVEL, "seed": 1,
           "hamiltonians": {"H": {"matrix": [[[0.0, 0.0], [1.0, 0.0]],
                                             [[1.0, 0.0], [0.0, 0.0]]]}},
           "generation": {"kind": "composed", "id": "G", "weights": [[1, 0], [0, 1]],
                          "components": [
                              {"kind": "simple", "state": "psi"},
                              {"kind": "evolved", "hamiltonian": "H", "dt": 0.5,
                               "base": {"kind": "simple", "state": "psi"}}]}}
    scn = scenario.load_scenario(json.dumps(doc))
    psi, ham = scn.section("states")["psi"], scn.section("hamiltonians")["H"]
    raw = psi.amplitudes + 1j * expm(-0.5j * ham.matrix) @ psi.amplitudes
    assert scn.section("generation").id == "G"
    assert scn.section("generation").state.amplitudes == \
        pytest.approx(raw / np.linalg.norm(raw), abs=1e-12)
    # a kind of earlier versions, now unknown
    doc["generation"] = {"kind": "multisystem", "state": "psi", "factor_dims": [2]}
    with pytest.raises(ScenarioError, match="^generation: .*'multisystem'"):
        scenario.load_scenario(json.dumps(doc))


def test_missing_scenario_file_exit_code_2(tmp_path, capsys):
    code = cli.main(["tree", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "scenario error:" in err and "nope.json" in err


def test_scenario_file_not_utf8_exit_code_2(tmp_path, capsys):
    (tmp_path / "latin1.json").write_bytes('{"seed": 1, "output_dir": "é"}'
                                           .encode("latin-1"))
    code = cli.main(["tree", "--scenario", str(tmp_path / "latin1.json"),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("scenario error: scenario file ") and "utf-8" in err


def test_scenario_complex_pairs_enforced():
    doc = {"seed": 1, "states": {"psi": [1.0, 0.0]}}
    with pytest.raises(ScenarioError):
        scenario.load_scenario(json.dumps(doc))


# --- stability command -------------------------------------------------------

def test_stability_identical_blocks_stable(tmp_path):
    path = write_scenario(tmp_path, identical_blocks_doc())
    assert cli.main(["stability", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 0
    verdict = json.loads((tmp_path / "out" / "stability_verdict.json").read_text())
    assert verdict["stable"] is True
    assert verdict["worst_deviation"] == 0.0


def test_stability_drift_unstable(tmp_path):
    doc = {"seed": 9, "stability": {"sampling": {
        "labels": ["a1", "a2"],
        "segments": [{"blocks": 50, "probs": [0.3, 0.7]},
                     {"blocks": 50, "probs": [0.7, 0.3]}],
        "block_size": 10_000, "epsilon": 0.1, "delta": 0.05}}}
    path = write_scenario(tmp_path, doc)
    assert cli.main(["stability", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 0
    verdict = json.loads((tmp_path / "out" / "stability_verdict.json").read_text())
    assert verdict["stable"] is False


def test_stability_malformed_scenario_nonzero_exit(tmp_path, capsys):
    path = write_scenario(tmp_path, {"seed": 1})
    assert cli.main(["stability", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert "stability" in capsys.readouterr().err


SEGMENT = ("stability", "sampling", "segments", 0)


@pytest.mark.parametrize("command,name,path,value", [
    ("exp", "trace_experiment", ("dbb", "exp", "kick_law"), "normall"),
    ("tree", "tree_two_level", ("measurement", "observables"), None),
    ("stability", "stability_drift", SEGMENT + ("probs",), None),
    ("stability", "stability_drift", SEGMENT + ("blocks",), None),
    ("tree", "tree_two_level", ("measurement",), ["A"]),
    ("tree", "tree_two_level", ("measurement", "n"), "lots"),
    ("stability", "stability_drift", SEGMENT, "segment"),
    ("borncheck", "trace_experiment", ("dbb", "borncheck", "n_samples"), "x"),
    ("stability", "stability_drift", ("stability", "sampling"), ["x"]),
    ("stability", "stability_drift", ("stability", "sampling", "labels"),
     ["heads", "heads"]),
    ("stability", "stability_drift", SEGMENT + ("probs",), [-0.3, 1.3]),
    ("stability", "stability_drift", SEGMENT + ("probs",), [1e308, 1e308]),
    ("exp", "trace_experiment", ("dbb", "two_wave", "theta0"), 0),
    ("exp", "trace_experiment", ("dbb", "two_wave", "m0"), 1e300),
    ("exp", "trace_experiment", ("dbb", "two_wave", "v12"), 1e-300),
    ("borncheck", "trace_experiment", ("dbb", "two_wave", "m0"), 1e-300),
    ("exp", "trace_experiment", ("dbb", "two_wave", "theta0"), 5e-324),
    ("exp", "trace_experiment", ("dbb", "exp", "lambda_sep"), 5e-324),
    ("exp", "trace_experiment", ("dbb", "exp", "kappa"), 1.7976931348623157e308),
    ("exp", "trace_experiment", ("dbb", "exp", "kappa"), 1e308),
    ("exp", "trace_experiment", ("dbb", "two_wave", "delta_phase"), 1e100),
    ("tree", "tree_two_level", ("seed",), "x"),
    ("stability", "stability_drift", ("seed",), True),
    ("exp", "trace_experiment", ("dbb", "plane_waves", "box"), "x"),
    ("borncheck", "trace_experiment", ("dbb", "borncheck", "n_sampels"), 5),
    ("tree", "tree_two_level", ("reconstrution",), {"reference": "A"}),
    ("reconstruct", "reconstruct_two_level", ("reconstruction", "restarts"), 0),
    ("reconstruct", "reconstruct_two_level", ("reconstruction", "tol"), 0),
    ("reconstruct", "reconstruct_two_level", ("reconstruction", "tol"), -1e-3),
    ("reconstruct", "reconstruct_two_level", ("reconstruction",),
     {"reference": "A", "partners": ["B", "C"], "source": "sampled", "n": 0}),
    ("reconstruct", "reconstruct_two_level", ("reconstruction", "source"),
     "measured"),
    ("tree", "tree_two_level", ("measurement", "observables"), []),
    ("reconstruct", "reconstruct_two_level", ("reconstruction", "partners"), []),
    ("tree", "tree_two_level", ("measurement", "observables"), ["A", "B", "A"]),
    ("reconstruct", "reconstruct_two_level", ("reconstruction", "partners"),
     ["B", "B"]),
    ("reconstruct", "reconstruct_two_level", ("reconstruction", "partners"),
     ["C", "A"]),
    ("reconstruct", "reconstruct_two_level", ("reconstruction", "heldout"),
     ["B", "B"]),
    ("reconstruct", "reconstruct_two_level", ("transforms",),
     [{"source": "A", "target": "B",  # a section that is gone
       "entries": [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]}]),
    ("stability", "stability_drift", ("stability",), {}),
    ("borncheck", "trace_experiment", ("dbb", "plane_waves", "components"),
     [{"weight": [0.0, 0.0], "momentum": [2.0, 0.0, 3.0]},
      {"weight": [0.0, 0.0], "momentum": [2.0, 0.0, -3.0]}]),
], ids=["kick_law", "observables", "probs", "blocks", "measurement_type",
        "n_type", "segment_type", "n_samples_type", "sampling_type",
        "duplicate_labels", "negative_probs", "probs_sum_overflow", "theta0_zero",
        "m0_overflow", "v12_underflow", "m0_underflow", "flight_time_overflow",
        "lambda_sep_subnormal", "kappa_overflow", "kappa_two_kick_overflow",
        "delta_phase_large",
        "seed_type", "seed_bool", "unused_section",
        "misspelt_field", "misspelt_section", "restarts_zero", "tol_zero",
        "tol_negative", "sampled_n_zero", "source_measured", "observables_empty",
        "partners_empty", "observables_repeated", "partners_repeated",
        "partners_reference", "heldout_repeated", "transform_size",
        "stability_no_law", "weights_vanish"])
def test_malformed_scenario_exit_code_2(tmp_path, capsys, command, name,
                                         path, value):
    # a shipped scenario with one field set to ``value`` (None: deleted);
    # every section present is checked, also one the command does not use
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    *outer, key = path
    section = doc
    for part in outer:
        section = section[part]
    if value is None:
        del section[key]
    else:
        section[key] = value
    scn_path = write_scenario(tmp_path, doc)
    code = cli.main([command, "--scenario", scn_path,
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "scenario error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,name,path,value", [
    ("tree", "tree_two_level", ("measurment",), {}),
    ("tree", "tree_two_level", ("generation", "stat"), "psi"),
    ("tree", "tree_two_level", ("observables", "A", "eigenbasiss"), []),
    ("stability", "stability_drift", ("stability", "samplng"), {}),
    ("stability", "stability_drift", SEGMENT + ("block",), 5),
    ("reconstruct", "reconstruct_two_level", ("transforms",),
     [{"source": "A", "target": "B", "entry": []}]),
    ("exp", "trace_experiment", ("dbb", "two_wav"), {}),
    ("borncheck", "trace_experiment", ("dbb", "borncheck", "bin"), 5),
    ("borncheck", "trace_experiment",
     ("dbb", "plane_waves", "components", 0, "phase"), 0.0),
    # fields of earlier versions, now constants or gone
    ("exp", "trace_experiment", ("dbb", "two_wave", "c"), 299_792_458.0),
    ("exp", "trace_experiment", ("dbb", "two_wave", "nu"), 1.2e20),
    ("exp", "trace_experiment", ("dbb", "exp", "z_periods"), 8),
    ("exp", "trace_experiment",
     ("dbb", "exp", "elastic_interactions_per_trial"), 0),
    ("exp", "trace_experiment", ("dbb", "exp", "kick_half_width"), 1.0),
    ("tree", "tree_two_level", ("generation", "attachment"), "two_wave"),
    ("tree", "tree_two_level", ("measurement", "guided"), True),
])
def test_unknown_field_named_exit_code_2(tmp_path, capsys, command, name,
                                         path, value):
    # a misspelt key is an error naming it, not a default taken silently
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    *outer, key = path
    section = doc
    for part in outer:
        section = section[part]
    section[key] = value
    code = cli.main([command, "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("scenario error:")
    assert f"unknown field {key!r}" in err


# a 3-level observable beside the 2-level ones of the shipped scenarios
D3 = {"eigenvalues": [0.0, 1.0, 2.0],
      "eigenbasis": [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]}


PSI3 = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("command,path,value", [
    ("reconstruct", ("observables", "B", "eigenvalues"), [-1.0, 0.0, 1.0]),
    ("reconstruct", ("reconstruction", "partners"), ["B", "D"]),
    ("reconstruct", ("reconstruction", "heldout"), ["D"]),
    ("reconstruct", ("states", "psi"), PSI3),
    ("tree", ("states", "psi"), PSI3),
], ids=["eigenbasis_size", "partner_dim",
        "heldout_dim", "state_dim_reconstruct", "state_dim_tree"])
def test_dimension_mismatch_exit_code_2(tmp_path, capsys, command, path, value):
    # a document whose dimensions disagree is a schema error, found at load
    doc = json.loads((SCENARIOS / f"{command}_two_level.json").read_text())
    doc["observables"]["D"] = D3
    _set_path(doc, path, value)
    code = cli.main([command, "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("scenario error:")
    assert "dimension" in err


def composed_recipe_doc(doc=None):
    """``doc``, else the shipped tree_composed scenario, with that scenario's
    recipe: a composed one with a simple and an evolved component."""
    composed = json.loads((SCENARIOS / "tree_composed.json").read_text())
    return composed if doc is None else {**doc, **{
        key: composed[key] for key in ("hamiltonians", "generation")}}


def reconstruct_doc():
    return json.loads((SCENARIOS / "reconstruct_two_level.json").read_text())


EVOLVED = ("generation", "components", 1)
OVERFLOW = {("hamiltonians", "H", "hbar"): 1e-320, EVOLVED + ("dt",): 1.0}


@pytest.mark.parametrize("command,doc,changes", [
    ("tree", composed_recipe_doc, {("generation", "weights"): [[1.0, 0.0]]}),
    ("tree", composed_recipe_doc, {EVOLVED + ("dt",): -0.5}),
    ("tree", composed_recipe_doc, {EVOLVED + ("hamiltonian",): "nope"}),
    ("tree", composed_recipe_doc, OVERFLOW),
    ("reconstruct", lambda: composed_recipe_doc(reconstruct_doc()), OVERFLOW),
], ids=["weight_count", "dt_negative", "hamiltonian_unknown",
        "evolution_overflow_tree", "evolution_overflow_reconstruct"])
def test_malformed_recipe_exit_code_2(tmp_path, capsys, command, doc, changes):
    # a recipe is read into its state at load; a state that evolution pushes
    # out of float range is refused there too
    doc = doc()
    for path, value in changes.items():
        _set_path(doc, path, value)
    code = cli.main([command, "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("scenario error: generation: ")
    assert "Traceback" not in err


def test_cancelling_recipe_exit_code_1(tmp_path, capsys):
    doc = composed_recipe_doc()
    doc["generation"]["components"][1] = {"kind": "simple", "state": "psi"}
    doc["generation"]["weights"] = [[0.5, 0.0], [-0.5, 0.0]]
    code = cli.main(["tree", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: superposition weights cancel to zero norm")


def test_huge_recipe_weights_scale_free(tmp_path, capsys):
    # weights whose squares overflow prepare the state of weights [1, 0]
    outs = []
    for weight in (1e200, 1.0):
        doc = composed_recipe_doc()
        doc["generation"]["weights"] = [[weight, 0.0], [0.0, 0.0]]
        outs.append(tmp_path / f"out{weight}")
        assert cli.main(["tree", "--scenario", write_scenario(tmp_path, doc),
                         "--out", str(outs[-1])]) == 0
    assert capsys.readouterr().err == ""
    files = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
    assert files
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("command,doc", [
    ("tree", composed_recipe_doc),
    ("reconstruct", lambda: composed_recipe_doc(reconstruct_doc())),
    ("reconstruct", lambda: composed_recipe_doc(sampled_reconstruction_doc())),
], ids=["tree", "reconstruct_exact", "reconstruct_sampled"])
def test_evolved_recipe_diagonalizes_once(tmp_path, monkeypatch, command, doc):
    # the recipe's state is prepared once, at load, and every law of the run
    # is drawn from it
    doc = doc()
    if "measurement" in doc:
        doc["measurement"]["n"] = 20_000
    eigh, calls = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        calls.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert cli.main([command, "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("field,value", [
    ("block_history", None),
    ("counts", {"a1": 20, "a2": 20}),
    ("n_total", 41),
    ("block_history", [{"a1": 3, "a2": 1.5}] * 10),
    ("block_history", [{"a1": 3, "a2": True}] * 10),
    ("block_history", [{"a1": "3", "a2": 1}] * 10),
    ("block_history", [[["a1", 3], ["a2", 1]]] * 10),
    ("block_size_n0", 4.5),
    ("n_total", 40.9),
    ("counts", {"a1": 30.5, "a2": 10}),
    ("counts", [["a1", 30], ["a2", 10]]),
    ("epsilon", "0.02"),
    ("delta", "0.05"),
    ("spectrum", [0, "a2"]),
    ("spectrum", [None, "a2"]),
    ("spectrum", "a1a2"),
    ("block_history", [{"a1": 6, "a2": 2}] + [{"a1": 3, "a2": 1}] * 8),
    ("block_history", [{"a1": 2}, {"a1": 1, "a2": 1}] + [{"a1": 3, "a2": 1}] * 9),
], ids=["no_block_history", "counts_mismatch", "n_total_mismatch", "count_float",
        "count_bool", "count_string", "block_pairs", "n0_float", "n_total_float",
        "declared_float", "counts_pairs", "epsilon_string", "delta_string",
        "spectrum_int", "spectrum_null", "spectrum_string", "block_over_n0",
        "partial_block_not_last"])
def test_stability_unreadable_law_exit_code_2(tmp_path, capsys, field, value):
    # a readable law with one field set to ``value`` (None: deleted); the
    # mismatched counts still sum to n_total, the table's 40 trials, and each
    # non-integer would read as the law's own value if it were truncated
    doc = identical_blocks_doc()
    law = doc["stability"]["law"]
    if value is None:
        del law[field]
    else:
        law[field] = value
    path = write_scenario(tmp_path, doc)
    code = cli.main(["stability", "--scenario", path,
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("scenario error: stability: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("nested", ["scenario", "law_json"])
def test_deeply_nested_input_exit_code_2(tmp_path, capsys, nested):
    # JSON nested deeper than the interpreter's recursion limit
    deep = "[" * 5000 + "]" * 5000
    if nested == "scenario":
        text = f'{{"seed": 1, "states": {{"psi": {deep}}}}}'
    else:
        (tmp_path / "law.json").write_text(deep)
        text = json.dumps({"seed": 1, "stability": {
            "law_json": str(tmp_path / "law.json")}})
    (tmp_path / "scenario.json").write_text(text)
    code = cli.main(["tree", "--scenario", str(tmp_path / "scenario.json"),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("scenario error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("inline", [True, False], ids=["law", "law_json"])
def test_stability_law_unknown_key_named_exit_code_2(tmp_path, capsys, inline):
    # a misspelt law key is an error naming it, not epsilon's default
    law = dict(identical_blocks_doc()["stability"]["law"], epsilonn=0.5)
    if inline:
        doc = {"seed": 1, "stability": {"law": law}}
    else:
        (tmp_path / "law.json").write_text(json.dumps(law))
        doc = {"seed": 1, "stability": {"law_json": str(tmp_path / "law.json")}}
    code = cli.main(["stability", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("scenario error:")
    assert "unknown law key 'epsilonn'" in err


@pytest.mark.parametrize("segments", [[{"probs": [0.5, 0.5], "blocks": 0}], []],
                         ids=["zero_blocks", "no_segments"])
def test_stability_sampling_without_blocks_exit_code_1(tmp_path, capsys, segments):
    # an empty block table is a law too small to judge, not a crash
    doc = json.loads((SCENARIOS / "stability_fair_coin.json").read_text())
    doc["stability"]["sampling"]["segments"] = segments
    code = cli.main(["stability", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: need at least 2 complete blocks, have 0")


def test_stability_unknown_block_label_exit_code_1(tmp_path, capsys):
    doc = identical_blocks_doc()
    doc["stability"]["law"]["block_history"][0] = {"a1": 3, "zz": 1}
    path = write_scenario(tmp_path, doc)
    code = cli.main(["stability", "--scenario", path,
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "zz" in err
    assert "Traceback" not in err


# --- tree command ------------------------------------------------------------

def test_tree_single_observable_trunk_only(tmp_path):
    doc = dict(TWO_LEVEL, seed=3,
               measurement={"observables": ["A"], "n": 2_000,
                            "epsilon": 0.02, "delta": 0.05, "block_size": 500})
    path = write_scenario(tmp_path, doc)
    assert cli.main(["tree", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 0
    tree = json.loads((tmp_path / "out" / "tree.json").read_text())
    assert tree["trunk_only"] is True
    assert tree["trunk"] == "G1"
    with open(tmp_path / "out" / "law_A.csv", newline="") as f:
        header, meta, *_ = csv.reader(f)
    assert dict(zip(header, meta))["n_total"] == "2000"


def test_tree_two_branches(tmp_path):
    doc = dict(TWO_LEVEL, seed=3,
               measurement={"observables": ["A", "B"], "n": 2_000,
                            "epsilon": 0.02, "delta": 0.05, "block_size": 500})
    path = write_scenario(tmp_path, doc)
    assert cli.main(["tree", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 0
    tree = json.loads((tmp_path / "out" / "tree.json").read_text())
    assert tree["trunk_only"] is False
    assert len(tree["branches"]) == 2


@pytest.mark.parametrize("scale", [1e-6, 1e200])
def test_tree_branches_free_of_eigenvalue_scale(tmp_path, scale):
    # the shipped tree with every eigenvalue scaled: B and C share an
    # eigenbasis and A does not, in any units.  Run as a user runs it, with
    # warnings as errors
    doc = json.loads((SCENARIOS / "tree_two_level.json").read_text())
    for obs in doc["observables"].values():
        obs["eigenvalues"] = [scale * v for v in obs["eigenvalues"]]
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qfact.cli", "tree", "--scenario",
         write_scenario(tmp_path, doc), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    tree = json.loads((out / "tree.json").read_text())
    assert [b["members"] for b in tree["branches"]] == [["A"], ["B", "C"]]


def test_tree_byte_identical_across_worker_counts(tmp_path):
    doc = dict(TWO_LEVEL, seed=12,
               measurement={"observables": ["A", "B"], "n": 30_000,
                            "epsilon": 0.02, "delta": 0.05, "block_size": 1_000})
    path = write_scenario(tmp_path, doc)
    for workers, sub in ((1, "w1"), (4, "w4")):
        assert cli.main(["tree", "--scenario", path, "--workers", str(workers),
                         "--out", str(tmp_path / sub)]) == 0
    for name in ("tree.json", "law_A.csv", "law_B.csv"):
        assert (tmp_path / "w1" / name).read_bytes() == \
            (tmp_path / "w4" / name).read_bytes()
    m1 = json.loads((tmp_path / "w1" / "manifest.json").read_text())
    m4 = json.loads((tmp_path / "w4" / "manifest.json").read_text())
    assert m1["outputs"] == m4["outputs"]


def test_seed_override_changes_outputs(tmp_path):
    doc = dict(TWO_LEVEL, seed=12,
               measurement={"observables": ["A"], "n": 5_000,
                            "epsilon": 0.02, "delta": 0.05, "block_size": 500})
    path = write_scenario(tmp_path, doc)
    cli.main(["tree", "--scenario", path, "--out", str(tmp_path / "a")])
    cli.main(["tree", "--scenario", path, "--seed", "13",
              "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "law_A.csv").read_bytes() != \
        (tmp_path / "b" / "law_A.csv").read_bytes()


def test_seed_override_reaches_sampled_stability_law(tmp_path):
    # the sampling law is drawn at load from stream 0 of the effective seed
    doc = json.loads((SCENARIOS / "stability_drift.json").read_text())
    runs = {"own": (doc, []), "flag": (doc, ["--seed", "7"]),
            "file": (dict(doc, seed=7), [])}
    for name, (run_doc, flags) in runs.items():
        path = write_scenario(tmp_path, run_doc, f"{name}.json")
        assert cli.main(["stability", "--scenario", path, *flags,
                         "--out", str(tmp_path / name)]) == 0

    def outputs(name):
        return [(tmp_path / name / f).read_bytes()
                for f in ("law.csv", "stability_verdict.json")]

    assert outputs("flag") == outputs("file")
    assert all(a != b for a, b in zip(outputs("flag"), outputs("own")))


def test_sampled_law_total_too_large_exit_code_2(tmp_path, capsys):
    # 2 blocks of 2**62 trials: the table's int64 sum would wrap to -2**63
    doc = json.loads((SCENARIOS / "stability_fair_coin.json").read_text())
    doc["stability"]["sampling"].update(
        block_size=2 ** 62, segments=[{"probs": [1, 0], "blocks": 2}])
    code = cli.main(["stability", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("scenario error: stability: the trial total must "
                          "stay below 2**63")


def largest_total_doc(command):
    """A ``command`` scenario whose laws each hold 2**63 - 1 trials in two
    blocks, the largest total a law can keep."""
    doc = (dict(TWO_LEVEL, seed=1, measurement={"observables": ["A", "B", "C"]})
           if command == "tree" else sampled_reconstruction_doc())
    doc["measurement"].update(n=2 ** 63 - 1, block_size=2 ** 62)
    return doc


@pytest.mark.parametrize("command", ["tree", "reconstruct"])
def test_law_total_2_63_minus_1_runs(tmp_path, capsys, command):
    # the law total is exact: a float64 sum of the table rounds it to 2**63
    out = tmp_path / "out"
    code = cli.main([command, "--scenario",
                     write_scenario(tmp_path, largest_total_doc(command)),
                     "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0, "")
    if command == "tree":
        rows = list(csv.reader((out / "law_A.csv").read_text().splitlines()))
        assert rows[1][0] == str(2 ** 63 - 1)


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below_file"])
def test_output_path_through_a_file_exit_code_1(tmp_path, capsys, sub):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = cli.main(["stability", "--scenario",
                     str(SCENARIOS / "stability_fair_coin.json"),
                     "--out", str(taken / sub)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and str(taken) in err
    assert taken.read_text() == ""


@pytest.mark.parametrize("seed", [2 ** 64, 2 ** 63])
def test_seed_override_out_of_range_exit_code_2(tmp_path, capsys, seed):
    # --seed takes the range of the file's seed, not a value reduced mod 2**64
    code = cli.main(["stability", "--scenario",
                     str(SCENARIOS / "stability_fair_coin.json"),
                     "--seed", str(seed), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("scenario error: seed:")


def three_wave_doc():
    """trace_experiment with 1000 samples of a three-wave sum whose guided
    momentum spreads over all three axes."""
    doc = json.loads((SCENARIOS / "trace_experiment.json").read_text())
    doc["dbb"]["plane_waves"]["components"] = [
        {"weight": [1.0, 0.0], "momentum": p}
        for p in ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 3.0, 5.0])]
    doc["dbb"]["borncheck"]["n_samples"] = 1000
    return doc


def unit_blocks_doc():
    """tree_two_level with blocks of one trial: a law table of n rows."""
    doc = json.loads((SCENARIOS / "tree_two_level.json").read_text())
    doc["measurement"]["block_size"] = 1
    return doc


# documents beside the shipped ones, each with a count set below
COUNT_DOCS = {"three_wave": three_wave_doc, "unit_blocks": unit_blocks_doc,
              "sampled_unit_blocks": lambda: sampled_reconstruction_doc(block_size=1)}


@pytest.mark.parametrize("command,name,path,count", [
    ("stability", "stability_drift", SEGMENT + ("blocks",), 10 ** 15),
    ("tree", "tree_two_level", ("measurement", "n"), 10 ** 15),
    ("exp", "trace_experiment", ("dbb", "exp", "n_trials"), 10 ** 15),
    ("borncheck", "trace_experiment", ("dbb", "borncheck", "n_samples"), 10 ** 15),
    ("exp", "trace_experiment", ("dbb", "exp", "n_trials"), 2 ** 62),
    ("borncheck", "trace_experiment", ("dbb", "borncheck", "n_samples"), 2 ** 62),
    ("borncheck", "trace_experiment", ("dbb", "borncheck", "bins"), 2 ** 62),
    ("reconstruct", "reconstruct_two_level", ("reconstruction", "restarts"),
     2 ** 62),
    # 2**22 bins on each of three axes: 2**66 joint bins
    ("borncheck", "three_wave", ("dbb", "borncheck", "bins"), 2 ** 22),
    # 2**62 blocks: a law table past the limit
    ("tree", "unit_blocks", ("measurement", "n"), 2 ** 62),
    ("reconstruct", "sampled_unit_blocks", ("measurement", "n"), 2 ** 62),
    ("stability", "stability_drift", SEGMENT + ("blocks",), 2 ** 62),
], ids=["sampling_blocks", "measurement_n", "exp_n_trials", "borncheck_n_samples",
        "exp_n_trials_past_array_limit", "borncheck_n_samples_past_array_limit",
        "borncheck_bins_past_array_limit", "reconstruct_restarts_past_array_limit",
        "borncheck_bins_on_three_axes", "measurement_n_past_array_limit",
        "sampled_n_past_array_limit", "sampling_blocks_past_array_limit"])
def test_count_too_large_for_memory_exit_code_1(tmp_path, capsys, command, name,
                                                path, count):
    # 10**15 blocks, successions, trials or samples: the allocation is
    # refused at once; so is an array past numpy's limit on any array
    # (2**63 bytes), which numpy refuses with a ValueError
    doc = COUNT_DOCS[name]() if name in COUNT_DOCS else \
        json.loads((SCENARIOS / f"{name}.json").read_text())
    _set_path(doc, path, count)
    code = cli.main([command, "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: out of memory: Unable to allocate")


# --- reconstruct command -----------------------------------------------------

def test_reconstruct_exact_pipeline(tmp_path):
    doc = dict(TWO_LEVEL, seed=7,
               states={"psi": [[RT2, 0.0], [0.0, RT2]]},
               reconstruction={"reference": "A", "partners": ["B", "C"],
                               "heldout": ["B"], "source": "exact"})
    path = write_scenario(tmp_path, doc)
    assert cli.main(["reconstruct", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "retrieval_report.json").read_text())
    assert report["converged"] is True
    predicted = json.loads((tmp_path / "out" / "predicted_B.json").read_text())
    assert predicted["B:0"] == pytest.approx(0.5, abs=1e-9)


def test_reconstruct_heldout_may_name_reference_and_partners(tmp_path):
    doc = json.loads((SCENARIOS / "reconstruct_two_level.json").read_text())
    doc["reconstruction"]["heldout"] = ["A", "B", "C"]
    assert cli.main(["reconstruct", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == 0
    for name in "ABC":
        predicted = json.loads((tmp_path / "out" / f"predicted_{name}.json").read_text())
        assert predicted[f"{name}:0"] == pytest.approx(0.5, abs=1e-9)


def test_reconstruct_sampled_pipeline(tmp_path):
    doc = dict(TWO_LEVEL, seed=7,
               states={"psi": [[RT2, 0.0], [0.0, RT2]]},
               measurement={"observables": ["A", "B", "C"], "n": 100_000,
                            "epsilon": 0.02, "delta": 0.05,
                            "block_size": 10_000},
               reconstruction={"reference": "A", "partners": ["B", "C"],
                               "heldout": ["C"], "source": "sampled"})
    path = write_scenario(tmp_path, doc)
    assert cli.main(["reconstruct", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 0
    predicted = json.loads((tmp_path / "out" / "predicted_C.json").read_text())
    # oracle law of C for the state (1, i)/sqrt(2): balanced
    assert predicted["C:0"] == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("command", ["tree", "reconstruct"])
def test_near_unitary_pair_runs(tmp_path, command):
    # A = diag(1 + 4.7e-11, 1, 1) and B = A F3 each pass the eigenbasis
    # check, and tau(A -> B) = F3^H A^2, with a defect of 1.9e-10, passes the
    # bound two such bases imply.  Run as a user runs it, with warnings as errors
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qfact.cli", command, "--scenario",
         str(SCENARIOS / "near_unitary_pair.json"), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("source,fields,tolerance", [
    ("exact", {}, 1e-10),
    ("sampled", {}, 10 * (2 * 2) * 0.25 / 20_000),
    ("sampled", {"n": 5_000}, 10 * (2 * 2) * 0.25 / 5_000),
    ("exact", {"tol": 1e-3}, 1e-3),
    ("sampled", {"tol": 1e-3}, 1e-3),
    ("sampled", {"n": 5_000, "tol": 1e-3}, 1e-3),
], ids=["exact", "sampled_measurement_n", "sampled_own_n", "exact_declared",
        "sampled_declared", "sampled_own_n_declared"])
def test_retrieval_tolerance_rule(tmp_path, source, fields, tolerance):
    # 1e-10 for exact laws; for sampled ones, ten times the worst squared
    # binomial sigma of each of the 2 partners' 2 terms; a declared tol wins
    doc = sampled_reconstruction_doc(n=20_000)
    doc["reconstruction"].update(source=source, **fields)
    assert cli.main(["reconstruct", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "retrieval_report.json").read_text())
    assert report["tolerance"] == pytest.approx(tolerance, rel=1e-12)


@pytest.mark.parametrize("command", ["reconstruct", "stability"])
@pytest.mark.parametrize("fields", [{}, {"n": 1_000}], ids=["n_unset", "n_set"])
def test_sampled_reconstruction_needs_measurement_exit_code_2(tmp_path, capsys,
                                                               command, fields):
    # every section present is resolved at load, whatever the command; the
    # sampled laws take measurement's epsilon, delta and block size, whatever n
    doc = dict(sampled_reconstruction_doc(), **identical_blocks_doc())
    doc["reconstruction"].update(fields)
    del doc["measurement"]
    code = cli.main([command, "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("scenario error: reconstruction: ")
    assert "'measurement'" in err


def test_reconstruct_inconsistent_laws_fail_run(tmp_path, capsys):
    # sampled laws carry noise of about 1/sqrt(n) that no state reproduces to
    # a tolerance of 1e-12, whatever the phases
    doc = sampled_reconstruction_doc()
    doc["reconstruction"]["tol"] = 1e-12
    path = write_scenario(tmp_path, doc)
    code = cli.main(["reconstruct", "--scenario", path,
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "not representable" in capsys.readouterr().err


# --- exp / borncheck ---------------------------------------------------------

DBB_DOC = {
    "seed": 44,
    "dbb": {
        "two_wave": {"v12": 1.0e6, "theta0": 0.1, "delta_phase": 0.3,
                     "m0": 9.109e-31},
        "exp": {"lambda_sep": 1.0e-6, "n_trials": 5_000},
        "plane_waves": {"components": [
            {"weight": [0.8, 0.0], "momentum": [2.0, 0.0, 3.0]},
            {"weight": [0.6, 0.0], "momentum": [2.0, 0.0, -3.0]}],
            "box": 6.283185307179586, "hbar": 1.0},
        "borncheck": {"n_samples": 20_000, "bins": 48},
    },
}


def test_exp_command_outputs(tmp_path):
    path = write_scenario(tmp_path, DBB_DOC)
    assert cli.main(["exp", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "exp_summary.json").read_text())
    assert summary["heisenberg_violated"] is True
    assert summary["phase_relation_conserved"] is True
    hist = (tmp_path / "out" / "exp_fringe_hist.csv").read_text().splitlines()
    assert hist[0] == "bin_low,bin_high,mass"
    mass = sum(float(line.split(",")[2]) for line in hist[1:])
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_borncheck_repeated_momentum_exit_code_2(tmp_path, capsys):
    # two equal momenta with opposite weights: |psi|^2 vanishes everywhere
    doc = copy.deepcopy(DBB_DOC)
    doc["dbb"]["plane_waves"]["components"] = [
        {"weight": [1.0, 0.0], "momentum": [1.0, 0.0, 2.0]},
        {"weight": [-1.0, 0.0], "momentum": [1.0, 0.0, 2.0]}]
    code = cli.main(["borncheck", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("scenario error:")
    assert "momentum [1.0, 0.0, 2.0] appears twice" in err


@pytest.mark.parametrize("change", [
    {"components": [{"weight": [1.0, 0.0], "momentum": [1e308, 0.0, 0.0]},
                    {"weight": [1.0, 0.0], "momentum": [-1e308, 0.0, 0.0]}]},
    {"hbar": 1e-320},
    {"components": [{"weight": [0.8e-200, 0.0], "momentum": [2.0, 0.0, 3.0]},
                    {"weight": [0.6e-200, 0.0], "momentum": [2.0, 0.0, -3.0]}]},
    # p_0 + p_1 overflows to inf, the candidate momentum of the Born check
    {"box": 1e-300, "components": [
        {"weight": [0.8, 0.0], "momentum": [0.9e308, 0.0, 0.0]},
        {"weight": [0.6, 0.0], "momentum": [0.95e308, 0.0, 0.0]}]},
    {"box": 1.0, "components": [
        {"weight": [1.0, 0.0], "momentum": [1e308, 0.0, 0.0]},
        {"weight": [1.0, 0.0], "momentum": [1.5e308, 0.0, 0.0]}]},
], ids=["momenta", "hbar", "weights", "pair_sum_overflows", "pair_sum_box_1"])
def test_plane_waves_out_of_range_exit_code_2(tmp_path, capsys, change):
    # qfact exp loads dbb.plane_waves without sampling it, so it ends even
    # where a borncheck would sample forever
    doc = copy.deepcopy(DBB_DOC)
    doc["dbb"]["plane_waves"].update(change)
    code = cli.main(["exp", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("scenario error: dbb.plane_waves: a derived quantity is "
                   "out of range\n")


@pytest.mark.parametrize("command,section,change", [
    ("borncheck", "plane_waves", {"box": 1.0, "components": [
        {"weight": [1.0, 0.0], "momentum": [1e308, 0.0, 0.0]}]}),
    ("exp", "exp", {"lambda_sep": 1.7976931348623157e308}),
    ("exp", "exp", {"kappa": 1e308, "kick_law": "normal"}),
], ids=["mean_guided_p_overflows", "lambda_sep_largest", "kappa_normal_kicks"])
def test_non_finite_output_exit_code_1(tmp_path, command, section, change):
    # a mean of guided momenta near the largest float that overflows to inf,
    # flight distances (lambda_sep times the scaling factors) that overflow
    # to inf, and normal kicks, which have no bound, that overflow to inf:
    # JSON cannot hold any of them, so nothing is written.
    # Run as a user runs it, where numpy's overflow warnings stay warnings.
    doc = copy.deepcopy(DBB_DOC)
    doc["dbb"][section].update(change)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "qfact.cli", command, "--scenario",
         write_scenario(tmp_path, doc), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 1
    assert "\nerror: an output holds a NaN or an infinity" in "\n" + proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_csv_refuses_non_finite_numbers(x):
    with pytest.raises(QfactError, match="NaN or an infinity"):
        cli._csv_text(["lambda", "mean_abs_gamma"], [(1.0, 0.5), (2.0, x)])


def test_csv_writes_numpy_scalars_as_python_numbers():
    # numpy 2's repr of a float64 is "np.float64(0.5)"
    assert cli._csv_text(["x", "n"], [(np.float64(0.5), np.int64(3))]) == "x,n\n0.5,3\n"


def test_json_writes_numpy_values_as_plain_json():
    text = cli._json_text({"a": np.array([0.25, -0.0]), "b": np.float64(0.1),
                           "c": np.int64(3), "d": np.bool_(True)})
    assert json.loads(text) == {"a": [0.25, -0.0], "b": 0.1, "c": 3, "d": True}
    assert text == cli._json_text({"a": [0.25, -0.0], "b": 0.1, "c": 3, "d": True})
    with pytest.raises(TypeError):
        cli._json_text({"a": {1, 2}})


def test_json_refuses_a_nan_inside_an_array():
    with pytest.raises(QfactError, match="NaN or an infinity"):
        cli._json_text({"p": np.array([0.5, math.nan])})


def box_sampler_doc(p_x, n_samples):
    """DBB_DOC with weights 1 and -1 at momenta 0 and (p_x, 0, 0) in a unit
    box: |psi|^2 is about p_x^2 |r_x|^2 against a bound of 4."""
    doc = copy.deepcopy(DBB_DOC)
    doc["dbb"]["plane_waves"] = {"box": 1.0, "components": [
        {"weight": [1.0, 0.0], "momentum": [0.0, 0.0, 0.0]},
        {"weight": [-1.0, 0.0], "momentum": [p_x, 0.0, 0.0]}]}
    doc["dbb"]["borncheck"]["n_samples"] = n_samples
    return doc


@pytest.mark.parametrize("p_x,n_samples,rate", [
    # an acceptance rate of 8e-20, below what float64 resolves: a sampler
    # that took the lattice rate of 1/2 ran until killed
    (1e-9, 100, ""),
    # a rate of 8.3e-8 that would need 2.6e19 candidates
    (1e-3, 2 ** 41, "8.33e-08"),
], ids=["rate_within_rounding", "past_candidate_budget"])
def test_borncheck_sampler_that_would_not_finish_exit_code_2(
        tmp_path, capsys, p_x, n_samples, rate):
    path = write_scenario(tmp_path, box_sampler_doc(p_x, n_samples))
    started = time.perf_counter()
    code = cli.main(["borncheck", "--scenario", path,
                     "--out", str(tmp_path / "out")])
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("scenario error: dbb.borncheck: ")
    assert f"acceptance rate is {rate}" in err and "budget of 2**64" in err
    assert not (tmp_path / "out").exists()


def test_borncheck_command_outputs(tmp_path):
    path = write_scenario(tmp_path, DBB_DOC)
    assert cli.main(["borncheck", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "borncheck_summary.json").read_text())
    assert summary["histogram_mass_total"] == pytest.approx(1.0, abs=1e-9)
    assert summary["total_variation"] >= 0.0
    for axis in "xyz":
        lines = (tmp_path / "out" / f"borncheck_p{axis}.csv").read_text().splitlines()
        mass = sum(float(line.split(",")[2]) for line in lines[1:])
        assert mass == pytest.approx(1.0, abs=1e-9)


# --- manifest ----------------------------------------------------------------

def test_manifest_checksums_match_files(tmp_path):
    # CRLF line ends and a non-ASCII name: the hash is of the file's bytes,
    # not of the text they decode to
    doc = dict(identical_blocks_doc(), output_dir="sortie-é")
    path = tmp_path / "scenario.json"
    path.write_bytes(json.dumps(doc, indent=1, ensure_ascii=False)
                     .replace("\n", "\r\n").encode("utf-8"))
    assert cli.main(["stability", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["command"] == "stability"
    for name, digest in manifest["outputs"].items():
        data = (tmp_path / "out" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
    assert manifest["scenario_hash"] == hashlib.sha256(
        (tmp_path / "scenario.json").read_bytes()).hexdigest()
    assert manifest["inputs"] == {}


def test_manifest_names_each_file_read(tmp_path):
    # the same scenario bytes over two law files: only the inputs tell the
    # runs apart
    law_path = tmp_path / "law.json"
    path = write_scenario(tmp_path, {"seed": 1, "stability": {"law_json": str(law_path)}})
    manifests = []
    for counts in ({"a1": 6, "a2": 4}, {"a1": 9, "a2": 1}):
        law = finprob.FactualLaw.from_block_counts(("a1", "a2"), [counts] * 3,
                                                   block_size_n0=10)
        law_path.write_text(json.dumps(finprob.to_json_dict(law)))
        out = tmp_path / f"out{len(manifests)}"
        assert cli.main(["stability", "--scenario", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {
            str(law_path): hashlib.sha256(law_path.read_bytes()).hexdigest()}
        manifests.append(manifest)
    assert manifests[0]["scenario_hash"] == manifests[1]["scenario_hash"]
    assert manifests[0]["inputs"] != manifests[1]["inputs"]


def test_rerun_reproduces_checksums(tmp_path):
    doc = dict(TWO_LEVEL, seed=3,
               measurement={"observables": ["A", "B"], "n": 4_000,
                            "epsilon": 0.02, "delta": 0.05, "block_size": 500})
    path = write_scenario(tmp_path, doc)
    cli.main(["tree", "--scenario", path, "--out", str(tmp_path / "r1")])
    cli.main(["tree", "--scenario", path, "--out", str(tmp_path / "r2")])
    m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]


# --- shipped scenarios ---------------------------------------------------------

# manifest "outputs" of every shipped (command, scenario) pair, recorded with
# numpy 2.4 on x86-64; a refactor that keeps the algorithms keeps these bytes
SHIPPED_CHECKSUMS = {
    ("tree", "tree_two_level"): {
        "law_A.csv": "98246f3aa9c171a60cd2c2a07ddadf87e843937da2231826b4e746ee2209adb9",
        "law_B.csv": "61e5f521e092e60c8811e1882e95583e886b12457e52b4a8758bc38d3cddc160",
        "law_C.csv": "bff117fc908f60320fda04bc3e56a57d3b959af258f760884285ff31a560113b",
        "tree.json": "85609abea89eb66fccfd48f4ac713a0a54d6c8fec1da4aa4299b86214f0af689",
    },
    ("stability", "stability_drift"): {
        "law.csv": "1f093b4bb4ef6db119d17898e40a6d1c6723e6298a2e774f2adfea5b0dc26775",
        "stability_verdict.json": "d13e715674c64d31d7d535ec3fc3c7074bd5ab3b1b4f46d4408f9460eb529aef",
    },
    ("stability", "stability_fair_coin"): {
        "law.csv": "4dd5d3757b1aa67e21dc58ee202acae3fcdb7aa9a6f6707ce037fd55bd691e9b",
        "stability_verdict.json": "2137cec70cc4867f2e2c803b371cb4ee187508113c9d5e67b82256b927d746f9",
    },
    ("reconstruct", "reconstruct_two_level"): {
        "expansion.json": "b3b072f94236634ab3a8a3a03d85c553dfbfe24091d974ab3e9fe08a3a3eb739",
        "predicted_B.json": "cf01ddf2fade1e56a8fd26325f27811199b46eb9bedd9ab106b83b5fef6d4c7e",
        "retrieval_report.json": "de3507139e2750196ef7a662ecc45e5cfaec8370c83fef75c51205ce4d6bf422",
    },
    ("exp", "trace_experiment"): {
        "exp_direction_hist.csv": "341d974025a315ecb20074add0d535e151b2b12e30beac1fa03e29b3be50836a",
        "exp_fringe_hist.csv": "932f0949e615cade7c75b6639f4f2eed459c9c9d911a94316cc97743c5ae892e",
        "exp_lambda_table.csv": "7d800f9d812bf743e721b3d827ec0749771b52243ef66b3e5fd082da0b345a35",
        "exp_summary.json": "7892ac9a1c7bec22587890f0e1c6a0a47cc2457ef28e62a01bc03035390fdcc9",
    },
    ("borncheck", "trace_experiment"): {
        "borncheck_px.csv": "23f35f75ac2b2c561258be6e823e24c89f0e301db939dae45c90661fee93231d",
        "borncheck_py.csv": "cf987fedfeb072f5614331fce7ef58c0a1d388a5234ee3019f43707c129718b1",
        "borncheck_pz.csv": "54d839c433050e2ac6ec1bbfffd9a4c40b71cb6be4543faffcbcc5fa99a477df",
        "borncheck_summary.json": "e7f66a9ddb48b065e2ed70724ca6caa6bfa1b599a9268629cef5f2abfb901121",
    },
}


@pytest.mark.parametrize("command,name", list(SHIPPED_CHECKSUMS))
def test_shipped_scenario_bytes_pinned(tmp_path, command, name):
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", str(SCENARIOS / f"{name}.json"),
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == SHIPPED_CHECKSUMS[(command, name)]


def test_spin_half_tree_bytes_are_tree_two_level_pins(tmp_path):
    # tree_two_level with eigenvalues -hbar/2, hbar/2 in J s: no eigenvalue
    # reaches an artifact
    out = tmp_path / "out"
    assert cli.main(["tree", "--scenario", str(SCENARIOS / "tree_spin_half.json"),
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == SHIPPED_CHECKSUMS[("tree", "tree_two_level")]


def normal_kicks_doc():
    """The shipped trace experiment with normal kicks of a set scale."""
    doc = json.loads((SCENARIOS / "trace_experiment.json").read_text())
    doc["dbb"]["exp"].update(kick_law="normal", kappa=3e-12)
    return doc


def test_normal_kick_law_bytes_pinned(tmp_path):
    # recorded like SHIPPED_CHECKSUMS: no shipped scenario draws normal kicks
    out, path = tmp_path / "out", write_scenario(tmp_path, normal_kicks_doc())
    assert cli.main(["exp", "--scenario", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == {
        "exp_direction_hist.csv": "341d974025a315ecb20074add0d535e151b2b12e30beac1fa03e29b3be50836a",
        "exp_fringe_hist.csv": "2a8580c43b79b40c4c35333e01200b825f1722e5c2a4cded0f9a4a8f7cf2c0e9",
        "exp_lambda_table.csv": "5087ba05986f3a3a7edf05347f2ae723898162500393199f95c2447b47bf3455",
        "exp_summary.json": "120621a505bd7ce240a1ad02821cc68128243c6954417465f441945ac178a532",
    }


# every leaf and list of a shipped scenario set to each of these values in turn
MUTANTS = ("x", -1, None, [], {}, 0, 1e300, 1e-300, True, 5e-324,
           1.7976931348623157e308, 2 ** 62)
# heavy counts of the shipped scenarios, cut before any mutation
SHRUNK = {("measurement", "n"): 20_000, ("dbb", "exp", "n_trials"): 500,
          ("dbb", "borncheck", "n_samples"): 500,
          ("stability", "sampling", "block_size"): 100}


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _mutant_paths(node, path=()):
    """Paths to the leaves and the lists of a JSON document, each list before
    its items; a list of numbers (a complex pair, eigenvalues, a momentum) is
    one leaf."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and not all(map(_is_number, node)):
        yield path
        items = enumerate(node)
    else:
        yield path
        return
    for key, child in items:
        yield from _mutant_paths(child, path + (key,))


def _set_path(doc, path, value):
    *outer, key = path
    for part in outer:
        doc = doc[part]
    doc[key] = value


# documents swept beside the shipped ones: no shipped scenario has an inline
# law, fits sampled laws or sets the optional dbb.exp fields
UNSHIPPED = {"inline_law": lambda: identical_blocks_doc(3),
             "sampled_reconstruction": lambda: sampled_reconstruction_doc(n=20_000),
             "normal_kicks": normal_kicks_doc}


@pytest.mark.parametrize("command,name", [
    *SHIPPED_CHECKSUMS, ("tree", "tree_composed"), ("stability", "inline_law"),
    ("reconstruct", "sampled_reconstruction"), ("exp", "normal_kicks")])
def test_scenario_mutations_exit_cleanly(tmp_path, capsys, command, name):
    base = UNSHIPPED[name]() if name in UNSHIPPED else \
        json.loads((SCENARIOS / f"{name}.json").read_text())
    paths = list(_mutant_paths(base))
    for path, value in SHRUNK.items():
        if path in paths:
            _set_path(base, path, value)
    failures = []
    for path in paths:
        for value in MUTANTS:
            doc = copy.deepcopy(base)
            _set_path(doc, path, value)
            scn_path = write_scenario(tmp_path, doc)
            try:
                code = cli.main([command, "--scenario", scn_path,
                                 "--out", str(tmp_path / "out")])
            except Exception as exc:
                failures.append((path, value, repr(exc)))
                continue
            if code not in (0, 1, 2):
                failures.append((path, value, code))
    capsys.readouterr()
    assert failures == []

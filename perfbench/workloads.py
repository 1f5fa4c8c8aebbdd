"""Generated inputs for each workload, and the checks on every op's outputs.

Inputs come from numpy Generators keyed by (seed, round).  Every expected
result is computed here in plain numpy from the generated matrices and
tables, never with qfact code, and every statistical bound comes from the
sampling noise of the generated input, never from a recorded output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DIMS = tuple(range(2, 9))
# exact fits at d >= 4 fail now and then (InconsistentLawsError, or a
# held-out law off by more than 1e-6); at d = 2 more than half the fits stop
# early and the rest run to max_iter, so the median would flip between the
# two humps.  At d = 3 about a third stop early and the median stays in the
# slow hump.
RECON_DIM = 3
WARMUP_DIM = 5
TAIL = 1e-12                # false-alarm probability of each noise bound
BORN_TRIALS = 2_000_000     # tree: trials per observable
BORN_BLOCK = 2_000          # tree: block size, so each law has 1000 blocks
LAW_BLOCKS = 10_000         # stability: blocks in the law JSON
SAMPLED_BLOCKS = 2_000      # stability: blocks drawn from segments
STAB_BLOCK = 10_000         # stability: block size of both runs
STAB_EPS = 0.03             # 6 binomial sigmas at the block size, at worst
STAB_DELTA = 0.05
EXP_TRIALS = 250_000      # dbb: exp trials per op
BORN_SAMPLES = 250_000    # dbb: borncheck samples per op
PW_AMPS = (1.0, 0.6)        # plane-wave pair amplitudes: no density nodes
ELECTRON_MASS = 9.109e-31
LIGHT_SPEED = 299_792_458.0


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's own computation."""


@dataclass
class Call:
    command: str
    scenario: Path
    out: Path


@dataclass
class Op:
    """One timed unit: CLI calls run in order, the work they complete, and
    the check of their outputs."""

    kind: str
    calls: list[Call]
    work: int
    check: Callable[[], None]


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _cvec(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v)]


def _cmat(m) -> list:
    return [_cvec(row) for row in np.asarray(m)]


def _haar(d: int, rng) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _state(d: int, rng) -> np.ndarray:
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    return z / np.linalg.norm(z)


def _observables(bases: dict) -> dict:
    return {name: {"eigenvalues": [float(k) for k in range(u.shape[0])],
                   "eigenbasis": _cmat(u)} for name, u in bases.items()}


def _write(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return path


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31))


def born(u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return np.abs(u.conj().T @ psi) ** 2


def count_bound(n: float, var: float) -> float:
    """Bernstein bound on |S - E S| for a sum of n bounded (|X - EX| <= 1)
    draws of total variance var, exceeded with probability at most TAIL."""
    t = math.log(2.0 / TAIL)
    return t / 3.0 + math.sqrt(t * t / 9.0 + 2.0 * t * var)


def _expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _close(got, want, tol: float, what: str):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _expect(got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol)),
            f"{what}: got {got.tolist()}, want {want.tolist()} (tol {tol:g})")


def read_law_csv(path: Path) -> tuple[dict, list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    _expect(rows[0] == ["n_total", "block_size_n0", "epsilon", "delta"]
            and rows[2] == ["label", "count"], f"{path.name}: header")
    meta = {"n_total": int(rows[1][0]), "block_size_n0": int(rows[1][1])}
    labels = [r[0] for r in rows[3:]]
    counts = np.array([int(r[1]) for r in rows[3:]], dtype=np.int64)
    return meta, labels, counts


def hist_mass(path: Path) -> float:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    _expect(rows[0] == ["bin_low", "bin_high", "mass"], f"{path.name}: header")
    return math.fsum(float(r[2]) for r in rows[1:])


def commuting_groups(mats: dict[str, np.ndarray], tol: float = 1e-8
                     ) -> list[list[str]]:
    """First-fit grouping, in input order, into pairwise-commuting sets."""
    groups: list[list[str]] = []
    for name, m in mats.items():
        for grp in groups:
            if all(np.linalg.norm(m @ mats[o] - mats[o] @ m) < tol for o in grp):
                grp.append(name)
                break
        else:
            groups.append([name])
    return groups


# --------------------------------------------------------------------------
# tree: per-trial sampling, block accumulation, merge, chunked writes
# --------------------------------------------------------------------------

def tree_op(rng, d: int, where: Path, n: int = BORN_TRIALS,
            n0: int = BORN_BLOCK) -> Op:
    """A random state, a diagonal reference R, an observable C diagonal in
    the same basis (a permutation with phases), and two Haar-random X, Y."""
    psi = _state(d, rng)
    perm = np.eye(d)[:, rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))
    bases = {"R": np.eye(d, dtype=complex), "X": _haar(d, rng),
             "C": perm, "Y": _haar(d, rng)}
    scn = _write(where / "tree.json", {
        "seed": _seed(rng), "states": {"psi": _cvec(psi)},
        "observables": _observables(bases),
        "generation": {"id": "G", "kind": "simple", "state": "psi"},
        "measurement": {"observables": list(bases), "n": n, "epsilon": 0.05,
                        "delta": 0.05, "block_size": n0},
    })
    out = where / "out"
    mats = {k: (u * np.arange(d)) @ u.conj().T for k, u in bases.items()}
    groups = commuting_groups(mats)

    def check():
        doc = json.loads((out / "tree.json").read_text())
        _expect([b["members"] for b in doc["branches"]] == groups,
                f"branches {doc['branches']} vs grouping {groups}")
        for name, u in bases.items():
            meta, labels, counts = read_law_csv(out / f"law_{name}.csv")
            _expect(labels == [f"{name}:{j}" for j in range(d)], "law labels")
            _expect(meta["n_total"] == n and int(counts.sum()) == n,
                    f"law_{name}: counts sum {counts.sum()} != {n}")
            p = born(u, psi)
            for j in range(d):
                dev = abs(counts[j] - n * p[j])
                _expect(dev <= count_bound(n, n * p[j] * (1 - p[j])),
                        f"law_{name} label {j}: count {counts[j]}, Born {n * p[j]:.1f}")
            blocks = doc["stability"][name]["n_complete_blocks"]
            _expect(blocks == n // n0, f"law_{name}: {blocks} complete blocks")

    return Op(f"d{d}", [Call("tree", scn, out)], 4 * n, check)


# --------------------------------------------------------------------------
# stability: law parse, block table, verdict; per-block sampler
# --------------------------------------------------------------------------

def _verdict(table: np.ndarray, n0: int, eps: float, delta: float) -> dict:
    freq = table / n0
    pooled = table.sum(axis=0) / (table.shape[0] * n0)
    dev = np.abs(freq - pooled)
    within = (dev <= eps).mean(axis=0)
    return {"stable": bool(np.all(within >= 1.0 - delta)), "within": within,
            "worst": float(dev.max()), "pooled": pooled}


def _drifted(p: np.ndarray) -> np.ndarray:
    """Move 40 % of the mass onto the least likely label: that label gains
    at least 0.2, so blocks sit about 0.1 from the pooled frequency, far
    beyond STAB_EPS."""
    later = 0.6 * p
    later[int(np.argmin(p))] += 0.4
    return later


def stability_op(rng, d: int, drift: bool, where: Path) -> Op:
    labels = [f"L{j}" for j in range(d)]
    p = rng.dirichlet(np.ones(d))
    later = _drifted(p) if drift else p
    half = LAW_BLOCKS // 2
    table = np.concatenate([rng.multinomial(STAB_BLOCK, p, size=half),
                            rng.multinomial(STAB_BLOCK, later, size=half)])
    law = {"spectrum": labels,
           "counts": {lab: int(c) for lab, c in zip(labels, table.sum(axis=0))},
           "n_total": int(table.sum()), "block_size_n0": STAB_BLOCK,
           "epsilon": STAB_EPS, "delta": STAB_DELTA,
           "block_history": [{lab: int(c) for lab, c in zip(labels, row) if c}
                             for row in table]}
    law_scn = _write(where / "law.json",
                     {"seed": _seed(rng), "stability": {"law": law}})
    seg = SAMPLED_BLOCKS // 2
    sampled_scn = _write(where / "sampled.json", {
        "seed": _seed(rng), "stability": {"sampling": {
            "labels": labels, "block_size": STAB_BLOCK, "epsilon": STAB_EPS,
            "delta": STAB_DELTA,
            "segments": [{"probs": p.tolist(), "blocks": seg},
                         {"probs": later.tolist(), "blocks": seg}]}}})
    law_out, sampled_out = where / "out_law", where / "out_sampled"
    want = _verdict(table, STAB_BLOCK, STAB_EPS, STAB_DELTA)
    _expect(want["stable"] != drift, "generated law is not clear-cut")

    def check():
        doc = json.loads((law_out / "stability_verdict.json").read_text())
        _expect(doc["stable"] == want["stable"], f"law verdict {doc['stable']}")
        _expect(doc["n_complete_blocks"] == LAW_BLOCKS, "law block count")
        _close([doc["per_label_fraction_within_epsilon"][lab] for lab in labels],
               want["within"], 1e-12, "per-label fractions")
        _close([doc["pooled_frequencies"][lab] for lab in labels],
               want["pooled"], 1e-12, "pooled frequencies")
        _close(doc["worst_deviation"], want["worst"], 1e-12, "worst deviation")
        meta, got_labels, counts = read_law_csv(law_out / "law.csv")
        _expect(got_labels == labels and
                counts.tolist() == table.sum(axis=0).tolist(), "law.csv counts")

        doc = json.loads((sampled_out / "stability_verdict.json").read_text())
        _expect(doc["stable"] != drift,
                f"sampled {'drifting' if drift else 'fair'} law judged "
                f"stable={doc['stable']}")
        _expect(doc["n_complete_blocks"] == SAMPLED_BLOCKS, "sampled block count")
        trials = seg * STAB_BLOCK
        var = trials * (p * (1 - p) + later * (1 - later))
        expected = trials * (p + later)
        got = np.array([doc["pooled_frequencies"][lab] for lab in labels])
        for j in range(d):
            dev = abs(got[j] * 2 * trials - expected[j])
            _expect(dev <= count_bound(2 * trials, var[j]),
                    f"sampled pooled frequency of {labels[j]}: {got[j]}")
        meta, _, counts = read_law_csv(sampled_out / "law.csv")
        _expect(meta["n_total"] == 2 * trials == int(counts.sum()),
                "sampled law.csv total")

    calls = [Call("stability", law_scn, law_out),
             Call("stability", sampled_scn, sampled_out)]
    return Op(f"d{d}-{'drift' if drift else 'fair'}", calls,
              LAW_BLOCKS + SAMPLED_BLOCKS, check)


# --------------------------------------------------------------------------
# reconstruct: phase retrieval and held-out prediction
# --------------------------------------------------------------------------

def reconstruct_op(rng, d: int, where: Path) -> Op:
    """Exact laws of a diagonal reference A and two Haar-random partners B,
    C; the held-out observable D never enters the fit."""
    psi = _state(d, rng)
    bases = {"A": np.eye(d, dtype=complex), "B": _haar(d, rng),
             "C": _haar(d, rng), "D": _haar(d, rng)}
    scn = _write(where / "reconstruct.json", {
        "seed": _seed(rng), "states": {"psi": _cvec(psi)},
        "observables": _observables(bases),
        "generation": {"id": "G", "kind": "simple", "state": "psi"},
        "reconstruction": {"reference": "A", "partners": ["B", "C"],
                           "heldout": ["D"], "source": "exact"},
    })
    out = where / "out"
    want = born(bases["D"], psi)

    def check():
        doc = json.loads((out / "predicted_D.json").read_text())
        _close([doc[f"D:{k}"] for k in range(d)], want, 1e-6, "held-out law of D")

    return Op(f"d{d}", [Call("reconstruct", scn, out)], 1, check)


# --------------------------------------------------------------------------
# dbb: trace experiment and extended-Born check
# --------------------------------------------------------------------------

def _pair_mean_momentum(amps, phases, momenta, box: float, hbar: float,
                        points: int = 1 << 16) -> np.ndarray:
    """|psi|^2-weighted mean of hbar grad(arg psi) for a plane-wave pair
    that differs only along z, by midpoint quadrature over one box side."""
    z = (np.arange(points) + 0.5) * (box / points)
    w = np.asarray(amps) * np.exp(1j * np.asarray(phases))
    kz = np.array([m[2] for m in momenta]) / hbar
    waves = w[:, None] * np.exp(1j * kz[:, None] * z[None, :])
    phi = waves.sum(axis=0)
    dphi = (1j * kz[:, None] * waves).sum(axis=0)
    mass = np.sum(np.abs(phi) ** 2)
    pz = hbar * np.sum(np.imag(phi.conj() * dphi)) / mass
    return np.array([momenta[0][0], momenta[0][1], pz])


def dbb_op(rng, where: Path, n_trials: int = EXP_TRIALS,
           n_samples: int = BORN_SAMPLES) -> Op:
    v12 = float(rng.uniform(5e5, 2e6))
    theta0 = float(rng.uniform(0.05, 0.3))
    lam = float(rng.uniform(5e-7, 5e-6))
    px, py = (float(x) for x in rng.integers(1, 5, size=2))
    kz = rng.choice(np.arange(-5, 6), size=2, replace=False).astype(float)
    momenta = [(px, py, kz[0]), (px, py, kz[1])]
    phases = rng.uniform(0, 2 * np.pi, size=2)
    box = 2 * math.pi
    scn = _write(where / "dbb.json", {
        "seed": _seed(rng),
        "dbb": {
            "two_wave": {"v12": v12, "theta0": theta0,
                         "delta_phase": float(rng.uniform(0, math.pi)),
                         "m0": ELECTRON_MASS},
            "exp": {"lambda_sep": lam, "n_trials": n_trials},
            "plane_waves": {
                "components": [
                    {"weight": [a * math.cos(f), a * math.sin(f)],
                     "momentum": list(m)}
                    for a, f, m in zip(PW_AMPS, phases, momenta)],
                "box": box, "hbar": 1.0},
            "borncheck": {"n_samples": n_samples, "bins": 64},
        }})
    exp_out, born_out = where / "out_exp", where / "out_born"
    mass = ELECTRON_MASS / math.sqrt(1.0 - (v12 / LIGHT_SPEED) ** 2)
    phase_speed = LIGHT_SPEED ** 2 / v12
    want_px = mass * (LIGHT_SPEED ** 2 / phase_speed) * math.sin(theta0)
    want_p = _pair_mean_momentum(PW_AMPS, phases, momenta, box, 1.0)

    def check():
        doc = json.loads((exp_out / "exp_summary.json").read_text())
        _expect(doc["sigma_px"] == 0.0, f"sigma(p_x) = {doc['sigma_px']!r}")
        got_px = doc["mean_estimated_p"][0]
        _expect(abs(got_px - want_px) <= 1e-9 * abs(want_px),
                f"mean p_x {got_px!r} vs M (c^2/V) sin(theta0) {want_px!r}")
        table = np.array(doc["lambda_table"])
        slope = np.polyfit(np.log(table[:, 0]), np.log(table[:, 1]), 1)[0]
        _expect(abs(slope + 1.0) <= 0.1, f"lambda slope {slope:.4f}")
        _expect(doc["phase_relation_conserved"] is True, "fringe phase lost")
        hists = [exp_out / "exp_direction_hist.csv",
                 exp_out / "exp_fringe_hist.csv"]
        hists += [born_out / f"borncheck_p{a}.csv" for a in "xyz"]
        for path in hists:
            total = hist_mass(path)
            _expect(abs(total - 1.0) <= 1e-9, f"{path.name} mass {total!r}")
        doc = json.loads((born_out / "borncheck_summary.json").read_text())
        got = np.array(doc["mean_guided_p"])
        err = float(np.linalg.norm(got - want_p))
        _expect(err <= 0.01 * float(np.linalg.norm(want_p)),
                f"mean guided p {got.tolist()} vs quadrature {want_p.tolist()}")

    calls = [Call("exp", scn, exp_out), Call("borncheck", scn, born_out)]
    return Op("exp+borncheck", calls, n_trials + n_samples, check)


# --------------------------------------------------------------------------
# workloads: one round each, the same op kinds in the same order every round
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    unit: str
    round_ops: Callable[[np.random.Generator, Path], list[Op]]
    warmup_op: Callable[[np.random.Generator, Path], Op]


WORKLOADS = {
    "tree": Workload(
        "trials",
        lambda rng, w: [tree_op(rng, d, w / f"d{d}") for d in DIMS],
        lambda rng, w: tree_op(rng, WARMUP_DIM, w)),
    "stability": Workload(
        "blocks",
        lambda rng, w: [stability_op(rng, d, drift, w / f"d{d}-{drift}")
                        for d in DIMS for drift in (False, True)],
        lambda rng, w: stability_op(rng, WARMUP_DIM, False, w)),
    "reconstruct": Workload(
        "fits",
        lambda rng, w: [reconstruct_op(rng, RECON_DIM, w)],
        lambda rng, w: reconstruct_op(rng, RECON_DIM, w)),
    "dbb": Workload(
        "trials+samples",
        lambda rng, w: [dbb_op(rng, w)],
        lambda rng, w: dbb_op(rng, w)),
}


def determinism_ops(rng, where: Path) -> list[Op]:
    """Scaled-down tree and dbb inputs for the worker-count check; the tree
    laws span three chunks, so two workers build and merge them apart."""
    return [tree_op(rng, 3, where / "tree", n=600_000, n0=600),
            dbb_op(rng, where / "dbb", n_trials=100_000, n_samples=100_000)]

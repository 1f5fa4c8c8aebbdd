"""Repeated benchmark runs and their spread: the figures in README.md.

    python3 perfbench/sweep.py --seeds 10 --sets 2
    python3 perfbench/sweep.py --workloads tree --seeds 5 --workers 1,2

Each set runs every workload once per seed and worker count, one run at a
time, the workloads and worker counts interleaved.  Set k uses the seeds
1000 k + 1 ... 1000 k + N.
For each workload, set and end-to-end metric the sweep prints the median,
the quartiles and the spread (quartile distance / median) against the bound
in BENCHMARK.json; across sets, the shift of the median in the worse
direction; and the control timing ``machine.ref_kernel_ms``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, workers: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--workers", str(workers)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {"info": info, "result": result}


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workers", default="1",
                        help="comma-separated worker counts for the timed ops")
    args = parser.parse_args()
    workers = [int(x) for x in args.workers.split(",")]
    names = [w if len(workers) == 1 else f"{w}@{n}"
             for w in args.workloads.split(",") for n in workers]
    runs: dict[tuple[str, int], list[dict]] = {}
    for k in range(args.sets):
        for i in range(args.seeds):
            for name in names:
                w, _, n = name.partition("@")
                r = run_once(w, 1000 * k + i + 1, bench["run_seconds"],
                             int(n) if n else workers[0])
                runs.setdefault((name, k), []).append(r)
                res = r["result"]
                print(f"# set {k} {name} seed {r['info']['seed']}: "
                      f"failed {res['failed']}/{res['attempted']} "
                      + " ".join(f"{m}={v['value']:.4g}"
                                 for m, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)

    print("| workload | set | metric | median | q1 | q3 | spread | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for w in names:
        for k in range(args.sets):
            rs = runs[(w, k)]
            for m in bench["end_to_end"]:
                s = summary([r["result"]["metrics"][m["name"]]["value"]
                             for r in rs])
                print(f"| {w} | {k} | {m['name']} | {s['median']:.4g} | "
                      f"{s['q1']:.4g} | {s['q3']:.4g} | {s['spread']:.3f} | "
                      f"{m['bound']} |")
            s = summary([r["info"]["machine.ref_kernel_ms"] for r in rs])
            fail = {(r["result"]["failed"], r["result"]["attempted"]) for r in rs}
            print(f"| {w} | {k} | machine.ref_kernel_ms | {s['median']:.4g} | "
                  f"{s['q1']:.4g} | {s['q3']:.4g} | {s['spread']:.3f} | - |")
            print(f"| {w} | {k} | failed/attempted | "
                  f"{sorted(f'{f}/{a}' for f, a in fail)} | | | | |")
    if args.sets > 1:
        print("\n| workload | metric | worst shift of the median vs set 0 | bound |")
        print("| --- | --- | --- | --- |")
        for w in names:
            for m in bench["end_to_end"]:
                meds = [statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                          for r in runs[(w, k)])
                        for k in range(args.sets)]
                sign = 1.0 if m["better"] == "lower" else -1.0
                shift = max(sign * (x - meds[0]) / meds[0] for x in meds[1:])
                print(f"| {w} | {m['name']} | {shift:+.3f} | {m['bound']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

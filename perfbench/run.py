"""qfact benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload tree --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, then runs whole rounds of
ops through ``cli.run_command`` in this process until ``--seconds`` of them
have passed, checking every op's outputs.  Set-up (interpreter start,
``import qfact``, one warm-up op) is measured in separate probe processes,
one before the first round and the others spread between rounds, outside
the run's clock.  Afterwards one tree input and one dbb input run again
with two workers and must reproduce the one-worker artifacts byte for byte.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under ``--trace 1``.
The line before it (``{"info": ...}``) holds run details and the control
timing ``machine.ref_kernel_ms``.
"""

from __future__ import annotations

import os

# one core per run: BLAS must not start threads of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7


def _spec(op: workloads.Op, workers: int) -> list:
    return [[c.command, str(c.scenario), str(c.out), workers] for c in op.calls]


def ref_kernel_ms(reps: int = 5) -> list[float]:
    """A fixed numpy kernel with no qfact code in it: when its time moves,
    the machine moved.  It never rescales another metric."""
    x = np.arange(1 << 20, dtype=np.uint64)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        y = x * np.uint64(0x9E3779B97F4A7C15)
        y ^= y >> np.uint64(29)
        float(np.sort(y)[::4096].astype(np.float64).sum())
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def measure_setup(op: workloads.Op, workers: int) -> float:
    """Seconds from spawning a probe until its warm-up op is done."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), json.dumps(_spec(op, workers))],
            stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    op.check()
    return elapsed


def _artifacts(op: workloads.Op) -> dict:
    return {(i, p.name): p.read_bytes()
            for i, c in enumerate(op.calls) for p in sorted(c.out.iterdir())
            if p.name != "manifest.json"}


def deterministic(cli, ops: list[workloads.Op]) -> bool:
    """Each op's artifacts at two workers equal those at one, byte for byte."""
    same = True
    for op in ops:
        runs = []
        for workers in (1, 2):
            for c in op.calls:
                shutil.rmtree(c.out, ignore_errors=True)
            probe.run_calls(cli, _spec(op, workers))
            op.check()
            runs.append(_artifacts(op))
        if runs[0] != runs[1]:
            print(f"determinism: {op.kind} differs between 1 and 2 workers",
                  file=sys.stderr)
            same = False
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="workers for the timed ops (reference runs only)")
    args = parser.parse_args(argv)
    try:
        cli = probe.import_cli()
    except ImportError as exc:
        print(f"cannot import qfact from the checkout: {exc}", file=sys.stderr)
        return 2
    scratch = probe.ROOT / ".perfbench" / (
        f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        result = run(cli, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result["info"]))
    del result["info"]
    print(json.dumps(result))
    return 0


def run(cli, args, scratch: Path) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    # a fixed warm-up input: set-up time should not depend on the seed
    warm = wl.warmup_op(np.random.default_rng(0), scratch / "warmup")
    setup = [measure_setup(warm, args.workers)]
    probe.run_calls(cli, _spec(warm, args.workers))
    warm.check()
    ref = ref_kernel_ms()

    recorder = spans.Recorder() if args.trace else None
    times, traced_times = [], []
    attempted = failed = work = rounds = 0
    started = time.perf_counter()
    probing = 0.0  # time spent in set-up probes, kept off the run's clock
    # whole rounds only; a traced run alternates untraced and traced rounds
    while (time.perf_counter() - started - probing < args.seconds
           or (recorder is not None and rounds % 2)):
        # probes spread over the run, so their median does not hang on
        # one moment of a machine whose speed drifts
        if (len(setup) < SETUP_PROBES and time.perf_counter() - started
                - probing >= len(setup) * args.seconds / SETUP_PROBES):
            t0 = time.perf_counter()
            setup.append(measure_setup(warm, args.workers))
            probing += time.perf_counter() - t0
        rounds += 1
        ops = wl.round_ops(np.random.default_rng([args.seed, rounds]),
                           scratch / "round")
        traced = recorder is not None and rounds % 2 == 0
        if traced:
            recorder.install()
        try:
            for op in ops:
                attempted += 1
                if traced:
                    recorder.op = len(traced_times)
                try:
                    t0 = time.perf_counter()
                    probe.run_calls(cli, _spec(op, args.workers))
                    elapsed = time.perf_counter() - t0
                    op.check()
                except Exception:  # the run goes on; the op counts as failed
                    traceback.print_exc()
                    failed += 1
                    continue
                if traced:
                    traced_times.append(elapsed)
                else:
                    times.append(elapsed)
                    work += op.work
        finally:
            if traced:
                recorder.remove()
    # the timed ops' peak, before the determinism ops below can raise it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(warm, args.workers))
    ref += ref_kernel_ms()

    same = deterministic(cli, workloads.determinism_ops(
        np.random.default_rng([args.seed, 1 << 30]), scratch / "determinism"))
    info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
            "ops": attempted, "ops_timed": len(times), "work_unit": wl.unit,
            "workers": args.workers, "setup_samples_s": setup,
            "machine.ref_kernel_ms": statistics.median(ref),
            "deterministic": same}
    if recorder is None:
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "work_per_s": (work / sum(times), "1/s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    else:
        path = probe.ROOT / ".perfbench" / (
            f"trace-{args.workload}-s{args.seed}.json")
        recorder.dump(path)
        info["trace_file"] = str(path.relative_to(probe.ROOT))
        info["trace_missing"] = recorder.missing
        values = {name: (v, spans.unit_of(name)) for name, v in
                  spans.layer_metrics(recorder.spans, len(traced_times)).items()}
        values["machine.ref_kernel_ms"] = (statistics.median(ref), "ms")
        values["trace.overhead_ms"] = (
            (statistics.median(traced_times) - statistics.median(times)) * 1e3,
            "ms")
    return {"info": info, "correct": same, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}


if __name__ == "__main__":
    sys.exit(main())

"""Import qfact from the checkout and run CLI calls through ``cli.run_command``.

As a script it is the set-up probe: interpreter start, ``import qfact`` and
one warm-up op, after which it prints ``ready``:

    python3 perfbench/probe.py CALLS_JSON

CALLS_JSON is a list of [command, scenario, out_dir, workers] entries.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_cli():
    """qfact.cli from ROOT/src; refuses a qfact found anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    from qfact import cli
    if Path(cli.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"qfact found at {cli.__file__}, not under {ROOT / 'src'}")
    return cli


def run_calls(cli, calls) -> None:
    for command, scenario, out, workers in calls:
        cli.run_command(command, str(scenario), out=str(out), workers=workers)


if __name__ == "__main__":
    run_calls(import_cli(), json.loads(sys.argv[1]))
    print("ready", flush=True)

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfact

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted("qfact" if p.stem == "__init__" else f"qfact.{p.stem}"
                 for p in (SRC / "qfact").glob("*.py"))


# prints the top-level packages that ``import {m}`` loads: those the
# interpreter loaded at start (site hooks, say) are not the module's
NEW_PACKAGES = ("import json, sys; before = set(sys.modules); import {m}; "
                "print(json.dumps(sorted({{name.partition('.')[0] "
                "for name in sys.modules.keys() - before}})))")


@pytest.fixture(scope="module")
def fresh_imports():
    """Each module imported in an interpreter of its own, all started at once."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    procs = {m: subprocess.Popen([sys.executable, "-c", NEW_PACKAGES.format(m=m)],
                                 env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
             for m in MODULES}
    yield procs
    for proc in procs.values():
        proc.communicate(timeout=60)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(fresh_imports, module):
    # the package namespace imports nothing, so no import order can hide
    # a module's missing import; numpy is the only runtime dependency
    proc = fresh_imports[module]
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert set(json.loads(out)) - sys.stdlib_module_names <= {"numpy", "qfact"}


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert qfact.__version__ == project["version"]


def test_default_rng_only_in_seeding():
    # every draw goes through a keyed stream or a Generator the caller
    # passes in, so only seeding may build a Generator
    users = [p.name for p in (SRC / "qfact").glob("*.py")
             if "default_rng" in p.read_text()]
    assert users == ["seeding.py"]

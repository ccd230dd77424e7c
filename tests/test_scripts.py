"""The scripts under ``scripts/`` run from a checkout with no PYTHONPATH set."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name,args,expect", [
    # smaller grids trip the script's own closed-form assert
    ("continuity_scan.py", ("--angles", "31", "--grid", "400", "--triples", "2000"),
     "residual=-0.0625"),
    ("mixture_grid.py", ("--angles", "7", "--weights", "5"), ""),
])
def test_script_runs_without_pythonpath(name, args, expect):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert expect in out.stdout

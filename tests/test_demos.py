"""Every demo script runs to completion against the package."""

import os
import subprocess
import sys

import pytest

import ramansim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def run_demo(name, *args):
    src = os.path.dirname(os.path.dirname(ramansim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name), *args],
        env=env, capture_output=True, text=True, timeout=300)


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    args = [str(tmp_path)] if name == "03_worked_example.py" else []
    proc = run_demo(name, *args)
    assert proc.returncode == 0, proc.stderr
    if args:
        for csv in ("trace_closed.csv", "trace_decay.csv"):
            lines = (tmp_path / csv).read_text().splitlines()
            assert "t,pop0,pop1,pop_x,purity,p1,p2,p3" in lines

"""Smoke test: every demo script runs to completion, with a deprecation,
a future change or a numpy floating-point warning as an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import simpair

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(simpair.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "PYTHONWARNINGS": "error::DeprecationWarning,error::FutureWarning,error::RuntimeWarning"}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_demos_are_found():
    assert DEMOS

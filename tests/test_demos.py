"""Every demo script runs to completion in a fresh interpreter, and the
package namespace that the demos import from binds every name it exports."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import postlie

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_package_exports_are_bound():
    missing = [name for name in postlie.__all__ if not hasattr(postlie, name)]
    assert missing == []
    namespace: dict = {}
    exec("from postlie import *", namespace)
    assert set(postlie.__all__) <= set(namespace)

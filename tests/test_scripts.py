"""Smoke tests: each script under ``scripts/`` runs on a small input and
prints its table header; a script with a pinned digest prints exactly the
output it was recorded with."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script -> (arguments, a header line it prints, sha256 of its stdout or None)
SCRIPTS = {
    "failure_demo.py": (["--T", "40"], "learner                        loss       regret  notes",
                        "5353f4674516cfa0f0d9aa33c58b8f56c06cbd4041d81c589dd230a98cc1dd2a"),
    "schedule_sweep.py": (["--n", "3", "--T", "200", "--seeds", "2"],
                          "schedule          mean regret   max regret        bound  max/bound",
                          None),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    args, header, digest = SCRIPTS[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert header in result.stdout.splitlines()
    if digest is not None:
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest

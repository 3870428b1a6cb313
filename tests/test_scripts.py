"""Smoke tests: each script under ``scripts/`` runs on a small input and
prints its table header; a script with a pinned digest prints exactly the
output it was recorded with; an option value a script cannot run with is an
argparse error (exit 2, one ``error:`` line, no traceback)."""

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
                          "e002ed813e821f6d9a13ee09cc9dbe0eea251f91fcd116f2a6c2057e6bf4f9b1"),
}


# script -> option values it rejects, each as an argparse error
BAD_ARGS = {
    "failure_demo.py": (["--T", "41"], ["--T", "0"], ["--eta", "0"], ["--eta", "nan"]),
    "schedule_sweep.py": (["--T", "1"], ["--seeds", "0"], ["--n", "1"]),
}


def _run(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    args, header, digest = SCRIPTS[script]
    result = _run(script, args)
    assert result.returncode == 0, result.stderr
    assert header in result.stdout.splitlines()
    if digest is not None:
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("script, args", [(s, a) for s in sorted(BAD_ARGS) for a in BAD_ARGS[s]],
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_bad_argument_is_an_argparse_error(script, args):
    result = _run(script, args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith(f"{script}: error: argument {args[0]}: ")

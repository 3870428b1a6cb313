"""The pinned traces and CSV bytes on other BLAS kernels and SIMD paths.

Each child process recomputes ``test_golden``'s ``TRACE_DIGESTS`` and the
CSV digest of every ``RUNS`` case with one environment variable set that
changes the machine code numpy runs: OpenBLAS's core type (Prescott's SSE3
kernels, Haswell's AVX2/FMA ones), or numpy's dispatch with its AVX2 and
AVX-512 loops switched off.  The variable acts only on its own child.  Every
digest must equal its pin: a learner's arithmetic is IEEE basic operations
in an order the code fixes, plus libm, and none of it goes through BLAS or
numpy's SIMD loops in a way that changes a bit.

The summary JSON and stdout are not held: they carry the comparator loss,
whose products still go through BLAS.  Nor is glibc's libm: its FMA
variants of ``exp`` and ``log`` (masked with ``GLIBC_TUNABLES``) are the one
host boundary left, and they move EG's traces and the losses -ln M.
"""

import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import softbayes
import test_golden
from softbayes.cli import main

# name -> (environment variable, value, the CPU features its code needs)
HOST_PATHS = {
    "openblas-prescott": ("OPENBLAS_CORETYPE", "Prescott", ("SSE3",)),
    "openblas-haswell": ("OPENBLAS_CORETYPE", "Haswell", ("AVX2", "FMA3")),
    "numpy-no-avx2-avx512": ("NPY_DISABLE_CPU_FEATURES", "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR",
                             ()),
}


def digests() -> dict:
    """Every ``TRACE_DIGESTS`` case and the CSV of every ``RUNS`` case, as
    this process computes them."""
    traces = {json.dumps(key): test_golden.trace_digest(*key)
              for key in sorted(test_golden.TRACE_DIGESTS)}
    csvs = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        for name, (argv, _, _) in sorted(test_golden.RUNS.items()):
            with contextlib.redirect_stdout(io.StringIO()):
                main(["run", *argv, "--out-csv", path])
            csvs[name] = list(test_golden._digest(Path(path).read_bytes()))
    return {"traces": traces, "csv": csvs}


def _cpu_has(features) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:   # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return all(__cpu_features__.get(feature, False) for feature in features)


@pytest.fixture(scope="module")
def children():
    """Each host path's child's exit code, stdout and stderr; the children
    run side by side, each with its own variable and none of the others."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(softbayes.__file__).resolve().parents[1]), str(here)])
    variables = {var for var, _, _ in HOST_PATHS.values()}
    base = {k: v for k, v in os.environ.items() if k not in variables}
    started = {
        name: subprocess.Popen(
            [sys.executable, "-c", "import json, test_host_paths as t; print(json.dumps(t.digests()))"],
            env={**base, var: value, "PYTHONPATH": path}, cwd=here,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, (var, value, needs) in HOST_PATHS.items() if _cpu_has(needs)}
    try:
        done = {}
        for name, child in started.items():
            out, err = child.communicate(timeout=600)
            done[name] = (child.returncode, out, err)
        return done
    finally:
        for child in started.values():
            # only a child still running after a timeout is stopped here
            child.kill()
            child.wait()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the variables name x86-64 kernels and dispatch targets")
@pytest.mark.parametrize("name", sorted(HOST_PATHS))
def test_pins_hold_on_another_host_path(name, children):
    if name not in children:
        pytest.skip(f"this CPU lacks {', '.join(HOST_PATHS[name][2])}")
    code, out, err = children[name]
    assert code == 0, err
    got = json.loads(out.splitlines()[-1])
    want = {json.dumps(key): pin for key, pin in sorted(test_golden.TRACE_DIGESTS.items())}
    assert got["traces"] == want
    assert got["csv"] == {case: list(pins["csv"]) for case, (_, _, pins) in test_golden.RUNS.items()}

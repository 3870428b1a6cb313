"""Self-tests of the benchmark, on workloads shrunk fifty-fold.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import tracing  # noqa: E402

SMALL = bench.build_workloads(scale=50)


def measure(workload, out, trace=False, seed=3):
    return bench.measure(workload, seed, 0, trace, ROOT, out)


def traced_op(name, tmp_path) -> tracing.Tracer:
    prep = bench.prepare(SMALL[name], 3, tmp_path)
    result = bench.run_op(prep.argv, tracing.Tracer())
    assert result.exit_code in SMALL[name].expected_exits
    return result.tracer


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in bench.WORKLOADS.values()}
    for key, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


@pytest.mark.parametrize("name", list(SMALL))
def test_every_workload_emits_every_metric(name, tmp_path):
    for trace, table in ((False, bench.END_TO_END), (True, bench.PER_LAYER)):
        run = measure(SMALL[name], tmp_path, trace)
        assert run.failed == 0, [op.problems for op in run.ops]
        assert run.metrics.keys() == table.keys()
        assert all(math.isfinite(v) for v in run.metrics.values())
    assert run.metrics["learners.rounds"] > 0


@pytest.mark.parametrize("name", ["e2e-csv", "adversarial-compare", "verify"])
def test_spans_nest_inside_their_parents(name, tmp_path):
    spans = traced_op(name, tmp_path).spans
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == [tracing.ROOT]
    assert len(spans) > 1
    for s in spans:
        assert s.start <= s.end
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end


@pytest.mark.parametrize("name", ["e2e-csv", "adversarial-compare", "verify"])
def test_self_times_and_residual_add_up_to_the_traced_wall(name, tmp_path):
    tracer = traced_op(name, tmp_path)
    values = tracing.layer_metrics(tracer)
    layers = sum(v for k, v in values.items() if k.endswith("_s"))
    root = tracer.spans[0]
    assert values["trace.residual_s"] == root.self_time
    assert math.isclose(layers, root.duration, rel_tol=1e-9)


def test_seed_shuffles_the_rounds_of_one_stream(tmp_path):
    rows = {}
    for seed in (3, 4):
        (tmp_path / str(seed)).mkdir()
        bench.prepare(SMALL["e2e-csv"], seed, tmp_path / str(seed))
        rows[seed] = (tmp_path / str(seed) / "stream.jsonl").read_text().splitlines()
    assert rows[3] != rows[4]
    assert sorted(rows[3]) == sorted(rows[4])


def test_probe_samples_a_stretch_and_scales_its_time():
    with bench.HostProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert 5 <= len(probe.samples) <= 0.3 / bench.PROBE_INTERVAL_S + 2
    assert probe.busy() == sum(probe.samples[1:])
    assert probe.factor() == bench.PROBE_REF_S / statistics.median(probe.samples)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_wall_is_the_median_scaled_operation(tmp_path):
    run = measure(SMALL["verify"], tmp_path, seed=3)
    assert len(run.probes) == len(run.ops) - 1
    scale = run.metrics["wall_s"] / run.raw["wall_s"]
    assert min(bench.PROBE_REF_S / p for p in run.probes) <= scale * (1 + 1e-9)
    assert scale <= max(bench.PROBE_REF_S / p for p in run.probes) * (1 + 1e-9)


def test_failed_operation_is_counted_and_the_run_goes_on(tmp_path):
    broken = bench.Workload("missing-stream", "a stream file that does not exist",
                            ("run", "--stream", "{out}/missing.jsonl", "--learner", "soft-bayes"))
    run = measure(broken, tmp_path)
    assert run.attempted == 2 and run.failed == 2
    assert run.metrics["success_rate"] == 0.0
    assert all(op.exit_code == 2 for op in run.ops)
    assert "exit code 2" in run.ops[0].problems[0]


def test_changed_output_bytes_are_a_failure(tmp_path):
    prep = bench.prepare(SMALL["verify"], 3, tmp_path)
    result = bench.run_op(prep.argv)
    digest = bench.output_digest(result, prep.artifacts)
    assert bench.check(SMALL["verify"], prep, result, digest, digest) == []
    assert bench.check(SMALL["verify"], prep, result, digest, "0" * 64) == [
        "output bytes differ from the run's first operation"]


def test_deterministic_counts_repeat_across_traced_runs(tmp_path):
    for name in ("e2e-csv", "adversarial-compare"):
        first, second = (measure(SMALL[name], tmp_path / str(i), True).metrics for i in (1, 2))
        assert {k: first[k] for k in bench.DETERMINISTIC} == \
            {k: second[k] for k in bench.DETERMINISTIC}
        assert first["rates.calls"] > 0
        assert first["harness.render_csv_bytes"] > 0
        assert (first["harness.ingest_bytes"] > 0) == (name == "e2e-csv")
    # compare writes no CSV yet renders one; EG and OGD diverge at any size
    # (the meta learner's underflow needs the full T)
    assert first["harness.render_csv_s"] > 0
    assert first["learners.diverged_rounds"] > 0
    assert first[tracing.selector_metric("eg:fixed=0.5", "diverged_rounds")] > 0
    assert first["comparators.masked_solves"] >= 2


def test_command_prints_the_result_line_last():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {k: unit for k, (unit, _) in bench.END_TO_END.items()}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout

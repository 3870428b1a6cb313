"""The benchmark's per-layer tracer still finds the names it wraps.

``perfbench/tracing.py`` replaces module globals of ``softbayes.harness``
(``best_fixed_mixture``, ``_masked_comparator_loss``, ``_csv_table``, ...)
and ``softbayes.verify`` (``soft_bayes_sweep``, ``run_learner``) with timing
wrappers.  A refactor that stops calling one of those names leaves the
benchmark running but reading zero for that layer; each test here runs one
small traced operation and checks that every layer it covers still counts.
"""

import importlib.util
import sys
from pathlib import Path

from softbayes.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_every_layer(tmp_path, capsys, monkeypatch):
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        code = main(["run", "--generator", "theorem2:T=200", "--on-divergence", "continue",
                     "--learner", "eg:fixed=0.5", "--learner", "ogd:fixed=0.1",
                     "--learner", "soft-bayes:self-confident", "--bound", "thm4",
                     "--out-csv", str(tmp_path / "trace.csv")])
    capsys.readouterr()
    assert code == 0
    values = tracing.layer_metrics(tracer)
    assert values["comparators.fixed_mixture_iters"] == 7
    # EG and OGD diverge, so each refits the comparator on its finite rounds
    assert values["comparators.masked_solves"] == 2
    assert values["learners.rounds"] == 600
    # the self-confident schedule: rate(1) when the learner is made, then
    # one observe and one rate(t + 1) per round
    assert values["rates.calls"] == 401
    for name in ("harness.render_csv_bytes", "harness.ratio_stats_s", "comparators.bound_s"):
        assert values[name] > 0, name
    # the CSV is rendered block by block, inside the write that puts each
    # block in its file, and the blocks together are the file
    renders = [span for span in tracer.spans if span.name == "harness.render_csv"]
    assert all(tracer.spans[span.parent].name == "harness.write" for span in renders)
    assert sum(span.attrs["bytes"] for span in renders) == (tmp_path / "trace.csv").stat().st_size


def test_traced_compare_renders_no_csv(capsys, monkeypatch):
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        code = main(["compare", "--generator", "theorem2:T=200", "--on-divergence", "continue",
                     "--learner", "eg:fixed=0.5", "--learner", "soft-bayes:anytime"])
    capsys.readouterr()
    assert code == 0
    values = tracing.layer_metrics(tracer)
    assert values["learners.rounds"] == 400
    assert values.get("harness.render_csv_bytes", 0) == 0
    assert values.get("harness.render_csv_s", 0) == 0


def test_every_schedule_class_counted_once(capsys, monkeypatch):
    # a schedule class whose rate or observe got wrapped twice (say, one
    # schedule subclassing another) would count its calls twice
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    selectors = ["soft-bayes:anytime", "soft-bayes:sparse", "soft-bayes:shifting",
                 "soft-bayes:self-confident", "soft-bayes:fixed=0.5", "soft-bayes:inverse-t=1",
                 "bayes", "meta:rates=1,0.5"]
    with tracing.traced(tracer):
        code = main(["run", "--generator", "theorem2:T=200", "--on-divergence", "continue",
                     *(arg for s in selectors for arg in ("--learner", s))])
    capsys.readouterr()
    assert code == 0
    # seven soft-Bayes schedules at 1 + 2 x 200 calls each, and meta's two
    # sub-learners: the rate-0.5 one the same, the rate-1 one stepped to the
    # round 102 it dies on
    assert tracing.layer_metrics(tracer)["rates.calls"] == 8 * 401 + 1 + 2 * 102


def test_traced_verify_counts_sweeps_and_replays(capsys, monkeypatch):
    # verify's per-layer numbers come only from the sweep and the sequential
    # replays, wrapped by the names verify calls them by
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        code = main(["verify", "--samples", "2000"])
    capsys.readouterr()
    assert code == 0
    values = tracing.layer_metrics(tracer)
    # 3 N x 3 rates x (20 swept streams + 1 replay) x 1000 rounds
    assert values["learners.rounds"] == 189_000
    # each sweep schedule: its 1000 rates, read before the rounds; each
    # replay: 1 + 2 x 1000 calls
    assert values["rates.calls"] == 9 * 1000 + 9 * 2001
    assert values["learners.sweep_s"] > 0


def test_traced_compare_sees_every_learner(capsys, monkeypatch):
    # each learner steps its stream in one call of run_learner, which the
    # tracer wraps; the schedules' rate and observe are still counted one by
    # one through their class-level wrappers
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    selectors = ["soft-bayes:anytime", "soft-bayes:sparse", "soft-bayes:shifting",
                 "soft-bayes:self-confident", "eg:fixed=0.5", "ogd:fixed=0.1",
                 "ml-soft-bayes", "meta:rates=1,0.5,0.25"]
    with tracing.traced(tracer):
        code = main(["compare", "--generator", "theorem2:T=200", "--on-divergence", "continue",
                     *(arg for s in selectors for arg in ("--learner", s))])
    capsys.readouterr()
    assert code == 0
    values = tracing.layer_metrics(tracer)
    assert values["learners.rounds"] == 1600
    # four online schedules and meta's rate-0.5 and 0.25 sub-learners at
    # 1 + 2 x 200 calls each, and its rate-1 one stepped to the round 102 it
    # dies on
    assert values["rates.calls"] == 6 * 401 + 1 + 2 * 102
    for selector in selectors:
        assert values[tracing.selector_metric(selector)] > 0, selector

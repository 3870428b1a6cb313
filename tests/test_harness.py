import csv
import io
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from softbayes import harness
from softbayes.cli import main
from softbayes.core import ExpertStream
from softbayes.generators import adversarial_constant, with_flip_round
from softbayes.harness import (
    BLOCK_ROWS,
    ConfigError,
    ExperimentConfig,
    StreamFormatError,
    load_stream,
    parse_comparator,
    parse_learner,
    ratio_stats,
    read_stream_csv,
    read_stream_jsonl,
    run_experiment,
    stream_best_count,
    write_stream_jsonl,
)
from softbayes.learners import LearnerTrace


class TestParseLearner:
    def test_soft_bayes_default_schedule(self):
        spec = parse_learner("soft-bayes")
        assert spec.kind == "soft-bayes" and spec.schedule.kind == "anytime"

    def test_soft_bayes_with_schedule(self):
        spec = parse_learner("soft-bayes:self-confident=0.4")
        assert spec.schedule.kind == "self-confident" and spec.schedule.param == 0.4
        assert parse_learner("soft-bayes:fixed=0.25").constant_rate == 0.25

    def test_eg_and_ogd_rates(self):
        assert parse_learner("eg:fixed=0.5").eta == 0.5
        assert parse_learner("ogd:fixed=0.1").eta == 0.1
        assert parse_learner("eg:fixed=2.0").eta == 2.0  # EG allows rates above 1

    def test_meta_rates(self):
        spec = parse_learner("meta:rates=1,0.5,0.25")
        assert spec.rates == (1.0, 0.5, 0.25)

    def test_errors(self):
        for bad in ("mystery", "eg", "eg:anytime", "meta", "bayes:fixed=1",
                    "ml-soft-bayes:anytime", "meta:rates=2"):
            with pytest.raises(ConfigError):
                parse_learner(bad)

    def test_builds(self):
        for text in ("soft-bayes:anytime", "soft-bayes:sparse", "soft-bayes:shifting",
                     "soft-bayes:self-confident", "soft-bayes:inverse-t=3", "bayes",
                     "eg:fixed=0.5", "ogd:fixed=0.1", "ml-soft-bayes",
                     "meta:rates=1,0.5"):
            learner = parse_learner(text).build(4)
            out = learner.step(np.array([0.3, 0.5, 0.2, 0.9]))
            assert math.isfinite(out.loss)


class TestParseComparator:
    def test_kinds(self):
        assert parse_comparator("fixed-mixture").kind == "fixed-mixture"
        assert parse_comparator("single-best").kind == "single-best"
        spec = parse_comparator("shifting=51,101")
        assert spec.boundaries == (1, 51, 101)
        assert spec.k == 3

    def test_errors(self):
        for bad in ("median", "shifting", "shifting=", "shifting=5,5"):
            with pytest.raises(ConfigError):
                parse_comparator(bad)


class TestStreamIO:
    def test_jsonl_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        stream = ExpertStream(rng.uniform(0.001, 1.0, size=(40, 3)))
        path = tmp_path / "s.jsonl"
        write_stream_jsonl(stream, path)
        again = load_stream(str(path))
        np.testing.assert_array_equal(stream.p, again.p)

    def test_full_mode_reduction(self):
        text = '{"dists": [[0.2, 0.8], [0.6, 0.4]], "x": 1}\n'
        stream = read_stream_jsonl(text)
        np.testing.assert_allclose(stream.p, [[0.2, 0.6]])

    def test_malformed_line_number(self):
        text = '{"p": [0.5, 0.5]}\nnot json\n'
        with pytest.raises(StreamFormatError, match="line 2"):
            read_stream_jsonl(text)

    def test_all_zero_round_rejected(self):
        with pytest.raises(StreamFormatError, match="positive"):
            read_stream_jsonl('{"p": [0.0, 0.0]}\n')

    def test_inconsistent_width(self):
        with pytest.raises(StreamFormatError, match="line 2"):
            read_stream_jsonl('{"p": [0.5, 0.5]}\n{"p": [0.5, 0.5, 0.5]}\n')

    def test_symbol_out_of_range(self):
        with pytest.raises(StreamFormatError, match="outside"):
            read_stream_jsonl('{"dists": [[0.2, 0.8]], "x": 3}\n')

    @pytest.mark.parametrize("n", [1, 4])
    def test_jsonl_write_matches_one_dumps_per_round(self, n, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_ROWS", 7)
        rng = np.random.default_rng(n)
        p = rng.uniform(0.0, 1.0, size=(30, n))
        p[rng.random(p.shape) < 0.2] = rng.choice([0.0, 1.0, 5e-324, 1e-5, 0.1])
        p[:, 0] = np.maximum(p[:, 0], 0.5)
        stream = ExpertStream(p)
        write_stream_jsonl(stream, tmp_path / "s.jsonl")
        expected = "".join(json.dumps({"p": [float(v) for v in row]}) + "\n" for row in p)
        assert (tmp_path / "s.jsonl").read_text() == expected

    @pytest.mark.parametrize("block", [2, BLOCK_ROWS])
    def test_bulk_and_per_line_reads_agree(self, block, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_ROWS", block)
        text = ('{"p": [0.5, 1e-3]}\n\n  {"p":[1, 0]}\t\n'
                '{ "p" : [ 2.5E-1 , 0.75 ] }\n{"p": [5e-324, 1.0]}\n')
        lines = text.splitlines()
        bulk = harness._bulk_rounds(lines)
        assert bulk is not None
        np.testing.assert_array_equal(bulk, harness._per_line_rounds(lines))
        np.testing.assert_array_equal(read_stream_jsonl(text).p, bulk)

    @pytest.mark.parametrize("text, match", [
        # valid as one list, but no line of it is one JSON object
        ('{"p": [0.5, 0.5]},{"p": [0.5, 0.5]}\n{"p": [0.5\n0.5]}\n',
         "line 1: invalid JSON"),
        ('{"p": [0.5, 0.5]}\n{"p": [1.]}\n', "line 2: invalid JSON"),
        ('{"p": [0.5, 0.5]}\n{"p": [0.5, null]}\n', "line 2: non-numeric"),
        ('{"p": [0.5, 0.5]}\n{"p": [[0.5], 0.5]}\n', "line 2: non-numeric"),
        ('{"p": [0.5, 0.5]}\n{"p": [0.5]}\n', "line 2: expected 2 experts, got 1"),
        ('{"p": [0.5, 0.5]}\n{"q": [0.5, 0.5]}\n', "line 2: round needs"),
        ("\n  \n", "no rounds"),
    ])
    @pytest.mark.parametrize("block", [1, BLOCK_ROWS])
    def test_bulk_read_falls_back_to_line_errors(self, text, match, block, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_ROWS", block)
        assert harness._bulk_rounds(text.splitlines()) is None
        with pytest.raises(StreamFormatError, match=match):
            read_stream_jsonl(text)

    def test_rounds_the_bulk_read_leaves_to_the_line_reader(self):
        text = ('{"p": [0.5, "0.25"]}\n{"dists": [[0.2, 0.8], [0.6, 0.4]], "x": 2}\n'
                '{"p": [true, 0.5], "note": 1}\n')
        assert harness._bulk_rounds(text.splitlines()) is None
        np.testing.assert_array_equal(read_stream_jsonl(text).p,
                                      [[0.5, 0.25], [0.8, 0.4], [1.0, 0.5]])

    def test_csv_round_trip(self):
        text = "p1,p2\n0.5,0.25\n1.0,0.0\n"
        stream = read_stream_csv(text)
        np.testing.assert_allclose(stream.p, [[0.5, 0.25], [1.0, 0.0]])

    def test_csv_requires_header(self):
        with pytest.raises(StreamFormatError, match="header"):
            read_stream_csv("0.5,0.5\n0.1,0.9\n")

    def test_csv_bad_cell_line_number(self):
        with pytest.raises(StreamFormatError, match="line 3"):
            read_stream_csv("p1,p2\n0.5,0.5\n0.5,oops\n")

    def test_csv_line_numbers_count_blank_lines(self):
        with pytest.raises(StreamFormatError, match="line 5: non-numeric"):
            read_stream_csv("a,b\n0.5,0.5\n\n\n0.5,x\n")
        with pytest.raises(StreamFormatError, match="line 4: expected 2 columns, got 1"):
            read_stream_csv("a,b\n0.5,0.5\n\n0.5\n")


class TestConfig:
    def test_requires_learners(self):
        with pytest.raises(ConfigError, match="learner"):
            ExperimentConfig(generator="theorem2:T=8", learners=())

    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(learners=("bayes",))
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(stream="x.jsonl", generator="theorem2:T=8",
                             learners=("bayes",))

    def test_unknown_bound(self):
        with pytest.raises(ConfigError, match="unknown bound"):
            ExperimentConfig(generator="theorem2:T=8", learners=("bayes",),
                             bounds=("thm9",))

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "generator": "theorem2:T=8",
            "learners": ["soft-bayes:anytime"],
            "comparator": "fixed-mixture",
        }))
        cfg = ExperimentConfig.from_json_file(str(path), seed=3)
        assert cfg.seed == 3 and cfg.learners == ("soft-bayes:anytime",)
        path.write_text(json.dumps({"learners": ["bayes"], "generator": "theorem2:T=8",
                                    "mystery": 1}))
        with pytest.raises(ConfigError, match="unknown config"):
            ExperimentConfig.from_json_file(str(path))

    @pytest.mark.parametrize("key, value, kind", [
        ("stream", 5, "a string or null"),
        ("generator", ["theorem2:T=8"], "a string or null"),
        ("comparator", 5, "a string"),
        ("on_divergence", None, "a string"),
        ("out_csv", True, "a string or null"),
        ("out_json", {}, "a string or null"),
        ("learners", "bayes", "a list"),
        ("bounds", "thm5", "a list"),
        ("bits", "false", "a boolean"),
        ("seed", "3", "an integer or null"),
        ("seed", 3.0, "an integer or null"),
        ("seed", True, "an integer or null"),
    ])
    def test_from_json_file_rejects_wrong_types(self, tmp_path, key, value, kind):
        data = {"generator": "theorem2:T=8", "learners": ["bayes"], key: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=f"^config key '{key}' must be {kind}$"):
            ExperimentConfig.from_json_file(str(path))


class TestRunExperiment:
    def test_adversarial_comparison(self):
        cfg = ExperimentConfig(
            generator="theorem2:T=8",
            learners=("soft-bayes:anytime", "eg:fixed=0.5"),
            comparator="fixed-mixture",
        )
        artifact = run_experiment(cfg)
        assert len(artifact.reports) == 2
        soft, eg = artifact.reports
        assert eg.regret > soft.regret

    def test_estimator_prediction_value(self):
        cfg = ExperimentConfig(
            generator="disjoint_dirac:N=3,T=3",
            learners=("soft-bayes:inverse-t=3",),
            seed=0,
        )
        artifact = run_experiment(cfg)
        stream = artifact.stream
        trace = artifact.traces[0]
        # round-3 prediction equals the add-constant estimate of whatever
        # symbol realizes, given the first two rounds' counts
        counts = stream.p[:2].sum(axis=0)
        expected = (counts + 1.0) / (2 + 3.0)
        sym = int(np.argmax(stream.p[2]))
        assert trace.predictions[2] == pytest.approx(expected[sym], abs=1e-14)

    def test_csv_structure(self):
        cfg = ExperimentConfig(generator="theorem2:T=8", learners=("bayes",),
                               on_divergence="continue")
        artifact = run_experiment(cfg)
        lines = artifact.csv_text.strip().split("\n")
        assert lines[0].startswith("learner,t,eta,prediction,loss,cum_loss,w1,w2")
        assert len(lines) == 1 + 8
        cums = [float(l.split(",")[5]) for l in lines[1:]]
        assert all(b >= a for a, b in zip(cums, cums[1:]))

    def test_halt_policy_partial_artifact(self):
        cfg = ExperimentConfig(
            generator="theorem2_constant:T=10",
            learners=("ogd:fixed=0.5",),
            on_divergence="halt",
        )
        artifact = run_experiment(cfg)
        assert not artifact.traces[0].diverged  # constant stream alone is safe
        stream = with_flip_round(adversarial_constant(10))
        from softbayes.learners import OnlineGradientDescent, run_learner

        trace = run_learner(OnlineGradientDescent(2, 0.5), stream, "halt")
        assert trace.halted_at == 11

    def test_continue_policy_excludes_rounds(self, tmp_path):
        stream = with_flip_round(adversarial_constant(10))
        path = tmp_path / "flip.jsonl"
        write_stream_jsonl(stream, str(path))
        cfg = ExperimentConfig(stream=str(path), learners=("ogd:fixed=0.5",),
                               on_divergence="continue")
        artifact = run_experiment(cfg)
        entry = artifact.summary["learners"][0]
        assert entry["diverged"] and entry["excluded_rounds"] == 1
        assert math.isfinite(artifact.reports[0].regret)

    def test_divergence_reports_infinite_regret_under_halt(self, tmp_path):
        stream = with_flip_round(adversarial_constant(10))
        path = tmp_path / "flip.jsonl"
        write_stream_jsonl(stream, str(path))
        cfg = ExperimentConfig(stream=str(path), learners=("ogd:fixed=0.5",),
                               on_divergence="halt")
        artifact = run_experiment(cfg)
        assert artifact.summary["learners"][0]["regret"] == "inf"

    def test_undefined_regret_is_not_a_failed_bound(self):
        # every expert of theorem2 assigns 0 somewhere, so the single best
        # loses inf; a halted Bayes run loses inf too
        cfg = ExperimentConfig(generator="theorem2:T=200", learners=("bayes",),
                               comparator="single-best", bounds=("thm5",))
        artifact = run_experiment(cfg)
        entry = artifact.summary["learners"][0]
        assert entry["loss"] == "inf" and entry["comparator_loss"] == "inf"
        assert entry["regret"] is None
        row = entry["bounds"][0]
        assert row["satisfied"] is None
        assert row["note"] == "regret undefined: both losses infinite"
        assert artifact.exit_code == 0

    def test_bound_failure_sets_exit_code(self):
        cfg = ExperimentConfig(
            generator="theorem2:T=100",
            learners=("eg:fixed=0.5",),
            bounds=("thm5",),
            on_divergence="continue",
        )
        artifact = run_experiment(cfg)
        assert artifact.exit_code == 1
        cfg = ExperimentConfig(
            generator="theorem2:T=100",
            learners=("soft-bayes:anytime",),
            bounds=("thm5",),
        )
        artifact = run_experiment(cfg)
        assert artifact.exit_code == 0
        row = artifact.summary["learners"][0]["bounds"][0]
        assert row["satisfied"] is True

    def test_bits_units(self):
        cfg_nats = ExperimentConfig(generator="theorem2:T=8", learners=("bayes",),
                                    on_divergence="continue")
        cfg_bits = ExperimentConfig(generator="theorem2:T=8", learners=("bayes",),
                                    on_divergence="continue", bits=True)
        nats = run_experiment(cfg_nats).summary["learners"][0]["loss"]
        bits = run_experiment(cfg_bits).summary["learners"][0]["loss"]
        assert bits == pytest.approx(nats / math.log(2), rel=1e-12)

    def test_shifting_segment_losses_take_the_unit(self):
        losses = {}
        for bits in (False, True):
            cfg = ExperimentConfig(generator="theorem2:T=200", learners=("soft-bayes",),
                                   comparator="shifting=51", bits=bits)
            detail = run_experiment(cfg).summary["comparator"]
            losses[bits] = [s["loss"] for s in detail["per_segment"]]
            assert sum(losses[bits]) == pytest.approx(detail["loss"], rel=1e-12)
        assert losses[True] == [v / math.log(2) for v in losses[False]]

    def test_weight_snapshot_stride_for_many_experts(self, tmp_path):
        rng = np.random.default_rng(21)
        stream = ExpertStream(rng.uniform(0.01, 1.0, size=(2500, 20)))
        path = tmp_path / "wide.jsonl"
        write_stream_jsonl(stream, str(path))
        cfg = ExperimentConfig(stream=str(path), learners=("bayes",),
                               on_divergence="continue")
        artifact = run_experiment(cfg)
        lines = artifact.csv_text.strip().split("\n")[1:]
        stride = math.ceil(2500 / 1000)
        for i, line in enumerate(lines, 1):
            cells = line.split(",")
            has_weights = any(cells[6:])
            assert has_weights == (i % stride == 0 or i == 2500)

    @pytest.mark.parametrize("comparator", ["fixed-mixture", "shifting=3", "single-best"])
    def test_continue_with_every_round_diverged(self, comparator, tmp_path):
        # a zero prior entry on the only expert that is ever right: every
        # round diverges, so every comparator segment is empty and skipped
        path = tmp_path / "s.jsonl"
        write_stream_jsonl(ExpertStream(np.tile([0.0, 1.0], (5, 1))), str(path))
        cfg = ExperimentConfig(stream=str(path), comparator=comparator,
                               learners=({"spec": "bayes", "prior": [1.0, 0.0]},),
                               on_divergence="continue")
        entry = run_experiment(cfg).summary["learners"][0]
        assert entry["excluded_rounds"] == 5
        assert entry["comparator_loss"] == 0.0 and entry["regret"] == 0.0

    def test_duplicate_learner_names_disambiguated(self):
        cfg = ExperimentConfig(generator="theorem2:T=8",
                               learners=("bayes", "bayes"), on_divergence="continue")
        artifact = run_experiment(cfg)
        names = [t.name for t in artifact.traces]
        assert len(set(names)) == 2


def _reference_fmt(value, bits=False):
    """The cell-by-cell unit rule the block renderer replaced."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    v = float(value)
    if bits and math.isfinite(v):
        v = v / math.log(2.0)
    return repr(v)


def _reference_csv_table(config, stream, traces):
    """The row-by-row CSV renderer the block renderer replaced."""
    T = len(stream)
    width = max(t.weights.shape[1] if t.weights.size else 0 for t in traces)
    stride = 1 if stream.n_experts <= 16 else max(1, math.ceil(T / 1000))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["learner", "t", "eta", "prediction", "loss", "cum_loss"]
                    + [f"w{i + 1}" for i in range(width)])
    bits = config.bits
    for trace in traces:
        cum = trace.cumulative_losses
        for t in range(trace.rounds):
            snapshot = (t + 1) % stride == 0 or t + 1 == trace.rounds
            wcells = ([_reference_fmt(v) for v in trace.weights[t]]
                      if snapshot else []) if width else []
            wcells += [""] * (width - len(wcells))
            writer.writerow([
                trace.name, t + 1,
                _reference_fmt(trace.rates[t]),
                _reference_fmt(trace.predictions[t]),
                _reference_fmt(trace.losses[t], bits),
                _reference_fmt(cum[t], bits),
            ] + wcells)
    return buf.getvalue()


EDGE_VALUES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e16,
               9999999999999998.0, 1e-5, 0.0001, 1 / 3)


def _edgy(rng, shape):
    """Floats over many magnitudes, a quarter of them edge values."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 20, shape)
    edges = rng.random(shape) < 0.25
    values[edges] = rng.choice(EDGE_VALUES, size=int(edges.sum()))
    return values


def _hand_trace(rng, name, rounds, n):
    return LearnerTrace(name, _edgy(rng, rounds), _edgy(rng, rounds),
                        _edgy(rng, rounds), _edgy(rng, (rounds, n)))


def _assert_same_csv(config, stream, traces):
    with np.errstate(invalid="ignore"):   # cumulative inf + -inf
        got = harness._csv_table(config, stream, traces).split("\n")
        want = _reference_csv_table(config, stream, traces).split("\n")
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert bad is None, f"line {bad + 1}: {got[bad]!r} != {want[bad]!r}"
    assert len(got) == len(want)


class TestCsvRenderer:
    """The block renderer against the row-by-row reference, byte for byte."""

    NAMES = ("soft-bayes", "meta:rates=1,0.5", 'say "hi"', "", "two\nlines")

    def _check(self, T, n, bits, rounds=None, seed=0, names=NAMES):
        rng = np.random.default_rng(seed)
        rounds = rounds or [T] * len(names)
        traces = [_hand_trace(rng, name, r, n) for name, r in zip(names, rounds)]
        stream = ExpertStream(np.full((T, n), 0.5))
        _assert_same_csv(SimpleNamespace(bits=bits), stream, traces)

    @pytest.mark.parametrize("bits", [False, True])
    @pytest.mark.parametrize("n", [3, 20])
    @pytest.mark.parametrize("T", [64, 65])
    def test_one_block_and_one_more_row(self, T, n, bits, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_ROWS", 64)
        self._check(T, n, bits)

    def test_the_real_block_size(self):
        self._check(BLOCK_ROWS + 1, 20, True, names=self.NAMES[:2])

    @pytest.mark.parametrize("bits", [False, True])
    @pytest.mark.parametrize("n", [3, 20])
    def test_several_blocks_with_a_stride_remainder(self, n, bits, monkeypatch):
        # T = 2005 over 20 experts: a snapshot every 3rd round and on round 2005
        monkeypatch.setattr(harness, "BLOCK_ROWS", 64)
        self._check(2005, n, bits, seed=1)

    @pytest.mark.parametrize("n", [3, 20])
    def test_halted_and_empty_traces(self, n, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_ROWS", 16)
        self._check(1500, n, True, rounds=[1500, 37, 0, 16, 1], seed=2)

    def test_narrower_weights_are_padded(self):
        rng = np.random.default_rng(3)
        traces = [_hand_trace(rng, "meta", 40, 2), _hand_trace(rng, "bayes", 40, 5),
                  LearnerTrace("none", np.ones(40), np.ones(40), np.ones(40),
                               np.empty((40, 0)))]
        stream = ExpertStream(np.full((40, 5), 0.5))
        _assert_same_csv(SimpleNamespace(bits=False), stream, traces)

    @pytest.mark.parametrize("bits", [False, True])
    def test_one_value_matches_the_reference(self, bits):
        for value in (None, *EDGE_VALUES, 3, -2.5, 1e300):
            assert harness._fmt(value, bits) == _reference_fmt(value, bits)


class TestStats:
    def test_ratio_stats_and_best_count(self):
        rng = np.random.default_rng(15)
        stream = ExpertStream(rng.uniform(0.1, 1.0, size=(50, 3)))
        from softbayes.learners import SoftBayes
        from softbayes.rates import AnytimeRate

        trace = __import__("softbayes.learners", fromlist=["run_learner"]).run_learner(
            SoftBayes(3, AnytimeRate(3)), stream)
        stats = ratio_stats(trace, stream)
        ratios = stream.p / trace.predictions[:, None]
        assert stats["c1"] == pytest.approx(float((ratios - 1).max(axis=1).sum()))
        assert stats["c2"] == pytest.approx(float(((ratios - 1) ** 2).max()))
        assert stats["vmax"] == pytest.approx(float(((ratios - 1) ** 2).sum(axis=0).max()))
        assert stats["c1"] >= 0
        assert 1 <= stream_best_count(stream) <= 3

    def test_ratio_stats_with_an_underflowed_prediction(self):
        cfg = ExperimentConfig(generator="theorem2:T=300", on_divergence="continue",
                               learners=("eg:fixed=0.5",), bounds=("thm3", "thm4"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            artifact = run_experiment(cfg)
            trace = artifact.traces[0]
            stats = ratio_stats(trace, artifact.stream)
        # EG's prediction shows 0.0 on a round whose loss -ln M is finite
        shown_zero = trace.predictions == 0.0
        assert np.isfinite(trace.losses[shown_zero]).any()
        assert not math.isnan(stats["c1"]) and not math.isnan(stats["c2"])
        rows = artifact.summary["learners"][0]["bounds"]
        assert [row["satisfied"] for row in rows] == [True, True]


class TestBoundInputsOnDemand:
    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        original = getattr(harness, name)

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(harness, name, counted)
        return calls

    def test_best_count_only_for_bounds_that_read_m(self, monkeypatch):
        calls = self._count(monkeypatch, "stream_best_count")
        cfg = ExperimentConfig(generator="theorem2:T=50", bounds=("thm5",),
                               learners=("soft-bayes", "bayes"))
        run_experiment(cfg)
        assert calls == []
        cfg = ExperimentConfig(generator="theorem2:T=50", bounds=("thm2", "thm6"),
                               learners=("soft-bayes:fixed=0.5", "soft-bayes"))
        run_experiment(cfg)
        assert len(calls) == 1

    def test_ratio_stats_once_per_learner(self, monkeypatch):
        calls = self._count(monkeypatch, "ratio_stats")
        cfg = ExperimentConfig(generator="theorem2:T=50", bounds=("thm3", "thm4"),
                               learners=("soft-bayes", "eg:fixed=0.5", "ml-soft-bayes"))
        run_experiment(cfg)
        assert [trace.name for trace, _ in calls] == ["soft-bayes", "eg:fixed=0.5",
                                                      "ml-soft-bayes"]


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        args = [
            "run",
            "--generator", "iid-mixture:N=3,T=200",
            "--learner", "soft-bayes:anytime",
            "--learner", "eg:fixed=0.5",
            "--comparator", "fixed-mixture",
            "--bound", "thm5",
            "--seed", "7",
            "--on-divergence", "continue",
        ]
        outs = []
        for tag in ("a", "b"):
            csv_p = tmp_path / f"{tag}.csv"
            json_p = tmp_path / f"{tag}.json"
            code = main(args + ["--out-csv", str(csv_p), "--out-json", str(json_p)])
            assert code == 0
            outs.append((csv_p.read_bytes(), json_p.read_bytes()))
        assert outs[0] == outs[1]

    def test_replay_from_emitted_stream_matches(self, tmp_path):
        stream_path = tmp_path / "gen.jsonl"
        assert main(["gen", "--generator", "iid-mixture:N=3,T=150",
                     "--seed", "11", "--out", str(stream_path)]) == 0
        a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["--learner", "soft-bayes:sparse", "--learner", "bayes",
                "--comparator", "fixed-mixture", "--on-divergence", "continue"]
        assert main(["run", "--generator", "iid-mixture:N=3,T=150", "--seed", "11",
                     "--out-csv", str(a_csv)] + base) == 0
        assert main(["run", "--stream", str(stream_path), "--seed", "11",
                     "--out-csv", str(b_csv)] + base) == 0
        assert a_csv.read_bytes() == b_csv.read_bytes()


class TestCLI:
    def test_bound_subcommand(self, capsys):
        assert main(["bound", "--variant", "thm5", "-p", "T=10000", "-p", "N=2"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(349.326, abs=1e-3)

    @pytest.mark.parametrize("param", ["T=10.7", "N=2.9", "m=1.5", "K=0.5", "T=inf"])
    def test_bound_rejects_non_integral_counts(self, capsys, param):
        argv = ["bound", "--variant", "thm5", "-p", "T=10", "-p", "N=2", "-p", param]
        assert main(argv) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_bound_single_expert(self, capsys):
        assert main(["bound", "--variant", "single-expert",
                     "-p", "eta=1", "-p", "prior_entry=0.125"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.log(8), abs=1e-12)

    def test_config_errors_exit_2(self, capsys):
        assert main(["run", "--generator", "theorem2:T=8"]) == 2  # no learner
        assert main(["run", "--generator", "theorem2:T=8", "--learner", "mystery"]) == 2
        assert main(["run", "--stream", "/nonexistent.jsonl", "--learner", "bayes"]) == 2

    def test_malformed_stream_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"p": [0.5, 0.5]}\n{"p": [0.5]}\n')
        assert main(["run", "--stream", str(bad), "--learner", "bayes"]) == 2
        assert "line" in capsys.readouterr().err

    def test_compare_prints_table(self, capsys):
        code = main(["compare", "--generator", "theorem2:T=8",
                     "--learner", "soft-bayes:anytime", "--learner", "eg:fixed=0.5",
                     "--on-divergence", "continue"])
        assert code == 0
        out = capsys.readouterr().out
        assert "soft-bayes:anytime" in out and "eg:fixed=0.5" in out
        assert "comparator" in out

    def test_config_file_with_prior(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "generator": "disjoint_dirac:N=2,T=1",
            "learners": [{"spec": "bayes", "prior": [0.9, 0.1]}],
            "seed": 1,
        }))
        cfg = ExperimentConfig.from_json_file(str(cfg_path))
        assert cfg.learner_specs[0].prior == (0.9, 0.1)
        artifact = run_experiment(cfg)
        stream = artifact.stream
        sym = int(np.argmax(stream.p[0]))
        assert artifact.traces[0].predictions[0] == pytest.approx([0.9, 0.1][sym])
        cfg_path.write_text(json.dumps({
            "generator": "theorem2:T=2",
            "learners": [{"spec": "bayes", "frozen": True}],
        }))
        with pytest.raises(ConfigError, match="learner objects"):
            ExperimentConfig.from_json_file(str(cfg_path))

    def test_gen_and_run_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "generator": "theorem2:T=8",
            "learners": ["soft-bayes:anytime"],
            "bounds": ["thm5"],
        }))
        assert main(["run", "--config", str(cfg)]) == 0
        assert "bound thm5" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [
        ("comparator", 5), ("bits", "false"), ("learners", "bayes")])
    def test_config_file_wrong_type_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        data = {"generator": "theorem2:T=8", "learners": ["soft-bayes:anytime"], key: value}
        cfg.write_text(json.dumps(data))
        assert main(["run", "--config", str(cfg)]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, key", [
        ({"spec": 5}, "spec"),
        ({"spec": "bayes", "prior": 5}, "prior"),
        ({"spec": "bayes", "prior": "ab"}, "prior"),
        ({"spec": "bayes", "prior": [True, False]}, "prior"),
    ])
    def test_config_file_learner_object_wrong_type_exits_2(self, tmp_path, capsys, entry, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generator": "theorem2:T=8", "learners": [entry]}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert f"learner key '{key}' must be" in capsys.readouterr().err

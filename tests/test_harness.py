import csv
import io
import json
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from softbayes import core, harness
from softbayes.cli import main
from softbayes.comparators import best_fixed_mixture, best_single_expert
from softbayes.core import ExpertStream
from softbayes.generators import (
    adversarial_constant,
    parse_generator,
    random_iid_instance,
    with_flip_round,
)
from softbayes.harness import (
    BLOCK_ROWS,
    COMPARATOR_KINDS,
    ComparatorSpec,
    ConfigError,
    ExperimentConfig,
    RunArtifact,
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
from softbayes.learners import LearnerTrace, OnlineGradientDescent, SoftBayes, run_learner
from test_edge_streams import SELECTORS as EDGE_SELECTORS


class TestParseLearner:
    def test_soft_bayes_default_schedule(self):
        spec = parse_learner("soft-bayes")
        assert spec.kind == "soft-bayes" and spec.arg.kind == "anytime"

    def test_soft_bayes_with_schedule(self):
        spec = parse_learner("soft-bayes:self-confident=0.4")
        assert spec.arg.kind == "self-confident" and spec.arg.param == 0.4
        assert parse_learner("soft-bayes:fixed=0.25").constant_rate == 0.25

    def test_eg_and_ogd_rates(self):
        assert parse_learner("eg:fixed=0.5").arg == 0.5
        assert parse_learner("ogd:fixed=0.1").arg == 0.1
        assert parse_learner("eg:fixed=2.0").arg == 2.0  # EG allows rates above 1

    def test_meta_rates(self):
        spec = parse_learner("meta:rates=1,0.5,0.25")
        assert spec.arg == (1.0, 0.5, 0.25)

    @pytest.mark.parametrize("text, plain", [
        ("eg:FIXED=0.5", "eg:fixed=0.5"),
        ("ogd:Fixed:0.1", "ogd:fixed=0.1"),
        ("meta:RATES:1,0.5", "meta:rates=1,0.5"),
    ])
    def test_keywords_take_any_case_and_either_separator(self, text, plain, capsys):
        # read as parse_schedule reads a schedule kind, as in soft-bayes:FIXED=0.5
        assert parse_learner(text).arg == parse_learner(plain).arg
        assert main(["run", "--generator", "theorem2:T=6", "--learner", text]) == 0

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
            trace = run_learner(learner, [[0.3, 0.5, 0.2, 0.9]])
            assert math.isfinite(trace.losses[0])


class TestParseComparator:
    def test_kinds(self):
        assert parse_comparator("fixed-mixture").kind == "fixed-mixture"
        assert parse_comparator("single-best").kind == "single-best"
        spec = parse_comparator("shifting=51,101")
        assert spec.boundaries == (1, 51, 101)
        assert spec.k == 3
        assert parse_comparator(" Shifting = 51,101 ") == spec
        assert parse_comparator("single-best") == ComparatorSpec("single-best")

    def test_errors(self):
        for bad in ("median", "shifting", "shifting=", "shifting=5,5", "shiftingX=3",
                    "shifting-best=3", "shifting:51", "fixed-mixture=3", "single-best=1"):
            with pytest.raises(ConfigError):
                parse_comparator(bad)


class TestComparatorFit:
    """``_comparator_loss`` is the one fit: each segment of
    ``ComparatorSpec.rows`` by its kind's fit, over the whole stream or over
    the rounds a continue-mode mask keeps."""

    def test_degenerate_segmentation_matches_global(self):
        rng = np.random.default_rng(12)
        stream = ExpertStream(rng.uniform(0.05, 1.0, size=(30, 3)))
        whole = best_fixed_mixture(stream)
        for spec in (ComparatorSpec("fixed-mixture"), ComparatorSpec("shifting", (1,))):
            assert harness._comparator_loss(spec, stream, False)[0] == whole.loss

    def test_perfect_split(self):
        p = np.zeros((100, 2))
        p[:50, 0] = 1.0
        p[50:, 1] = 1.0
        stream = ExpertStream(p)
        loss, detail = harness._comparator_loss(ComparatorSpec("shifting", (1, 51)), stream, False)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert [s["loss"] for s in detail["per_segment"]] == pytest.approx([0.0, 0.0], abs=1e-12)
        single = best_fixed_mixture(stream)
        np.testing.assert_allclose(single.a, [0.5, 0.5], atol=1e-9)
        assert single.loss == pytest.approx(100 * math.log(2), abs=1e-8)

    def test_segment_rows_in_order_and_masked(self):
        stream = ExpertStream(np.linspace(0.1, 1.0, 12).reshape(6, 2))
        spec = ComparatorSpec("shifting", (1, 3, 5))
        np.testing.assert_array_equal(
            np.concatenate([rows.p for rows in spec.rows(stream)]), stream.p)
        assert [len(rows) for rows in spec.rows(stream)] == [2, 2, 2]
        # the middle segment has no unmasked round and is skipped
        mask = np.array([True, False, False, False, True, True])
        masked = list(spec.rows(stream, mask))
        assert [len(rows) for rows in masked] == [1, 2]
        np.testing.assert_array_equal(masked[0].p, stream.p[:1])
        np.testing.assert_array_equal(masked[1].p, stream.p[4:])
        # the masked fit is the kept segments' fits, summed in segment order
        first, last = (ExpertStream(stream.p[:1]), ExpertStream(stream.p[4:]))
        assert harness._masked_comparator_loss(spec, stream, mask) == (
            best_fixed_mixture(first).loss + best_fixed_mixture(last).loss)
        vertex = ComparatorSpec("single-best")
        assert harness._masked_comparator_loss(vertex, stream, mask) == (
            best_single_expert(ExpertStream(stream.p[mask]))[1])
        # a mask that keeps no round leaves no segment, and so no loss
        for kind in COMPARATOR_KINDS:
            none = np.zeros(6, dtype=bool)
            assert harness._masked_comparator_loss(ComparatorSpec(kind), stream, none) == 0.0

    def test_segment_losses_are_added_left_to_right(self, monkeypatch):
        # (1 + 1e-16) + 1e-16 rounds to 1 at each step, while a compensated
        # sum (math.fsum, or sum() from Python 3.12) gives the float above 1
        losses = [1.0, 1e-16, 1e-16]
        assert math.fsum(losses) > 1.0
        fits = iter(losses)
        monkeypatch.setitem(COMPARATOR_KINDS, "shifting", (True, lambda rows, bits: (next(fits), {})))
        stream = ExpertStream(np.full((3, 2), 0.5))
        loss, detail = harness._comparator_loss(ComparatorSpec("shifting", (1, 2, 3)), stream, False)
        assert loss == 1.0 and detail["loss"] == 1.0

    def test_boundary_validation(self):
        with pytest.raises(ValueError):
            ComparatorSpec("shifting", (2, 5))
        with pytest.raises(ValueError):
            ComparatorSpec("shifting", (1, 5, 5))
        stream = ExpertStream(np.full((4, 2), 0.5))
        with pytest.raises(ValueError):
            harness._comparator_loss(ComparatorSpec("shifting", (1, 9)), stream, False)

    def test_spec_holds_to_the_kind_table(self):
        with pytest.raises(ValueError, match="^unknown comparator kind 'bogus'; known: "
                                             "fixed-mixture, single-best, shifting$"):
            ComparatorSpec("bogus")
        # a kind that takes no boundaries is one segment, which thm7 reads as K
        for kind in ("single-best", "fixed-mixture"):
            with pytest.raises(ValueError, match=rf"^comparator '{kind}' takes no boundaries"):
                ComparatorSpec(kind, (1, 50))
            assert ComparatorSpec(kind, (1,)).k == 1

    def test_segment_fits_check_no_row_again(self, monkeypatch):
        # every segment's rows are the run's stream's, which passed the
        # stream rule once when it was built
        inside, checked, masks = [0], [], []
        check, fit = core.check_rounds, harness._comparator_loss

        def counted_check(q):
            if inside[0]:
                checked.append(q.shape)
            return check(q)

        def traced_fit(cmp_spec, stream, bits, mask=None):
            inside[0] += 1
            masks.append(mask is not None)
            try:
                return fit(cmp_spec, stream, bits, mask)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(core, "check_rounds", counted_check)
        monkeypatch.setattr(harness, "_comparator_loss", traced_fit)
        cfg = ExperimentConfig(generator="theorem2:T=200", comparator="shifting=51,151",
                               learners=("soft-bayes:anytime", "eg:fixed=0.5", "ogd:fixed=0.5"),
                               on_divergence="continue")
        artifact = run_experiment(cfg)
        assert [entry["excluded_rounds"] > 0 for entry in artifact.summary["learners"]] == [
            False, True, True]
        assert masks == [False, True, True] and checked == []

    @pytest.mark.parametrize("kind", sorted(COMPARATOR_KINDS))
    def test_all_true_mask_is_the_full_fit(self, kind):
        # an iid stream with every loss finite, and one where every expert
        # assigns zero somewhere, so every vertex loss is infinite
        for stream in (random_iid_instance(4, 300, 3), with_flip_round(adversarial_constant(299))):
            spec = ComparatorSpec(kind, (1, 101, 201) if COMPARATOR_KINDS[kind][0] else (1,))
            full = harness._comparator_loss(spec, stream, False)[0]
            masked = harness._masked_comparator_loss(spec, stream, np.ones(len(stream), bool))
            assert np.float64(masked).tobytes() == np.float64(full).tobytes()

    @pytest.mark.parametrize("kind, solver", [("fixed-mixture", "best_fixed_mixture"),
                                              ("single-best", "best_single_expert"),
                                              ("shifting", "best_fixed_mixture")])
    def test_fit_calls_its_solver_through_the_module(self, kind, solver, monkeypatch):
        # the benchmark's tracer times a solve by replacing the module's name
        calls = []
        original = getattr(harness, solver)
        monkeypatch.setattr(harness, solver, lambda rows: calls.append(len(rows)) or original(rows))
        spec = ComparatorSpec(kind, (1, 101) if COMPARATOR_KINDS[kind][0] else (1,))
        stream = random_iid_instance(3, 200, 1)
        harness._comparator_loss(spec, stream, False)
        harness._masked_comparator_loss(spec, stream, np.arange(200) % 2 == 0)
        assert calls == ([100, 100, 50, 50] if spec.k == 2 else [200, 100])


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

    @pytest.mark.parametrize("mark", ["\u2028", "\u2029", "\x85"])
    def test_a_line_ends_at_a_newline_alone(self, mark, tmp_path, capsys):
        # JSON takes these marks unescaped inside a string, where
        # str.splitlines would break the line
        path = tmp_path / "s.jsonl"
        first = f'{{"p": [0.5, 0.5], "note": "a{mark}b"}}\n'
        path.write_text(first + '{"p": [1, 0]}\n', encoding="utf-8")
        assert main(["run", "--stream", str(path), "--learner", "bayes"]) == 0
        assert capsys.readouterr().err == ""
        np.testing.assert_array_equal(load_stream(str(path)).p, [[0.5, 0.5], [1.0, 0.0]])
        path.write_text(first + '{"p": [0.5]}\n', encoding="utf-8")
        with pytest.raises(StreamFormatError, match="^line 2: expected 2 experts, got 1$"):
            load_stream(str(path))

    def test_crlf_text_reads_as_lf_text_in_bulk(self):
        text = '{"p": [0.5, 1e-3]}\n\n  {"p":[1, 0]}\t\n{"p": [5e-324, 1.0]}\n'
        crlf = text.replace("\n", "\r\n")
        assert harness._bulk_rounds(crlf.split("\n")) is not None
        np.testing.assert_array_equal(read_stream_jsonl(crlf).p, read_stream_jsonl(text).p)
        with pytest.raises(StreamFormatError, match="^line 3: expected 2 experts, got 1$"):
            read_stream_jsonl('{"p": [0.5, 0.5]}\r\n\r\n{"p": [1]}\r\n')

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
        text = ('{"p": [0.5, 0.25], "note": "x"}\n{"dists": [[0.2, 0.8], [0.6, 0.4]], "x": 2}\n'
                '{"note": 1, "p": [1, 0.5]}\n')
        assert harness._bulk_rounds(text.splitlines()) is None
        np.testing.assert_array_equal(read_stream_jsonl(text).p,
                                      [[0.5, 0.25], [0.8, 0.4], [1.0, 0.5]])

    @pytest.mark.parametrize("text, error", [
        ('{"p": [true, 0.5]}', "line 2: non-numeric probability True"),
        ('{"p": ["0.5", 0.5]}', "line 2: non-numeric probability '0.5'"),
        ('{"dists": [[0.2, 0.8], [0.6, 0.4]], "x": true}',
         "line 2: full round needs 'dists' and integer 'x'"),
        ('{"dists": [[0.2, 0.8], [false, 0.4]], "x": 1}', "line 2: non-numeric probability False"),
        ('{"dists": [[0.2, 0.8], "ab"], "x": 1}',
         "line 2: malformed 'dists': each distribution must be a list covering symbol x=1"),
        ('{"p": [1' + "0" * 400 + ', 0.5]}', "line 2: stream probabilities must lie in [0, 1]"),
        ('{"dists": [[0.2, 0.8], [0.6, 0.4]], "x": 1, "p": [0.1, 0.1]}',
         "line 2: round has both 'p' and 'dists'"),
    ], ids=["bool-p", "string-p", "bool-x", "bool-dists", "string-dist", "huge-int",
            "p-and-dists"])
    def test_stream_values_must_be_json_numbers(self, tmp_path, capsys, text, error):
        path = tmp_path / "s.jsonl"
        path.write_text('{"p": [0.5, 0.5]}\n' + text + "\n")
        assert main(["run", "--stream", str(path), "--learner", "bayes"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

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

    @pytest.mark.parametrize("cell", ["0.2_5", "\u0660.\u0665", "\u00a00.5"],
                             ids=["underscore", "arabic-indic", "nbsp"])
    def test_csv_cells_take_no_underscore_or_non_ascii(self, tmp_path, capsys, cell):
        # float() reads these as 0.25 and 0.5; the same cell in JSONL exits 2
        path = tmp_path / "s.csv"
        path.write_text(f"p1,p2\n0.5,0.5\n0.5,{cell}\n", encoding="utf-8")
        assert main(["run", "--stream", str(path), "--learner", "bayes"]) == 2
        assert capsys.readouterr().err == (
            f"error: line 3: non-numeric probability: could not convert string to float: {cell!r}\n")

    def test_csv_cells_keep_spaces_signs_and_exponents(self):
        stream = read_stream_csv("p1,p2\n 0.5 ,+0.25\n1E-1,2.5e-1\n")
        np.testing.assert_array_equal(stream.p, [[0.5, 0.25], [0.1, 0.25]])

    @pytest.mark.parametrize("name, text, error", [
        ("s.jsonl", '{"p": [0.5, 0.5]}\n{"p": [0.2, 0.8]}\n{"p": [1.5, 0.2]}\n',
         "line 3: stream probabilities must lie in [0, 1]"),
        ("s.jsonl", '{"p": [0.5, 0.5]}\n\n{"p": [0.0, 0.0]}\n',
         "line 3: no expert has positive probability"),
        ("s.jsonl", '{"p": [0.5, 0.5]}\n\n{"p": [NaN, 0.5]}\n', "line 3: non-finite probability"),
        ("s.jsonl", '{"p": []}\n', "line 1: stream needs at least one expert"),
        ("s.jsonl", '\n{"p": []}\n{"p": []}\n', "line 2: stream needs at least one expert"),
        ("s.csv", "p1,p2\n0.5,0.5\n0.5,2\n", "line 3: stream probabilities must lie in [0, 1]"),
        ("s.csv", "p1,p2\n\n0.5,nan\n", "line 3: non-finite probability"),
        ("s.jsonl", "[0.5, 0.5]\n", "line 1: expected an object per line"),
        ("s.jsonl", '{"p": 0.5}\n', "line 1: 'p' must be a list"),
    ])
    def test_bad_values_name_their_source_line(self, tmp_path, capsys, name, text, error):
        path = tmp_path / name
        path.write_text(text)
        assert main(["run", "--stream", str(path), "--learner", "bayes"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

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
        soft, eg = artifact.summary["learners"]
        assert eg["regret"] > soft["regret"]

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

    def test_csv_structure(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg = ExperimentConfig(generator="theorem2:T=8", learners=("bayes",),
                               on_divergence="continue", out_csv=str(out))
        run_experiment(cfg).write()
        lines = out.read_text().strip().split("\n")
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
        assert math.isfinite(entry["regret"])

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

    @pytest.mark.parametrize("comparator", ["fixed-mixture", "shifting=251"])
    def test_solver_gap_takes_the_unit(self, comparator):
        gaps = {}
        for bits in (False, True):
            cfg = ExperimentConfig(generator="iid-mixture:N=5,T=500", seed=3,
                                   learners=("soft-bayes",), comparator=comparator, bits=bits)
            detail = run_experiment(cfg).summary["comparator"]
            gaps[bits] = [s["gap"] for s in detail.get("per_segment", [detail])]
        assert len(gaps[False]) == (2 if comparator.startswith("shifting") else 1)
        assert all(0.0 < g <= 1e-6 for g in gaps[False])
        assert gaps[True] == [g / math.log(2) for g in gaps[False]]

    def test_weight_snapshot_stride_for_many_experts(self, tmp_path):
        rng = np.random.default_rng(21)
        stream = ExpertStream(rng.uniform(0.01, 1.0, size=(2500, 20)))
        path = tmp_path / "wide.jsonl"
        write_stream_jsonl(stream, str(path))
        out = tmp_path / "trace.csv"
        cfg = ExperimentConfig(stream=str(path), learners=("bayes",),
                               on_divergence="continue", out_csv=str(out))
        run_experiment(cfg).write()
        lines = out.read_text().strip().split("\n")[1:]
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


def _reference_stride(stream):
    """Every round's weights up to 16 experts, every ceil(T/1000)-th above."""
    return 1 if stream.n_experts <= 16 else max(1, math.ceil(len(stream) / 1000))


def _strided(trace, every):
    """A trace that holds every round's weights, as a run at weight stride
    ``every`` keeps it: only the rows of rounds every, 2 every, ... and the
    last."""
    n = trace.rounds
    rows = [t - 1 for t in range(1, n + 1) if t % every == 0 or t == n]
    return LearnerTrace(trace.name, trace.predictions, trace.losses, trace.rates,
                        trace.weights[rows], trace.halted_at, every)


def _reference_csv_table(config, stream, traces):
    """The row-by-row CSV renderer the block renderer replaced, on traces
    that hold every round's weights."""
    width = max(t.weights.shape[1] if t.weights.size else 0 for t in traces)
    stride = _reference_stride(stream)
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


def _write_csv(path, bits, stream, traces):
    """The trace CSV as ``RunArtifact.write`` puts it in its file."""
    config = SimpleNamespace(bits=bits, out_csv=str(path), out_json=None)
    with np.errstate(invalid="ignore"):   # cumulative inf + -inf
        RunArtifact(config, stream, traces, {}).write()
    return path.read_bytes()


def _assert_same_csv(path, bits, stream, traces):
    """The CSV written from ``traces`` as a run keeps them, against the
    reference rendered from every round's weights."""
    got = _write_csv(path, bits, stream, [_strided(t, _reference_stride(stream))
                                          for t in traces])
    with np.errstate(invalid="ignore"):
        want = _reference_csv_table(SimpleNamespace(bits=bits), stream, traces).encode()
    if got != want:
        got_lines, want_lines = got.split(b"\n"), want.split(b"\n")
        bad = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
                   min(len(got_lines), len(want_lines)))
        pytest.fail(f"line {bad + 1}: {got_lines[bad:bad + 1]!r} != {want_lines[bad:bad + 1]!r}")


class TestCsvRenderer:
    """The written CSV against the row-by-row reference, byte for byte."""

    NAMES = ("soft-bayes", "meta:rates=1,0.5", 'say "hi"', "", "two\nlines")

    @pytest.fixture(autouse=True)
    def _csv_path(self, tmp_path):
        self.path = tmp_path / "trace.csv"

    def _check(self, T, n, bits, rounds=None, seed=0, names=NAMES):
        rng = np.random.default_rng(seed)
        rounds = rounds or [T] * len(names)
        traces = [_hand_trace(rng, name, r, n) for name, r in zip(names, rounds)]
        stream = ExpertStream(np.full((T, n), 0.5))
        _assert_same_csv(self.path, bits, stream, traces)

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

    def test_an_empty_first_trace_still_writes_the_header(self):
        self._check(40, 3, False, rounds=[0, 40], names=self.NAMES[:2])
        self._check(40, 3, False, rounds=[0], names=self.NAMES[:1])
        assert self.path.read_bytes() == b"learner,t,eta,prediction,loss,cum_loss\n"

    def test_narrower_weights_are_padded(self):
        rng = np.random.default_rng(3)
        traces = [_hand_trace(rng, "meta", 40, 2), _hand_trace(rng, "bayes", 40, 5),
                  LearnerTrace("none", np.ones(40), np.ones(40), np.ones(40),
                               np.empty((40, 0)))]
        stream = ExpertStream(np.full((40, 5), 0.5))
        _assert_same_csv(self.path, False, stream, traces)

    @pytest.mark.parametrize("bits", [False, True])
    def test_one_value_matches_the_reference(self, bits):
        for value in (None, *EDGE_VALUES, 3, -2.5, 1e300):
            got = harness._text_rows(np.array([[value]], dtype=float), bits)[0]
            assert got == _reference_fmt(value, bits)

    @staticmethod
    def _whole_block_rule(block, bits):
        """The block rule as first written: one ``repr`` of the whole
        block, its outer brackets cut, its ``", "`` separators made commas,
        every ``nan`` emptied, then split into rows at ``"],["``."""
        if np.any(bits):
            block = np.where(bits, block / math.log(2.0), block)
        text = repr(block.tolist())[2:-2]
        return text.replace(", ", ",").replace("nan", "").split("],[")

    @pytest.mark.parametrize("bits", [False, True, [False, True, True, False, True]])
    @pytest.mark.parametrize("with_nan", [False, True])
    def test_a_block_renders_as_the_whole_block_rule(self, bits, with_nan):
        edges = [math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2]
        rng = np.random.default_rng(int(with_nan))
        block = rng.choice(edges + [math.nan] * with_nan, size=(300, 5))
        block[0] = edges[:5]
        if with_nan:
            block[1, 2] = math.nan
        assert np.isnan(block).any() == with_nan
        bits = np.array(bits)
        assert harness._text_rows(block, bits) == self._whole_block_rule(block, bits)

    def test_no_render_returns_more_than_one_block(self, monkeypatch):
        rng = np.random.default_rng(4)
        rounds = [3 * BLOCK_ROWS + 5, BLOCK_ROWS, 1]
        traces = [_hand_trace(rng, name, r, 4) for name, r in zip(self.NAMES, rounds)]
        stream = ExpertStream(np.full((rounds[0], 4), 0.5))
        blocks = []
        render = harness._csv_table

        def record(*args):
            blocks.append(render(*args))
            return blocks[-1]

        monkeypatch.setattr(harness, "_csv_table", record)
        written = _write_csv(self.path, False, stream, traces)
        assert written == "".join(blocks).encode()
        # the header, then each learner's rounds in blocks of BLOCK_ROWS
        sizes = [len(list(csv.reader(io.StringIO(b)))) for b in blocks]
        assert sizes == [1 + BLOCK_ROWS] + [BLOCK_ROWS] * 2 + [5, BLOCK_ROWS, 1]

    def test_write_holds_one_block_at_a_time(self):
        # 3 learners over N = 10 and T = 20000 make a CSV of about 15 MB; a
        # write that held it whole would peak at twice that or more
        rng = np.random.default_rng(5)
        T, n = 20_000, 10
        traces = [LearnerTrace(name, rng.random(T), rng.random(T), rng.random(T),
                               rng.dirichlet(np.ones(n), T))
                  for name in ("soft-bayes", "eg:fixed=0.5", "ml-soft-bayes")]
        stream = ExpertStream(np.full((T, n), 0.5))
        config = SimpleNamespace(bits=False, out_csv=str(self.path), out_json=None)
        artifact = RunArtifact(config, stream, traces, {})
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            artifact.write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert self.path.stat().st_size > 10_000_000
        assert peak - entry < 2_000_000


class TestStats:
    def test_ratio_stats_and_best_count(self):
        rng = np.random.default_rng(15)
        stream = ExpertStream(rng.uniform(0.1, 1.0, size=(50, 3)))
        from softbayes.rates import AnytimeRate

        trace = run_learner(SoftBayes(3, AnytimeRate(3)), stream)
        stats = ratio_stats(trace, stream)
        ratios = stream.p / trace.predictions[:, None]
        assert stats["c1"] == pytest.approx(float((ratios - 1).max(axis=1).sum()))
        assert stats["c2"] == pytest.approx(float(((ratios - 1) ** 2).max()))
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
        # the count under test replaces its default, since a key given twice is refused
        argv = ["bound", "--variant", "thm5"]
        for item in ("T=10", "N=2"):
            if item[0] != param[0]:
                argv += ["-p", item]
        argv += ["-p", param]
        assert main(argv) == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("params, error", [
        (["T=abc"], "parameter T must be a number, got 'abc'"),
        (["T="], "parameter T must be a number, got ''"),
        (["=5"], "malformed parameter '=5', expected key=value"),
        ([" =5"], "malformed parameter ' =5', expected key=value"),
        (["T=10", "T=20"], "parameter T is given twice"),
        (["T=10", " T =20"], "parameter T is given twice"),
    ], ids=["word", "empty-value", "empty-key", "blank-key", "repeated", "repeated-padded"])
    def test_bound_names_the_parameter_it_cannot_read(self, capsys, params, error):
        argv = ["bound", "--variant", "thm5", "-p", "N=2"]
        for param in params:
            argv += ["-p", param]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {error}\n"

    @pytest.mark.parametrize("variant, params, message", [
        ("thm7", ["T=10", "N=1", "K=1"], "needs N >= 2, got 1"),
        ("thm5", ["T=10", "N=1"], "needs N >= 2, got 1"),
        ("thm2", ["T=10", "N=3", "m=0", "eta=0.5"], "needs m >= 1, got 0"),
        ("thm6", ["T=10", "N=3", "m=0"], "needs m >= 1, got 0"),
        ("thm2", ["T=10", "N=3", "m=7", "eta=0.5"], "needs m <= N, got m=7 with N=3"),
        ("thm5", ["T=0", "N=3"], "needs T >= 1, got 0"),
        ("thm7", ["T=10", "N=3", "K=0"], "needs K >= 1, got 0"),
        ("thm7", ["T=10", "N=2", "K=11"], "needs K <= T, got K=11 with T=10"),
        ("thm4", ["T=10", "N=2", "eta=0", "c1=5"], "needs 0 < eta < 1, got 0.0"),
        ("thm4", ["T=10", "N=2", "eta=-1", "c1=5"], "needs 0 < eta < 1, got -1.0"),
        ("thm4", ["T=10", "N=2", "eta=nan", "c1=5"], "needs 0 < eta < 1, got nan"),
        ("thm4", ["T=10", "N=2", "eta=5", "c1=5"], "needs 0 < eta < 1, got 5.0"),
        ("thm4", ["T=10", "N=2", "eta=0.5", "c1=-5"], "needs c1 >= 0, got -5.0"),
        ("thm4", ["T=10", "N=2", "eta=0.5", "c1=nan"], "needs c1 >= 0, got nan"),
        ("thm4_tuned", ["T=10", "N=2", "c1=-5"], "needs c1 >= 0, got -5.0"),
        ("thm3_max", ["T=10", "N=2", "eta=0.5", "c2=-1"], "needs c2 >= 0, got -1.0"),
        ("thm3_tuned", ["T=10", "N=2", "c2=-3"], "needs c2 >= 0, got -3.0"),
        ("thm3_cumulative", ["N=2", "eta=0.5", "vmax=-100"], "needs vmax >= 0, got -100.0"),
        ("thm2", ["T=10", "N=2", "m=1", "eta=0"], "needs 0 < eta < 1, got 0.0"),
        ("thm2", ["T=10", "N=2", "m=1", "eta=1"], "needs 0 < eta < 1, got 1.0"),
        ("thm3_cumulative", ["N=2", "eta=0", "vmax=1"], "needs 0 < eta < 1, got 0.0"),
        ("thm3_max", ["T=10", "N=2", "eta=nan", "c2=1"], "needs 0 < eta < 1, got nan"),
        ("single-expert", ["eta=0", "prior_entry=0.5"], "needs 0 < eta <= 1, got 0.0"),
        ("single-expert", ["eta=1.5", "prior_entry=0.5"], "needs 0 < eta <= 1, got 1.5"),
        ("single-expert", ["eta=1", "prior_entry=0"], "needs 0 < prior_entry <= 1, got 0.0"),
        ("single-expert", ["eta=1", "prior_entry=2"], "needs 0 < prior_entry <= 1, got 2.0"),
        ("single_expert", ["eta=0", "prior_entry=0.5"], "needs 0 < eta <= 1, got 0.0"),
        ("single_expert", ["eta=1", "prior_entry=2"], "needs 0 < prior_entry <= 1, got 2.0"),
        ("thm7", ["T=1", "N=2", "K=1"], "needs T >= 2, got 1"),
    ])
    def test_bound_rejects_counts_outside_its_domain(self, capsys, variant, params, message):
        argv = ["bound", "--variant", variant]
        for param in params:
            argv += ["-p", param]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: bound {variant!r} {message}\n"

    @pytest.mark.parametrize("variant, params", [
        ("thm3_cumulative", ["N=2", "eta=0.5", "vmax=inf"]),
        ("thm4", ["T=10", "N=2", "eta=0.5", "c1=inf"]),
    ])
    def test_bound_takes_an_infinite_constant(self, capsys, variant, params):
        # a run's self-confident statistics can be inf, and the bound with them
        argv = ["bound", "--variant", variant]
        for param in params:
            argv += ["-p", param]
        assert main(argv) == 0
        assert capsys.readouterr().out == "inf\n"

    @pytest.mark.parametrize("argv", [
        ["run", "--generator", "iid-mixture:N=2,T=5", "--learner", "bayes"],
        ["gen", "--generator", "iid-mixture:N=2,T=5", "--out", "s.jsonl"],
        ["verify"],
        # theorem2 reads no seed, so gen refuses it before the generator can
        ["gen", "--generator", "theorem2:T=10", "--out", "s.jsonl"],
    ])
    def test_negative_seed_names_itself(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--seed", "-1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: seed must be a non-negative integer, got -1\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("from_config", [False, True])
    def test_negative_seed_is_refused_where_no_generator_reads_it(self, tmp_path, monkeypatch,
                                                                   capsys, from_config):
        # theorem2 takes no seed, so only the config can refuse it
        monkeypatch.chdir(tmp_path)
        if from_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"generator": "theorem2:T=4", "learners": ["soft-bayes"],
                                       "seed": -1, "out_json": "s.json"}))
            argv = ["run", "--config", str(cfg)]
        else:
            argv = ["run", "--generator", "theorem2:T=4", "--seed", "-1",
                    "--learner", "soft-bayes", "--out-json", "s.json"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("command, generator, key", [
        ("gen", "theorem2:T=10.5", "T"),
        ("gen", "iid-mixture:N=2.7,T=100", "N"),
        ("gen", "iid-mixture:N=3,T=100,alphabet=4.5", "alphabet"),
        ("run", "theorem2:T=1e400", "T"),
        ("run", "disjoint-dirac:N=3,T=-1e400", "T"),
    ])
    def test_generator_rejects_non_integral_parameters(self, tmp_path, capsys,
                                                       command, generator, key):
        argv = [command, "--generator", generator, "--seed", "1"]
        argv += (["--out", str(tmp_path / "s.jsonl")] if command == "gen"
                 else ["--learner", "bayes"])
        assert main(argv) == 2
        kind = generator.partition(":")[0].replace("-", "_")
        assert f"generator '{kind}' parameter {key} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "s.jsonl").exists()

    @pytest.mark.parametrize("command, generator, key", [
        ("gen", "iid-mixture:N=3,T=5,alphabt=7", "alphabt"),
        ("run", "theorem2:T=4,N=9,foo=1", "N"),
    ])
    def test_generator_rejects_unknown_parameters(self, tmp_path, capsys,
                                                  command, generator, key):
        argv = [command, "--generator", generator, "--seed", "1"]
        argv += (["--out", str(tmp_path / "s.jsonl")] if command == "gen"
                 else ["--learner", "bayes"])
        assert main(argv) == 2
        kind = generator.partition(":")[0].replace("-", "_")
        assert f"generator '{kind}' has no parameter '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "s.jsonl").exists()

    def test_generator_takes_integral_float_text(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        assert main(["gen", "--generator", "theorem2:T=1e4", "--out", str(out)]) == 0
        assert "wrote 10000 rounds" in capsys.readouterr().out

    def test_integral_float_text_echoes_as_the_integer(self, tmp_path):
        summaries = []
        for spelling in ("T=1e1", "T=10"):
            out = tmp_path / f"{spelling}.json"
            assert main(["run", "--generator", f"theorem2:{spelling}", "--learner", "bayes",
                         "--out-json", str(out)]) == 0
            summaries.append(out.read_bytes())
        assert summaries[0] == summaries[1]
        assert json.loads(summaries[0])["config"]["generator"] == "theorem2:T=10"

    def test_bound_single_expert(self, capsys):
        assert main(["bound", "--variant", "single-expert",
                     "-p", "eta=1", "-p", "prior_entry=0.125"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.log(8), abs=1e-12)
        # "-" and "_" are one character in every variant's name
        for variant in ("single-expert", "single_expert"):
            assert main(["bound", "--variant", variant,
                         "-p", "eta=0.5", "-p", "prior_entry=0.25"]) == 0
            assert capsys.readouterr().out == "2.772588722239781\n"

    def test_bound_names_take_either_separator(self, tmp_path, capsys):
        # "-" and "_" are one character in a run's bound names too, on the
        # command line and in a config file, and the run records the key
        outs = []
        for spelling in ("single-expert", "single_expert"):
            common = ["--generator", "theorem2:T=20", "--learner", "soft-bayes:fixed=0.5",
                      "--comparator", "single-best"]
            cfg = tmp_path / f"{spelling}.json"
            cfg.write_text(json.dumps({"generator": "theorem2:T=20",
                                       "learners": ["soft-bayes:fixed=0.5"],
                                       "comparator": "single-best", "bounds": [spelling]}))
            for argv in (["run", *common, "--bound", spelling], ["run", "--config", str(cfg)]):
                out = tmp_path / "summary.json"
                assert main([*argv, "--out-json", str(out)]) == 0
                outs.append((capsys.readouterr().out, out.read_bytes()))
        assert all(o == outs[0] for o in outs)
        assert "  bound single-expert: " in outs[0][0]
        summary = json.loads(outs[0][1])
        assert summary["config"]["bounds"] == ["single-expert"]
        assert summary["learners"][0]["bounds"][0]["variant"] == "single-expert"

    @pytest.mark.parametrize("entry", [[1], {"a": 1}, 5, None, "thm_9"])
    def test_config_file_bound_that_names_none_exits_2(self, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generator": "theorem2:T=8", "learners": ["bayes"],
                                   "bounds": [entry]}))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: unknown bound {entry!r}; known: thm2, thm3, thm4, thm5, "
                       "thm6, thm7, single-expert\n")

    def test_self_confident_bounds_where_every_expert_agrees(self, tmp_path, capsys):
        # M = sum_i w_i p can round a hair above p, so a round's
        # max_i p_i/M - 1 reads below 0; C1 sums those maxima clamped at 0
        path = tmp_path / "agree.jsonl"
        path.write_text('{"p": [0.1, 0.1, 0.1, 0.1, 0.1]}\n' * 5)
        argv = ["run", "--stream", str(path), "--bound", "thm3", "--bound", "thm4"]
        for selector in ("soft-bayes:anytime", "soft-bayes:fixed=0.5", "eg:fixed=0.5",
                         "ogd:fixed=0.1"):
            argv += ["--learner", selector]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("  bound thm4: 0.0 -> pass") == 4
        assert out.count("  bound thm3: ") == 4 and "FAIL" not in out
        artifact = run_experiment(ExperimentConfig(stream=str(path), learners=("eg:fixed=0.5",)))
        assert ratio_stats(artifact.traces[0], artifact.stream)["c1"] == 0.0

    def test_bounds_where_every_round_diverges(self, tmp_path, capsys):
        # a prior on the expert that always gives 0: continue mode excludes
        # every round, so C1 and C2 come from no round and thm4's tuned form
        # takes its C1 <= 0 branch
        path = tmp_path / "zero.jsonl"
        path.write_text('{"p": [0.0, 1.0]}\n' * 3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "stream": str(path), "on_divergence": "continue", "bounds": ["thm3", "thm4"],
            "learners": [{"spec": "bayes", "prior": [1.0, 0.0]},
                         {"spec": "soft-bayes:fixed=0.5", "prior": [1.0, 0.0]}]}))
        assert main(["run", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == (
            "bayes: loss=0.0 regret=0.0 [diverged]\n"
            "  bound thm3: 0.6931471805599453 -> pass "
            "(tuned form (constant rate 1.0 outside (0, 1)))\n"
            "  bound thm4: 0.0 -> pass (tuned form (constant rate 1.0 outside (0, 1)))\n"
            "soft-bayes:fixed=0.5: loss=0.0 regret=0.0 [diverged]\n"
            "  bound thm3: 1.3862943611198906 -> pass\n"
            "  bound thm4: 0.0 -> pass\n")

    @pytest.mark.parametrize("selector, error", [
        ("soft-bayes:anytime", "anytime schedule needs N >= 2"),
        ("soft-bayes:sparse", "sparse schedule needs N >= 2"),
        ("soft-bayes:shifting", "shifting schedule needs N >= 2"),
        ("soft-bayes:self-confident", "self-confident schedule needs N >= 2"),
        ("ml-soft-bayes", "ml-soft-bayes needs N >= 2"),
    ])
    def test_one_expert_stream_refused_where_a_rate_needs_two(self, tmp_path, capsys,
                                                               selector, error):
        path = tmp_path / "s.jsonl"
        path.write_text('{"p": [0.5]}\n{"p": [1.0]}\n')
        assert main(["run", "--stream", str(path), "--learner", selector]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize("name, text, error", [
        ("s.csv", "p1,p2\n", "CSV stream needs a header row plus at least one round"),
        ("cfg.json", "[]", "config file must hold a JSON object"),
        ("cfg.json", '{"generator": "theorem2:T=8", "learners": ["bayes"], '
                     '"on_divergence": "stop"}', "unknown divergence policy 'stop'"),
        ("cfg.json", '{"generator": "theorem2:T=8", "learners": [1]}',
         "learner entries must be selector strings or {'spec': ..., 'prior': [...]} objects"),
    ], ids=["header-only-csv", "config-list", "config-policy", "config-learner-number"])
    def test_run_input_refused_in_one_line(self, tmp_path, capsys, name, text, error):
        path = tmp_path / name
        path.write_text(text)
        source = ["--config", str(path)] if name.endswith(".json") else [
            "--stream", str(path), "--learner", "bayes"]
        assert main(["run", *source]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

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

    def test_nothing_renders_unless_a_csv_is_written(self, tmp_path, capsys, monkeypatch):
        common = ["--generator", "theorem2:T=8", "--learner", "soft-bayes:anytime",
                  "--learner", "eg:fixed=0.5", "--on-divergence", "continue"]
        # run writes its summary JSON but no CSV
        argvs = [["compare", *common],
                 ["run", *common, "--out-json", str(tmp_path / "summary.json")]]
        expected = []
        for argv in argvs:
            assert main(argv) == 0
            expected.append(capsys.readouterr().out)

        def no_render(*args):
            raise AssertionError("the trace CSV was rendered")

        monkeypatch.setattr(harness, "_csv_table", no_render)
        for argv, out in zip(argvs, expected):
            assert main(argv) == 0
            assert capsys.readouterr().out == out

    def test_compare_writes_the_csv_a_config_file_names(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "generator": "theorem2:T=8", "on_divergence": "continue",
            "learners": ["soft-bayes:anytime", "eg:fixed=0.5"],
            "out_csv": str(tmp_path / "compare.csv"),
        }))
        assert main(["compare", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg), "--out-csv", str(tmp_path / "run.csv")]) == 0
        capsys.readouterr()
        written = (tmp_path / "compare.csv").read_bytes()
        assert written.startswith(b"learner,t,eta,")
        assert written == (tmp_path / "run.csv").read_bytes()

    def test_compare_writes_the_strided_csv_a_config_file_names(self, tmp_path, capsys):
        # 20 experts over 2011 rounds: weights every 3rd round and on the
        # last, 2011, off the stride; Bayes on expert 1 alone halts on round
        # 1000, where that expert reads 0, off the stride too
        p = parse_generator("iid-mixture:N=20,T=2011").build(4).p.copy()
        p[999, 0] = 0.0
        write_stream_jsonl(ExpertStream(p), str(tmp_path / "s.jsonl"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "stream": str(tmp_path / "s.jsonl"), "on_divergence": "halt",
            "learners": ["soft-bayes:anytime", {"spec": "bayes", "prior": [1] + [0] * 19},
                         "eg:fixed=0.5", "meta:rates=1,0.5"],
            "out_csv": str(tmp_path / "compare.csv"), "out_json": str(tmp_path / "s.json"),
        }))
        assert main(["compare", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg), "--out-csv", str(tmp_path / "run.csv")]) == 0
        capsys.readouterr()
        halted = [entry["halted_at"] for entry in json.loads((tmp_path / "s.json").read_text())[
            "learners"]]
        assert halted == [None, 1000, None, None]
        written = (tmp_path / "compare.csv").read_bytes()
        weights = [row[6:] for row in csv.reader(io.StringIO(written.decode()))][1:]
        assert [t for t, row in enumerate(weights[:2011], 1) if any(row)] == [
            *range(3, 2011, 3), 2011]
        assert written == (tmp_path / "run.csv").read_bytes()

    @pytest.mark.parametrize("generator, T, stride", [
        ("theorem2:T=8", 8, 1), ("iid-mixture:N=20,T=2011", 2011, 3)])
    def test_a_csv_named_after_the_run_is_refused(self, tmp_path, generator, T, stride):
        # a run that named no CSV kept only its last weight row; printing it
        # at the CSV's stride would put that row under the wrong rounds
        artifact = run_experiment(ExperimentConfig(generator=generator, seed=4,
                                                   learners=("soft-bayes:anytime",)))
        assert artifact.traces[0].weight_rounds.tolist() == [T]
        artifact.config.out_csv = str(tmp_path / "late.csv")
        with pytest.raises(ValueError) as refused:
            artifact.write()
        assert str(refused.value) == (f"trace 'soft-bayes:anytime' keeps its weights at stride "
                                      f"{T}, but the CSV prints them at stride {stride}")

    def test_a_refused_csv_leaves_the_files_it_names_as_they_were(self, tmp_path):
        artifact = run_experiment(ExperimentConfig(generator="theorem2:T=8", seed=4,
                                                   learners=("bayes",)))
        csv_path, json_path = tmp_path / "prior.csv", tmp_path / "prior.json"
        csv_path.write_bytes(b"learner,t\nkept,1\n")
        json_path.write_bytes(b'{"kept": true}\n')
        artifact.config.out_csv, artifact.config.out_json = str(csv_path), str(json_path)
        with pytest.raises(ValueError, match="keeps its weights at stride 8"):
            artifact.write()
        assert csv_path.read_bytes() == b"learner,t\nkept,1\n"
        assert json_path.read_bytes() == b'{"kept": true}\n'

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

    def test_config_file_null_prior_is_the_plain_selector(self, tmp_path, capsys):
        outs = []
        for entry in ("eg:fixed=0.5", {"spec": "eg:fixed=0.5", "prior": None}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"generator": "theorem2:T=8", "learners": [entry]}))
            assert main(["run", "--config", str(cfg)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("selector", EDGE_SELECTORS)
    def test_config_file_prior_of_the_wrong_length_exits_2(self, tmp_path, capsys, selector):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "generator": "theorem2:T=10",
            "learners": [{"spec": selector, "prior": [0.2, 0.3, 0.5]}],
        }))
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: prior has 3 entries, expected one for each of 2 experts\n")

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

"""Every selector family reads a name by one rule, ``core.read_name`` (any
case, ``-`` and ``_`` one character), and every count by one rule,
``core.read_count`` (any integral spelling, digit strings exactly; from
Python, an integer that is no bool or an integral real number).  A spelling
either rule takes gives the canonical spelling's bytes."""

import json

import numpy as np
import pytest

from softbayes.cli import main
from softbayes.comparators import theoretical_bound
from softbayes.core import read_count, read_name
from softbayes.generators import GeneratorSpec, rng_from_seed
from softbayes.harness import ComparatorSpec, ExperimentConfig

LEARNER = ["run", "--generator", "theorem2:T=20", "--learner", "{}"]
RUN = LEARNER[:-1] + ["soft-bayes:anytime"]

# family -> (argv with {} for the name, the name as its table keys it, other
# spellings of it); a dict is a config file for `run --config`
NAMES = {
    "learner": (LEARNER, "soft-bayes:anytime",
                ["soft_bayes:anytime", "SOFT-BAYES:anytime", "Soft_Bayes:anytime"]),
    "learner-ml": (LEARNER, "ml-soft-bayes", ["ML_SOFT_BAYES", "ml_soft-bayes"]),
    "keyword": (LEARNER, "eg:fixed=0.5", ["EG:Fixed=0.5", "eg:FIXED=0.5"]),
    "schedule": (LEARNER, "soft-bayes:self-confident",
                 ["soft-bayes:self_confident", "soft-bayes:Self_Confident"]),
    "schedule-param": (LEARNER, "soft-bayes:inverse-t=2", ["soft-bayes:INVERSE_T=2"]),
    "comparator": (RUN + ["--comparator", "{}"], "fixed-mixture",
                   ["fixed_mixture", "FIXED-MIXTURE"]),
    "comparator-vertex": (RUN + ["--comparator", "{}"], "single-best",
                          ["Single-Best", "single_best"]),
    "comparator-shifting": (RUN + ["--comparator", "{}"], "shifting=11", ["Shifting=11"]),
    "generator": (["run", "--generator", "{}", "--seed", "1", "--learner", "bayes"],
                  "iid-mixture:N=2,T=5", ["IID-MIXTURE:N=2,T=5", "iid_mixture:N=2,T=5"]),
    "generator-constant": (["run", "--generator", "{}", "--learner", "bayes"],
                           "theorem2-constant:T=4", ["Theorem2_Constant:T=4"]),
    "bound": (RUN + ["--bound", "{}"], "thm5", ["THM5", "Thm5"]),
    "bound-single-expert": (LEARNER[:-1] + ["bayes", "--bound", "{}"], "single-expert",
                            ["single_expert", "SINGLE_EXPERT"]),
    "config-bounds": ({"generator": "theorem2:T=20", "learners": ["bayes"],
                       "bounds": ["{}"]}, "single-expert", ["Single_Expert", "single_EXPERT"]),
    "variant": (["bound", "--variant", "{}", "-p", "T=10", "-p", "N=2"], "thm5", ["THM5"]),
    "variant-tuned": (["bound", "--variant", "{}", "-p", "T=10", "-p", "N=2"],
                      "thm2_tuned_n", ["thm2-tuned-n", "THM2-TUNED-N"]),
}

# site -> argv with {} for a count of 10 (the other counts fit it)
COUNTS = {
    "seed": ["run", "--generator", "iid-mixture:N=2,T=5", "--learner", "bayes", "--seed", "{}"],
    "samples": ["verify", "--samples", "{}"],
    "generator": ["run", "--generator", "theorem2:T={}", "--learner", "bayes"],
    "shifting": RUN + ["--comparator", "shifting={}"],
    "bound-T": ["bound", "--variant", "thm7", "-p", "T={}", "-p", "N=20", "-p", "K=2"],
    "bound-N": ["bound", "--variant", "thm5", "-p", "T=100", "-p", "N={}"],
    "bound-m": ["bound", "--variant", "thm6", "-p", "T=100", "-p", "N=20", "-p", "m={}"],
    "bound-K": ["bound", "--variant", "thm7", "-p", "T=100", "-p", "N=20", "-p", "K={}"],
}


def refusal(site, text, number):
    """The last stderr line of ``site`` for a text that is no count, where
    ``number`` is the float ``read_number`` reads from the text, or None."""
    if site == "seed":
        return f"softbayes run: error: argument --seed: invalid int value: {text!r}"
    if site == "samples":
        return f"softbayes verify: error: argument --samples: invalid int value: {text!r}"
    if site == "shifting":
        return f"error: bad shifting boundaries {text!r}"
    if site == "generator":
        shown = text if number is None else number
        return f"error: generator 'theorem2' parameter T must be an integer, got {shown!r}"
    key = site[-1]
    if number is None:
        return f"error: parameter {key} must be a number, got {text!r}"
    return f"error: parameter {key} must be an integer, got {number!r}"


def outputs(argv, tmp_path, monkeypatch, capsys):
    """Exit code, stdout and the summary JSON (``run`` only) of one call."""
    monkeypatch.chdir(tmp_path)
    if isinstance(argv, dict):
        (tmp_path / "config.json").write_text(json.dumps(argv))
        argv = ["run", "--config", "config.json"]
    if argv[0] == "run":
        argv = [*argv, "--out-json", "summary.json"]
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse's own errors
        code = exc.code
    out = capsys.readouterr()
    summary = tmp_path / "summary.json"
    data = summary.read_bytes() if summary.exists() else b""
    summary.unlink(missing_ok=True)
    return code, out.out, out.err, data


def spelled(template, text):
    if isinstance(template, dict):
        return json.loads(json.dumps(template).replace("{}", text))
    return [a.replace("{}", text) for a in template]


@pytest.mark.parametrize("family", sorted(NAMES))
def test_every_spelling_of_a_name_gives_the_canonical_bytes(family, tmp_path, monkeypatch,
                                                            capsys):
    template, canonical, others = NAMES[family]
    want = outputs(spelled(template, canonical), tmp_path, monkeypatch, capsys)
    # exit 1 is a failed bound check, which still writes the summary
    assert want[0] in (0, 1) and want[2] == ""
    assert want[3] or template[0] == "bound"
    for other in others:
        assert outputs(spelled(template, other), tmp_path, monkeypatch, capsys) == want, other


@pytest.mark.parametrize("site", sorted(COUNTS))
def test_every_integral_spelling_of_a_count_reads_as_it(site, tmp_path, monkeypatch, capsys):
    want = outputs(spelled(COUNTS[site], "10"), tmp_path, monkeypatch, capsys)
    assert want[0] == 0 and want[2] == ""
    for other in ("1e1", "1E1", "10.0", "+10", " 10 "):
        assert outputs(spelled(COUNTS[site], other), tmp_path, monkeypatch, capsys) == want, other


@pytest.mark.parametrize("value, number", [("10.5", 10.5), ("1e400", float("inf")),
                                           ("1_0", None), ("٥", None)])
@pytest.mark.parametrize("site", sorted(COUNTS))
def test_a_text_that_is_no_count_keeps_its_site_message(site, value, number, tmp_path,
                                                        monkeypatch, capsys):
    code, out, err, data = outputs(spelled(COUNTS[site], value), tmp_path, monkeypatch, capsys)
    assert code == 2 and out == "" and data == b""
    assert err.splitlines()[-1] == refusal(site, value, number)


# site -> (what it reads from a count handed in from Python, values it refuses)
PYTHON_COUNTS = {
    "comparator-boundary": (lambda v: ComparatorSpec("shifting", (1, v)).boundaries, [10.7]),
    "rng-seed": (lambda v: rng_from_seed(v).random(), [1.9]),
    "config-seed": (lambda v: ExperimentConfig(generator="theorem2:T=4", learners=["bayes"],
                                               seed=v).seed, [1.5]),
    "generator": (lambda v: GeneratorSpec("theorem2", {"T": v}).params, []),
    "bound-T": (lambda v: theoretical_bound("thm5", T=v, N=2), []),
    "bound-N": (lambda v: theoretical_bound("thm5", T=10, N=v), [2.5]),
}


@pytest.mark.parametrize("site", sorted(PYTHON_COUNTS))
def test_a_count_from_python_follows_the_count_rule(site):
    read, refused = PYTHON_COUNTS[site]
    want = read(10)
    for value in (10.0, np.int64(10), np.float64(10.0)):
        got = read(value)
        assert got == want and type(got) is type(want), value
    for value in [*refused, 10.5, np.float64(10.5), True]:
        with pytest.raises(ValueError) as exc:
            read(value)
        assert str(value) in str(exc.value), value


def test_read_count_reads_digit_strings_exactly():
    assert read_count("12345678901234567891") == 12345678901234567891
    assert read_count("1e4") == 10_000 and read_count("-2") == -2
    for text in ("10.5", "1e400", "-1e400", "nan", "inf", "1_0", "٥", "", "0x10"):
        with pytest.raises(ValueError):
            read_count(text)


def test_read_name_ignores_case_and_reads_dash_and_underscore_alike():
    names = {"soft-bayes": 1, "thm2_tuned_n": 2}
    assert read_name(" SOFT_bayes ", names) == "soft-bayes"
    assert read_name("Thm2-Tuned_N", names) == "thm2_tuned_n"
    assert read_name("softbayes", names) is None
    assert read_name("soft-bayes:anytime", names) is None

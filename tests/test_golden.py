"""Golden-byte pins for what the CLI emits.

Each ``run`` case pins the exit code and the sha256 and byte length of
stdout, the CSV trace and the JSON summary; one ``compare`` case and one
``verify`` case pin their stdout; malformed selectors and comparators pin the exit code and the exact
stderr line.  A refactor of the learners, schedules, comparators or bound
tables must leave every one of these unchanged.

The digests were recorded with Python 3.11.7 and numpy 2.4.6.  Floats are
rendered with ``repr``, so a numpy build whose kernels round differently
(another BLAS dot, say) may legitimately move them.  The BLAS thread count
must not move them: the comparator solve uses no BLAS matrix product and no
LAPACK factorization, and ``tests/test_comparators.py`` holds its bits equal
at one and two OpenBLAS threads.
"""

import functools
import hashlib

import pytest

from softbayes.cli import main
from softbayes.generators import parse_generator
from softbayes.harness import parse_learner
from softbayes.learners import run_learner

ALL_LEARNERS = (
    "soft-bayes:anytime",
    "soft-bayes:sparse",
    "soft-bayes:shifting",
    "soft-bayes:self-confident",
    "soft-bayes:fixed=0.3",
    "soft-bayes:inverse-t=2",
    "bayes",
    "eg:fixed=0.5",
    "ogd:fixed=0.1",
    "ml-soft-bayes",
    "meta:rates=1,0.5,0.25",
)


def _learners(names):
    return [arg for name in names for arg in ("--learner", name)]


def _bounds(names):
    return [arg for name in names for arg in ("--bound", name)]


ALL_BOUNDS = ("thm2", "thm3", "thm4", "thm5", "thm6", "thm7", "single-expert")

# one learner per kind, on a stream where EG, OGD and Bayes diverge
THEOREM2_200 = ["--generator", "theorem2:T=200",
                *_learners(("soft-bayes", "eg:fixed=0.5", "ogd:fixed=0.1",
                            "ml-soft-bayes", "meta:rates=1,0.5,0.25", "bayes"))]

# name -> (argv after "run", exit code, {artifact: (bytes, sha256)})
RUNS = {
    "theorem2-continue": (
        ["--generator", "theorem2:T=300", "--on-divergence", "continue",
         *_learners(ALL_LEARNERS), *_bounds(ALL_BOUNDS)],
        1,
        {
            "stdout": (4919, "5e9ce2d9228a673ef5b76e5b452c76aa21b2d361a7b6919f62891cb32c82df1c"),
            "csv": (373796, "d12b1afa0b8ee4aae5341998eec95b5ff6562f6e5b015e4d3f39fa908c024432"),
            "json": (14720, "ef51cb0f74b4193b87b0546f54dcf229e5a0586bbcbc2d84b911092d4f6152cc"),
        },
    ),
    # N <= 16: the scalar update path, a weight snapshot every round
    "iid-n10-bits": (
        ["--generator", "iid-mixture:N=10,T=400", "--seed", "5", "--bits",
         *_learners(ALL_LEARNERS), *_bounds(("thm2", "thm4", "thm5"))],
        0,
        {
            "stdout": (2643, "4a33738d96fad79a1197119c42e82a66327466dcb718778a34071483e84738ef"),
            "csv": (1203773, "85bdfff17776f6e2bb6ae100403e76c5ac96cb7a958dc9c07771da20ce4578f6"),
            "json": (9010, "7f6527703c707af161e792f3a5d8feaff28cd3ea8211dd2247ae00f643f6701f"),
        },
    ),
    # N > 16: the numpy update path, a weight snapshot every third round
    "iid-n20-halt": (
        ["--generator", "iid-mixture:N=20,T=2500", "--seed", "7",
         "--on-divergence", "halt",
         *_learners(ALL_LEARNERS), *_bounds(("thm2", "thm4", "thm5"))],
        1,
        {
            "stdout": (2639, "630494716d55f2cc18cca25346c6e3c0d7ec8bc4eae02654c2e954e8aa0993e3"),
            "csv": (6093117, "e2fc7a6ff4b1160867502a7c611b982e5579c17abea3ad3ee6577a95cb016a31"),
            "json": (9302, "5389912184bb07087276f8675e3c222ba5420b9e5acf3acc1475969c8aca6195"),
        },
    ),
    # no comparator, divergence policy or unit flag: the config defaults apply
    "defaults": (
        ["--generator", "theorem2:T=120", *_learners(("soft-bayes", "bayes"))],
        0,
        {
            "stdout": (105, "23d08f7f9397bf0551a1ec3382f198019b43503f21c2eeb5c0f642afe1f6d8ea"),
            "csv": (18554, "f97883a8569bc7d6724df4efa6c1ae7a8127bbda143da524e98bbfea1466fef2"),
            "json": (1192, "bae6ae256ee8791b17bc9217726474a7252e7704aa716ab71d1ee5f758d6dd07"),
        },
    ),
    # continue mode refits each segment on a diverged learner's finite rounds
    "shifting-continue": (
        [*THEOREM2_200, "--comparator", "shifting=101,151", "--on-divergence", "continue",
         *_bounds(("thm7", "thm5"))],
        1,
        {
            "stdout": (932, "9d3dda66045506f8bd05631e9a1a13995531bad5a32152313785cb4ec4d1cf8e"),
            "csv": (109731, "adf87e33df60b0021f1572c66d9bcacf9f8d12e24dd2d1d4edee081b22d48fd5"),
            "json": (4357, "87cec5db362f6a56de7ef561b6ab9a782e880eef82c0f630a7870c089c299b4c"),
        },
    ),
    "shifting-halt": (
        [*THEOREM2_200, "--comparator", "shifting=101,151", "--on-divergence", "halt",
         *_bounds(("thm7", "thm5"))],
        1,
        {
            "stdout": (834, "5aad38a04e5a356cc5f2a0076337a807378bc6cbbbb492783bd73c0a01b913d2"),
            "csv": (97909, "805bdc1800443cf5895ad0c2ae73495bb3b3190efa375f30282d3ac74d25aa73"),
            "json": (4293, "2dcb5b4a979036ed157174442438822c8933fc684388782c49b4b69b93daf8cd"),
        },
    ),
    # a one-round middle segment
    "shifting-one-row-continue": (
        [*THEOREM2_200, "--comparator", "shifting=101,102", "--on-divergence", "continue",
         *_bounds(("thm7",))],
        1,
        {
            "stdout": (685, "45ba642738043ae84d751d6551149959878366f2e34e61719f883a2385cdf741"),
            "csv": (109731, "adf87e33df60b0021f1572c66d9bcacf9f8d12e24dd2d1d4edee081b22d48fd5"),
            "json": (3672, "29b869b3c75a98a07756549e2ade6301daf388cc9f1bf88fce5d02c225e51c05"),
        },
    ),
    "shifting-continue-bits": (
        [*THEOREM2_200, "--comparator", "shifting=51", "--on-divergence", "continue", "--bits",
         *_bounds(("thm7", "thm6"))],
        1,
        {
            "stdout": (873, "b82a101a86811b729e7a4a998ec6acbac40b3fea38ebca08a45080573f55719e"),
            "csv": (108045, "2f8efc851481065839e668db61b8bb74a1323a1d7df361e05efa22c824503c73"),
            "json": (4149, "1c662372f2cb2f000d4d98c3819a3b865c54e5d2a626d107a13bb1ad6fa92627"),
        },
    ),
    "single-best-continue": (
        [*THEOREM2_200, "--comparator", "single-best", "--on-divergence", "continue",
         *_bounds(("single-expert",))],
        0,
        {
            "stdout": (737, "f77dd18955a4a18e99e6d0233607e4b9f22bb741cae4274483ac540b933b783f"),
            "csv": (109731, "adf87e33df60b0021f1572c66d9bcacf9f8d12e24dd2d1d4edee081b22d48fd5"),
            "json": (3098, "0e86d2ca80c9ea7409d68ae9af363419db57174d236ba18b5db50808143bc555"),
        },
    ),
    # a trace long enough to span several CSV render blocks: a quoted name with
    # a comma, a NaN rate on every meta row, stride 10 with a last-round
    # snapshot off the stride, losses in bits
    "iid-n20-long-bits": (
        ["--generator", "iid-mixture:N=20,T=9001", "--seed", "3", "--bits",
         "--on-divergence", "continue",
         *_learners(("meta:rates=1,0.5", "ogd:fixed=0.1", "bayes", "eg:fixed=0.5"))],
        0,
        {
            "stdout": (268, "b778cd1ffc021cad4ae48f58d1e49f7e348259d5588c2337a5a1bb8854635e51"),
            "csv": (4240189, "dd4bb0080199a1eaa2e434edf8054afdcd379140e9976a0794121ea21edca941"),
            "json": (2349, "74cddcd2ff05010c9beefc1693f4e636e22d4ac85403e63a31dcc1941086e320"),
        },
    ),
    # every expert assigns 0 somewhere: the single best loses inf, and the
    # learners that diverge and halt have an undefined (inf - inf) regret
    "single-best-halt-bits": (
        [*THEOREM2_200, "--comparator", "single-best", "--bits",
         *_bounds(("single-expert", "thm2", "thm5"))],
        0,
        {
            "stdout": (1590, "98b9d0e35f03a6f187fbf4aaa086e5398933b7508789bff51dbd628d775047b7"),
            "csv": (96223, "b1ae3647ed5f65be605bb7cb4fd892d95c5bd81ca639d291a22308e4fd6f9610"),
            "json": (5126, "6c0cc7fc93d1727e44a6d89b35da3169f7e29c497608203e9f85367d7ecb8046"),
        },
    ),
}

COMPARE = (
    ["compare", "--generator", "iid-mixture:N=4,T=300", "--seed", "11",
     *_learners(("soft-bayes:anytime", "eg:fixed=0.5", "ogd:fixed=0.1",
                 "ml-soft-bayes", "meta:rates=1,0.5,0.25")),
     "--bound", "thm5"],
    0,
    (483, "2b13e2bd3c5fe9cfe4f57bde99a1bf13b5689f7eb558f789835b440424dfcfaa"),
)

VERIFY = (
    ["verify", "--samples", "2000"],
    0,
    (845, "ae06f27b3a197659fe4ae904fafcfaf4e78e92a87ffbcf5d8202821086348657"),
)

# (generator, seed, selector) -> sha256 of the continue-mode trace's
# predictions, losses, rates and weights bytes, at the benchmark's scale: the
# adversarial-compare learners on theorem2:T=20000, where meta's rate-1 row
# dies past round 10,000, and the e2e-csv learners on its iid stream
TRACE_DIGESTS = {
    ("theorem2:T=20000", 0, "soft-bayes:anytime"):
        "fc916c22686242b2fe2a0999c9385ab12a17b1df031bd4c2160c7bd691edd164",
    ("theorem2:T=20000", 0, "soft-bayes:sparse"):
        "0a79d516d222e5b2033de9bc5bcf317c232e408cbdb303324b3c003e902a7958",
    ("theorem2:T=20000", 0, "soft-bayes:shifting"):
        "9457e667d645e25b441cb33ed1045e4e98fb2dc4b3754947041c0675409dfdb7",
    ("theorem2:T=20000", 0, "soft-bayes:self-confident"):
        "2a5655b71d1a9f7e8c18645bfca8d45b054217b770832a12c385bbd0829aac3a",
    ("theorem2:T=20000", 0, "eg:fixed=0.5"):
        "41614c249c80863fce5d26d6470fa5207bef7802108fd8214fa6a0e433ed5af1",
    ("theorem2:T=20000", 0, "ogd:fixed=0.1"):
        "a6c306891c2ee6111d023f039ce07ec2057beb089a7f5e837d039ae96a3bd769",
    ("theorem2:T=20000", 0, "ml-soft-bayes"):
        "dc685615ec9cfa688811bac3e6e250409ff0cdab0ad4e0633160d29c268d0023",
    ("theorem2:T=20000", 0, "meta:rates=1,0.5,0.25"):
        "920074305acb9f5d8311124f25a1c990cec8e917e58c807b30721b3b428b9fb7",
    ("iid-mixture:N=10,T=20000", 6, "soft-bayes:anytime"):
        "af0bce428f17933eda5bb60026ad5b3dca87d5299b269eb841a02f41a171bea9",
    ("iid-mixture:N=10,T=20000", 6, "eg:fixed=0.5"):
        "0f8b7945284afc622c500e80c0f269936eec6151b06e630a65084313ecb16a5d",
    ("iid-mixture:N=10,T=20000", 6, "soft-bayes:self-confident"):
        "bb78544aa40d53353d6c730e586b0b59446bf7bd9e19deeec9a68fbe1eddf959",
}

# malformed selector -> the exact stderr line (every one exits with code 2)
BAD_SELECTORS = {
    "bayes:x": "error: bayes takes no schedule (it is soft-bayes at rate 1)",
    "eg": "error: eg needs a rate, e.g. eg:fixed=0.5",
    "eg:0.5": "error: eg takes only a fixed rate, e.g. eg:fixed=0.5",
    "eg:fixed=inf": "error: eg rate 'inf' must be finite",
    "meta": "error: meta needs sub-rates, e.g. meta:rates=1,0.5,0.25",
    "meta:rates=2": "error: meta rates must lie in (0, 1]",
    "meta:rates=a,b": "error: bad meta rates 'a,b'",
    "ml-soft-bayes:anytime": "error: ml-soft-bayes takes no schedule (rates are per-expert)",
    "mystery": ("error: unknown learner 'mystery'; "
                "known: soft-bayes, bayes, eg, ogd, ml-soft-bayes, meta"),
    "ogd:fixed=-1": "error: ogd rate must be positive",
    "ogd:fixed=inf": "error: ogd rate 'inf' must be finite",
    "soft-bayes:anytime=3": ("error: bad schedule in 'soft-bayes:anytime=3': "
                             "schedule 'anytime' takes no parameter"),
    "soft-bayes:fixed": ("error: bad schedule in 'soft-bayes:fixed': "
                         "schedule 'fixed' needs a parameter, e.g. fixed:0.5"),
    "soft-bayes:fixed=1.5": "error: fixed rate 1.5 outside (0, 1]",
    "soft-bayes:inverse-t=inf": "error: inverse-t offset inf must be positive and finite",
    "soft-bayes:self-confident=2": "error: self-confident eta_max 2.0 outside (0, 1)",
    "soft-bayes:self-confident=nan": "error: self-confident eta_max nan outside (0, 1)",
    "soft-bayes:self-confident=x": ("error: bad schedule in 'soft-bayes:self-confident=x': "
                                    "could not convert string to float: 'x'"),
    "soft-bayes:warp": "error: bad schedule in 'soft-bayes:warp': unknown schedule 'warp'",
}

# malformed or out-of-range generator for `gen --seed 1` -> the exact stderr line
BAD_GENERATORS = {
    "disjoint-dirac:N=-2,T=5": "error: generator 'disjoint_dirac' parameter N must be at least 1, got -2",
    "disjoint-dirac:N=0,T=5": "error: generator 'disjoint_dirac' parameter N must be at least 1, got 0",
    "iid-mixture:N=3,T=5,alphabet=-1": ("error: generator 'iid_mixture' parameter alphabet "
                                        "must be at least 1, got -1"),
    "iid-mixture:N=3,T=5,alphabet=0": ("error: generator 'iid_mixture' parameter alphabet "
                                       "must be at least 1, got 0"),
    "theorem2:T=": "error: generator 'theorem2' parameter T must be an integer, got ''",
    "theorem2:T=10,T=20": "error: generator 'theorem2' parameter T is given twice",
    # the CSV stream reader refuses digit-group underscores too
    "theorem2:T=1_0": "error: generator 'theorem2' parameter T must be an integer, got '1_0'",
    "theorem2:T=abc": "error: generator 'theorem2' parameter T must be an integer, got 'abc'",
}

# malformed or out-of-range comparator on theorem2:T=200 -> the exact stderr line
BAD_COMPARATORS = {
    "median": ("error: unknown comparator 'median'; "
               "known: fixed-mixture, single-best, shifting=t2,t3,..."),
    "shifting": "error: shifting comparator needs boundaries, e.g. shifting=51,101",
    "shifting=": "error: shifting comparator needs boundaries, e.g. shifting=51,101",
    "shifting=5,5": "error: boundaries must be strictly increasing",
    "shifting=1": "error: shifting boundary 1 must be a round after 1",
    "shifting=0": "error: shifting boundary 0 must be a round after 1",
    "shifting=-3": "error: shifting boundary -3 must be a round after 1",
    "shifting=a": "error: bad shifting boundaries 'a'",
    "shifting=500": "error: boundary 500 beyond horizon 200",
    # a kind is a whole table key, not a prefix of the text
    "shiftingX=3": ("error: unknown comparator 'shiftingX=3'; "
                    "known: fixed-mixture, single-best, shifting=t2,t3,..."),
    "shifting-best=3": ("error: unknown comparator 'shifting-best=3'; "
                        "known: fixed-mixture, single-best, shifting=t2,t3,..."),
}


def _digest(data: bytes):
    return len(data), hashlib.sha256(data).hexdigest()


def run_case(argv, tmp_path, capsys):
    csv_path, json_path = tmp_path / "trace.csv", tmp_path / "summary.json"
    code = main(["run", *argv, "--out-csv", str(csv_path), "--out-json", str(json_path)])
    stdout = capsys.readouterr().out.encode("utf-8")
    return code, {"stdout": _digest(stdout), "csv": _digest(csv_path.read_bytes()),
                  "json": _digest(json_path.read_bytes())}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_artifacts_pinned(name, tmp_path, capsys):
    argv, exit_code, expected = RUNS[name]
    code, got = run_case(argv, tmp_path, capsys)
    assert code == exit_code
    assert got == expected


def test_compare_stdout_pinned(capsys):
    argv, exit_code, expected = COMPARE
    code = main(argv)
    assert code == exit_code
    assert _digest(capsys.readouterr().out.encode("utf-8")) == expected


def test_verify_stdout_pinned(capsys):
    argv, exit_code, expected = VERIFY
    code = main(argv)
    assert code == exit_code
    assert _digest(capsys.readouterr().out.encode("utf-8")) == expected


@functools.cache
def _stream(generator, seed):
    return parse_generator(generator).build(seed)


@pytest.mark.parametrize("generator, seed, selector", sorted(TRACE_DIGESTS))
def test_trace_bits_at_benchmark_scale(generator, seed, selector):
    stream = _stream(generator, seed)
    trace = run_learner(parse_learner(selector).build(stream.n_experts), stream, "continue")
    digest = hashlib.sha256()
    for values in (trace.predictions, trace.losses, trace.rates, trace.weights):
        digest.update(values.tobytes())
    assert digest.hexdigest() == TRACE_DIGESTS[generator, seed, selector]


@pytest.mark.parametrize("selector", sorted(BAD_SELECTORS))
def test_malformed_selector_message_pinned(selector, capsys):
    code = main(["run", "--generator", "theorem2:T=10", "--learner", selector])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == BAD_SELECTORS[selector] + "\n"


@pytest.mark.parametrize("generator", sorted(BAD_GENERATORS))
def test_malformed_generator_message_pinned(generator, tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    code = main(["gen", "--generator", generator, "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == BAD_GENERATORS[generator] + "\n"
    assert not out.exists()


@pytest.mark.parametrize("comparator", sorted(BAD_COMPARATORS))
def test_malformed_comparator_message_pinned(comparator, capsys):
    code = main(["run", "--generator", "theorem2:T=200", "--learner", "bayes",
                 "--comparator", comparator])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == BAD_COMPARATORS[comparator] + "\n"

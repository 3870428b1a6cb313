"""Golden-byte pins for what the CLI emits.

Each ``run`` case pins the exit code and the sha256 and byte length of
stdout, the CSV trace and the JSON summary; one ``compare`` case and one
``verify`` case pin their stdout; malformed selectors and comparators pin the exit code and the exact
stderr line.  A refactor of the learners, schedules, comparators or bound
tables must leave every one of these unchanged.

The digests were recorded with Python 3.11.7, numpy 2.4.6 and glibc 2.36.
Floats are rendered with ``repr``.  The learners' traces and the CSVs do not
depend on the BLAS kernel or numpy's SIMD path (``test_host_paths.py``
holds them on other ones), but another libm's ``exp`` or ``log`` may
legitimately move them, and another BLAS may move the comparator loss in
stdout and the JSON.  The BLAS thread count
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
            "stdout": (4966, "bf3bea05c2d9e2fe38fc865434a4e4fc02df3fc99eeb4df9822fe5dc4ba8a352"),
            "csv": (373774, "934feb8008935c8edea01785ba129e3fb373e9d3475148c7c73a8edc9414f8b4"),
            "json": (14767, "8d8bea9ae47048d34c1a4a6b9c6ca4e7d5524f09e02a6fb1b635366df849337c"),
        },
    ),
    # N <= 16: the CSV's weight stride is 1, a snapshot every round
    "iid-n10-bits": (
        ["--generator", "iid-mixture:N=10,T=400", "--seed", "5", "--bits",
         *_learners(ALL_LEARNERS), *_bounds(("thm2", "thm4", "thm5"))],
        0,
        {
            "stdout": (2674, "66ab380fe9b0fb5fb60dc63dc59dab4791987e04a2a24f729ec15c935ff3443a"),
            "csv": (1203992, "8e917cf40a745c12d54bc39cc90899afc6b7590e0a9d458eb24875cf3575c4b9"),
            "json": (9041, "249f597b41a5f8cbeafa98d9d0299b48d2c52e896e3b96b3a726b9c14e5b2363"),
        },
    ),
    # N > 16: the CSV's weight stride is ceil(T / 1000) = 3, a snapshot every
    # third round and on the last
    "iid-n20-halt": (
        ["--generator", "iid-mixture:N=20,T=2500", "--seed", "7",
         "--on-divergence", "halt",
         *_learners(ALL_LEARNERS), *_bounds(("thm2", "thm4", "thm5"))],
        1,
        {
            "stdout": (2672, "f69fbfc9cd6118afd657a80a030183618e76418365e95d25dbc53c08587d38ca"),
            "csv": (6092571, "83926f85cb0dac400e08e6e65d35ac146838424f26dac361b356e7d8d8bd6e64"),
            "json": (9335, "18738ad9fdf3648c43f5d1753a4f4e29f53a084dd2373b252b0d50f05af376e7"),
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
            "csv": (109699, "562bf1423a6f10849fe38f05de5be192d36a7bd6c373b23238739acdcb45a569"),
            "json": (4357, "87cec5db362f6a56de7ef561b6ab9a782e880eef82c0f630a7870c089c299b4c"),
        },
    ),
    "shifting-halt": (
        [*THEOREM2_200, "--comparator", "shifting=101,151", "--on-divergence", "halt",
         *_bounds(("thm7", "thm5"))],
        1,
        {
            "stdout": (834, "5aad38a04e5a356cc5f2a0076337a807378bc6cbbbb492783bd73c0a01b913d2"),
            "csv": (97877, "5c75c0a9ae066943efcd3b13b74787866d6c4d41aec9b27915bc85e628b98fd9"),
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
            "csv": (109699, "562bf1423a6f10849fe38f05de5be192d36a7bd6c373b23238739acdcb45a569"),
            "json": (3672, "29b869b3c75a98a07756549e2ade6301daf388cc9f1bf88fce5d02c225e51c05"),
        },
    ),
    "shifting-continue-bits": (
        [*THEOREM2_200, "--comparator", "shifting=51", "--on-divergence", "continue", "--bits",
         *_bounds(("thm7", "thm6"))],
        1,
        {
            "stdout": (873, "b82a101a86811b729e7a4a998ec6acbac40b3fea38ebca08a45080573f55719e"),
            "csv": (108014, "926dc917d120e930b0bf0c322922e29eeae3d6f6e8c2e14c4148eb3ee0b99bfe"),
            "json": (4149, "1c662372f2cb2f000d4d98c3819a3b865c54e5d2a626d107a13bb1ad6fa92627"),
        },
    ),
    "single-best-continue": (
        [*THEOREM2_200, "--comparator", "single-best", "--on-divergence", "continue",
         *_bounds(("single-expert",))],
        0,
        {
            "stdout": (737, "f77dd18955a4a18e99e6d0233607e4b9f22bb741cae4274483ac540b933b783f"),
            "csv": (109699, "562bf1423a6f10849fe38f05de5be192d36a7bd6c373b23238739acdcb45a569"),
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
            "stdout": (268, "0c6dee73eb3c367e9098194bc924fc049c47fd9d1448a16b603b46b31af6e2c6"),
            "csv": (4240155, "ef4d1f5b4e3d1b4292cd38c5463bd5fe1e5416cd6b9809bf011bdfbab0c91a13"),
            "json": (2349, "5afe1d6d7507f0d152a0c86e73c54cfa619364e513aca7f9ccf593312e1226ab"),
        },
    ),
    # every expert assigns 0 somewhere: the single best loses inf, and the
    # learners that diverge and halt have an undefined (inf - inf) regret
    "single-best-halt-bits": (
        [*THEOREM2_200, "--comparator", "single-best", "--bits",
         *_bounds(("single-expert", "thm2", "thm5"))],
        0,
        {
            "stdout": (1606, "64ad0c33abd01a17aea678d65f35aa341e10465cf0b1a50ba6fba4697206db20"),
            "csv": (96192, "36fe738a767949b217a26f3fdbbdbdd96b684eeecebc37e65caa38360f268465"),
            "json": (5142, "106de48ea8abe2bf969ef7619cc7ed766f46ac7906fc5cf3dead22c756f8ccae"),
        },
    ),
}

COMPARE = (
    ["compare", "--generator", "iid-mixture:N=4,T=300", "--seed", "11",
     *_learners(("soft-bayes:anytime", "eg:fixed=0.5", "ogd:fixed=0.1",
                 "ml-soft-bayes", "meta:rates=1,0.5,0.25")),
     "--bound", "thm5"],
    0,
    (483, "c1a0085c563c8eac34796b84c0ce382a583887028b811931f15be067ba703867"),
)

VERIFY = (
    ["verify", "--samples", "2000"],
    0,
    (845, "ae06f27b3a197659fe4ae904fafcfaf4e78e92a87ffbcf5d8202821086348657"),
)

# (generator, seed, selector) -> sha256 of the continue-mode trace's
# predictions, losses, rates and weights bytes: at the benchmark's scale, the
# adversarial-compare learners on theorem2:T=20000, where meta's rate-1 row
# dies past round 10,000, and the e2e-csv learners on its iid stream; and
# every learner kind on 20 experts, where a chunk holds 102 rows
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
        "d71905d6772abfd5ebc337c1dd37624e9186fe45fd10ec75c68df9a2a9430919",
    ("theorem2:T=20000", 0, "ogd:fixed=0.1"):
        "a6c306891c2ee6111d023f039ce07ec2057beb089a7f5e837d039ae96a3bd769",
    ("theorem2:T=20000", 0, "ml-soft-bayes"):
        "dc685615ec9cfa688811bac3e6e250409ff0cdab0ad4e0633160d29c268d0023",
    ("theorem2:T=20000", 0, "meta:rates=1,0.5,0.25"):
        "46b34e42fd2c975fa9ab9d0a35d5e8a649966c802313458e1663f967fc22f58d",
    ("iid-mixture:N=10,T=20000", 6, "soft-bayes:anytime"):
        "6d732eb9aec4c91af55f9a47ee94a31faeaec565ae2ca0faec05d0cf616abb2f",
    ("iid-mixture:N=10,T=20000", 6, "eg:fixed=0.5"):
        "63a268312f1e37b2d85bc759fd873c7a589eb8221998fcd3255520768826b40e",
    ("iid-mixture:N=10,T=20000", 6, "soft-bayes:self-confident"):
        "2a6fe06adeb041d9ed60ff7a4951a701258e3f5f6c4c2207a9aeffd6c44d8943",
    ("iid-mixture:N=20,T=5000", 7, "soft-bayes:anytime"):
        "a9905e7bcf863d0499d41fecec69c9e34fea21f7838f605a54b6bd4b90e361af",
    ("iid-mixture:N=20,T=5000", 7, "bayes"):
        "bd5702f3bb468ca04c372d0ca05cb4d7567283e1081c0adf8988cb68a5b59077",
    ("iid-mixture:N=20,T=5000", 7, "eg:fixed=0.5"):
        "f65eba05e22e1282635e3f065e1bbdd503f340d93d374e7feee3dfdd30e2b199",
    ("iid-mixture:N=20,T=5000", 7, "ogd:fixed=0.1"):
        "ff4ef76dadf1acf036e3d2159036d190517b642bd144d6af1538d76e5a6e60c6",
    ("iid-mixture:N=20,T=5000", 7, "ml-soft-bayes"):
        "5e025021951dc756dd9c94eb8958b3f44a9160a78eb1ece15c4978134895a612",
    ("iid-mixture:N=20,T=5000", 7, "meta:rates=1,0.5,0.25"):
        "2d332e647324ee9b88f7fa30ad00a7634ebf5998b8d17b5b5776fc8dd4a6b5e7",
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
    # a count below 1 breaks theorem2's own rule, not the general one
    "theorem2:T=-4": "error: generator 'theorem2' parameter T must be even and at least 2, got -4",
    "theorem2:T=0": "error: generator 'theorem2' parameter T must be even and at least 2, got 0",
    "theorem2:T=1": "error: generator 'theorem2' parameter T must be even and at least 2, got 1",
    "theorem2:T=3": "error: generator 'theorem2' parameter T must be even and at least 2, got 3",
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


def trace_digest(generator, seed, selector):
    """The ``TRACE_DIGESTS`` digest of one case, as this process computes it."""
    stream = _stream(generator, seed)
    trace = run_learner(parse_learner(selector).build(stream.n_experts), stream, "continue")
    digest = hashlib.sha256()
    for values in (trace.predictions, trace.losses, trace.rates, trace.weights):
        digest.update(values.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("generator, seed, selector", sorted(TRACE_DIGESTS))
def test_trace_bits_at_benchmark_scale(generator, seed, selector):
    assert trace_digest(generator, seed, selector) == TRACE_DIGESTS[generator, seed, selector]


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

"""Valid streams at the numeric edges, run end to end through ``cli.main``.

Each stream drives a mixture prediction M to a subnormal or a tiny normal
value, where eta/M or p/M overflows the float range.  A run must still end
in a verdict (exit 0 or 1), and since the suite turns warnings into errors,
without a RuntimeWarning.  Streams A-E and G have at most 3 experts; each is
also run padded with zero columns to 17 experts, where a chunk of rows is
cut short by its cell budget.
"""

import hashlib
import json

import numpy as np
import pytest

from softbayes import learners
from softbayes.cli import main
from softbayes.core import ExpertStream
from softbayes.harness import parse_learner, write_stream_jsonl


def blocks(*parts):
    """A stream of ``(count, row)`` blocks, each row repeated ``count`` times."""
    return ExpertStream(np.concatenate([np.tile(row, (count, 1)) for count, row in parts]))


STREAMS = {
    # OGD sits on [0, 1] when M = 1e-320 arrives: eta/M overflows
    "A": lambda: blocks((50, [0.0, 1.0]), (1, [1.0, 1e-320]), (3, [0.5, 0.5])),
    # Bayes's M is 1e-170 after the switch: (p/M)^2 overflows
    "B": lambda: blocks((3, [1e-170, 1.0]), (3, [1.0, 1e-170])),
    "C": lambda: blocks((40, [0.0, 1.0]), (1, [1.0, 1e-200]), (3, [0.5, 0.5])),
    # OGD's step eta/M = 1e299 is finite, but w + step q rounds the top
    # coordinate so that the projection's support test finds nothing
    "D": lambda: blocks((30, [1e-300, 1.0]), (30, [1.0, 1e-300])),
    "E": lambda: blocks((20, [5e-324, 1.0, 0.3]), (20, [1.0, 5e-324, 0.0])),
    # EG's log weights part by ~750; M = 1e-320 then overflows its step, so
    # all mass lands on the first expert, which the next rounds miss, and the
    # overflow at [1e-320, 1] lands on an expert of zero weight
    "G": lambda: blocks((1500, [0.0, 1.0]), (1, [1.0, 1e-320]), (2, [0.0, 1.0]),
                        (3, [1e-320, 1.0]), (3, [0.5, 0.5])),
}


def padded(make):
    """The stream ``make`` builds, with zero columns up to 17 experts."""
    def build():
        p = make().p
        return ExpertStream(np.hstack([p, np.zeros((len(p), 17 - p.shape[1]))]))
    return build


STREAMS.update({f"{name}-wide": padded(make) for name, make in list(STREAMS.items())})

SELECTORS = [
    "soft-bayes:anytime",
    "soft-bayes:sparse",
    "soft-bayes:shifting",
    "soft-bayes:self-confident",
    "soft-bayes:fixed=0.5",
    "soft-bayes:inverse-t=1",
    "bayes",
    "eg:fixed=0.5",
    "ogd:fixed=0.1",
    "ml-soft-bayes",
    "meta:rates=1,0.5,0.25",
]


def run(tmp_path, stream, *args):
    path = tmp_path / "stream.jsonl"
    write_stream_jsonl(STREAMS[stream](), str(path))
    return main(["run", "--stream", str(path), *args])


@pytest.mark.parametrize("policy", ["halt", "continue"])
@pytest.mark.parametrize("selector", SELECTORS)
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_run_ends_in_a_verdict(stream, selector, policy, tmp_path, capsys):
    code = run(tmp_path, stream, "--learner", selector, "--on-divergence", policy,
               "--bound", "thm2", "--bound", "thm3", "--bound", "thm4",
               "--out-csv", str(tmp_path / "trace.csv"),
               "--out-json", str(tmp_path / "summary.json"))
    assert code in (0, 1), capsys.readouterr().err


@pytest.mark.parametrize("stream, loss", [("A", 741.16), ("D", 693.03)])
def test_ogd_takes_the_overflowing_step(stream, loss, tmp_path):
    out = tmp_path / "summary.json"
    assert run(tmp_path, stream, "--learner", "ogd:fixed=0.1", "--out-json", str(out)) == 0
    entry = json.loads(out.read_text())["learners"][0]
    assert not entry["diverged"]
    assert entry["loss"] == pytest.approx(loss, abs=0.005)


def test_overflowing_ratio_reads_as_an_infinite_statistic(tmp_path, capsys):
    assert run(tmp_path, "B", "--learner", "bayes", "--bound", "thm3") == 0
    assert "bound thm3: inf -> pass" in capsys.readouterr().out


def test_subnormal_mixture_steps_every_round(tmp_path, capsys):
    # M reaches the subnormal range near round 10,001, where eta / M overflows
    out = tmp_path / "summary.json"
    assert main(["run", "--generator", "theorem2:T=20000", "--learner", "soft-bayes:fixed=0.25",
                 "--on-divergence", "halt", "--bound", "thm2", "--out-json", str(out)]) == 0
    entry = json.loads(out.read_text())["learners"][0]
    assert entry["halted_at"] is None and not entry["diverged"]
    assert entry["loss"] == pytest.approx(9217.65, abs=0.005)
    assert entry["bounds"][0]["satisfied"] is True


def trace_digest(selector, stream):
    trace = learners.run_learner(parse_learner(selector).build(stream.n_experts), stream)
    h = hashlib.sha256()
    for a in (trace.predictions, trace.losses, trace.rates, trace.weights):
        h.update(a.tobytes())
    return h.hexdigest()


def ties_and_zeros(n):
    """300 rounds of one-decimal probabilities, a fifth of them zero; the
    first expert never reads 0, so no round is all zero."""
    def build():
        rng = np.random.default_rng(n)
        p = np.round(rng.uniform(0.0, 1.0, (300, n)), 1)
        p[rng.random((300, n)) < 0.2] = 0.0
        p[:, 0] = np.maximum(p[:, 0], 0.1)
        return ExpertStream(p)
    return build


# the edge streams as they are and two streams of ties and zeros, of 7 and
# 16 experts
FORM_STREAMS = {name: make for name, make in STREAMS.items() if not name.endswith("-wide")}
FORM_STREAMS.update({f"ties-{n}": ties_and_zeros(n) for n in (7, 16)})


@pytest.mark.parametrize("selector", SELECTORS)
@pytest.mark.parametrize("stream", sorted(FORM_STREAMS))
def test_python_float_forms_match_the_numpy_forms(stream, selector, monkeypatch):
    # one-row chunks against the default chunking (the name is older than
    # the one float form, and kept so that the case ids stay): the chunk
    # rule changes how many rows a learner is handed at once, never a bit;
    # with no cell budget, every chunk is one row
    data = FORM_STREAMS[stream]()
    default = trace_digest(selector, data)
    monkeypatch.setattr(learners, "_CHUNK_CELLS", 0)
    assert trace_digest(selector, data) == default

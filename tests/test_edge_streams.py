"""Valid streams at the numeric edges, run end to end through ``cli.main``.

Each stream drives a mixture prediction M to a subnormal or a tiny normal
value, where eta/M or p/M overflows the float range.  A run must still end
in a verdict (exit 0 or 1), and since the suite turns warnings into errors,
without a RuntimeWarning.
"""

import json

import numpy as np
import pytest

from softbayes.cli import main
from softbayes.core import ExpertStream
from softbayes.harness import write_stream_jsonl


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
}

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

"""Smoke tests: every script under ``scripts/`` has a pinned entry, runs on a
small input, prints its table header and exactly the output it was recorded
with; an option value a script cannot run with is an argparse error (exit 2,
one ``error:`` line, no traceback).  The claims report's rows are held to the
library's own numbers, so a changed digest can be traced to its row."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from softbayes.comparators import best_fixed_mixture, regret_report, theoretical_bound
from softbayes.generators import (
    adversarial_alternating,
    adversarial_constant,
    random_iid_instance,
    with_flip_round,
)
from softbayes.harness import stream_best_count
from softbayes.learners import ExponentiatedGradient, OnlineGradientDescent, SoftBayes, run_learner
from softbayes.rates import (
    AnytimeRate,
    FixedRate,
    SelfConfidentRate,
    ShiftingRate,
    SparseRate,
    rate_offline,
)

ROOT = Path(__file__).resolve().parent.parent

T, N, SEEDS = 40, 3, 2
CLAIMS_ARGS = ["--T", str(T), "--n", str(N), "--seeds", str(SEEDS)]

ROBUSTNESS_HEADER = ("stream       learner                     comparator        loss      regret"
                     "       bound       ratio  theorem    notes")
GUARANTEES_HEADER = ("stream       learner                    mean regret  max regret       bound"
                     "   max ratio  theorem")

# pinned run -> (script, arguments, a header line it prints, sha256 of its stdout).
# The claims report is pinned at two sizes: T = 40 and T = 200 with 3 experts
# over 2 seeds, so both blocks are held at a short and a longer stream.
SCRIPTS = {
    "claims.py": ("claims.py", CLAIMS_ARGS, ROBUSTNESS_HEADER,
                  "5081c31e9ab2764e85c1c95197dcf791466847f08c899a131d6c4f98f3465e5d"),
    "claims.py --T 200": ("claims.py", ["--T", "200", "--n", "3", "--seeds", "2"],
                          GUARANTEES_HEADER,
                          "a0244bb2756814d8362a6f5a63a7d0f5077e2b27a96cccd1da03cd08d3245e9a"),
}


# script -> option values it rejects, each as an argparse error
BAD_ARGS = {
    "claims.py": (["--T", "41"], ["--T", "0"], ["--T", "1"], ["--eta", "0"], ["--eta", "nan"],
                  ["--n", "1"], ["--seeds", "0"]),
}


def _run(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_every_script_is_pinned():
    pinned = {script for script, *_ in SCRIPTS.values()}
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(pinned)


@pytest.mark.parametrize("pin", sorted(SCRIPTS))
def test_script_runs(pin):
    script, args, header, digest = SCRIPTS[pin]
    result = _run(script, args)
    assert result.returncode == 0, result.stderr
    assert header in result.stdout.splitlines()
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("script, args", [(s, a) for s in sorted(BAD_ARGS) for a in BAD_ARGS[s]],
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_bad_argument_is_an_argparse_error(script, args):
    result = _run(script, args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith(f"{script}: error: argument {args[0]}: ")


def _fmt(x):
    return "inf" if math.isinf(x) else f"{x:.3f}"


def _robustness_rows():
    """(stream, learner) -> (regret, bound or None) of every robustness row."""
    eg = lambda: ExponentiatedGradient(2, 0.5, name="eg:fixed=0.5")
    ogd = lambda: OnlineGradientDescent(2, 0.5, name="ogd:fixed=0.5")
    anytime = lambda: SoftBayes(2, AnytimeRate(2), name="soft-bayes:anytime")
    rows = {}
    for label, stream, learners, policy in (
            ("constant", adversarial_constant(T), (eg, ogd, anytime), "continue"),
            ("alternating", adversarial_alternating(T), (eg, anytime), "continue"),
            ("flip", with_flip_round(adversarial_constant(T)), (ogd, anytime), "halt")):
        comparator = best_fixed_mixture(stream).loss
        for make in learners:
            trace = run_learner(make(), stream, policy)
            bound = theoretical_bound("thm5", T=len(stream), N=2) if make is anytime else None
            rows[(label, trace.name)] = (regret_report(trace, comparator).regret, bound)
    return rows


def _guarantee_rows():
    """soft-Bayes selector -> (bound variant, per-stream regrets, per-stream
    bounds) over the iid streams."""
    streams = [random_iid_instance(N, T, seed) for seed in range(SEEDS)]
    m = max(stream_best_count(s) for s in streams)
    eta = rate_offline(T, N)
    bounds = {"thm2": {"m": m, "eta": eta}, "thm5": {}, "thm6": {"m": m}, "thm7": {"K": 1}}
    rows = {}
    for label, make, variant in ((f"fixed:{eta!r}", lambda: FixedRate(eta), "thm2"),
                                 ("anytime", lambda: AnytimeRate(N), "thm5"),
                                 ("sparse", lambda: SparseRate(N), "thm6"),
                                 ("shifting", lambda: ShiftingRate(N), "thm7"),
                                 ("self-confident", lambda: SelfConfidentRate(N), "thm4_tuned")):
        regrets, bound_row = [], []
        for stream in streams:
            schedule = make()
            trace = run_learner(SoftBayes(N, schedule), stream)
            regrets.append(regret_report(trace, best_fixed_mixture(stream).loss).regret)
            params = {"c1": schedule.C1} if variant == "thm4_tuned" else bounds[variant]
            bound_row.append(theoretical_bound(variant, T=T, N=N, **params))
        rows[f"soft-bayes:{label}"] = (variant, regrets, bound_row)
    return rows


def test_claims_rows_match_the_library():
    out = _run("claims.py", CLAIMS_ARGS)
    assert out.returncode == 0, out.stderr
    printed = {tuple(line.split()[:2]): line.split()[2:] for line in out.stdout.splitlines()
               if line and not line.startswith(("==", "EG ", "stream "))}

    robust = _robustness_rows()
    guarantees = _guarantee_rows()
    assert sorted(printed) == sorted([*robust, *(("iid-mixture", k) for k in guarantees)])
    for key, (regret, bound) in robust.items():
        _, _, r, b, _, theorem, *_ = printed[key]
        assert r == _fmt(regret), key
        assert (b, theorem) == (("-", "-") if bound is None else (_fmt(bound), "thm5")), key
    for learner, (variant, regrets, bounds) in guarantees.items():
        mean, worst_regret, bound, ratio, theorem = printed[("iid-mixture", learner)]
        ratios = [r / b for r, b in zip(regrets, bounds)]
        worst = ratios.index(max(ratios))
        assert (mean, worst_regret) == (_fmt(np.mean(regrets)), _fmt(max(regrets))), learner
        assert (bound, ratio, theorem) == (f"{bounds[worst]:.2f}", _fmt(ratios[worst]), variant), learner

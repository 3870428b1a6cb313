"""Per-layer tracing of one softbayes operation, from outside the package.

While a :func:`traced` block is active, the names that ``softbayes.harness``
and ``softbayes.verify`` call between layers, plus ``GeneratorSpec.build``
and ``RunArtifact.write``, are replaced by wrappers that record a span each:
name, start, end and parent.  Schedule ``rate``/``observe`` run once or twice
per learner round, far too often for a span each; their calls and time are
summed instead and counted as covered time of the span they ran in.

A span's self time is its duration minus what its child spans and the summed
schedule calls cover.  The self times of all spans plus the schedule time add
up to the root span's duration; the root's own self time is the residual
spent in ``cli`` and ``core`` and the glue of ``run_experiment``.
"""

from __future__ import annotations

import contextlib
import os
import re
import time
from collections import defaultdict
from dataclasses import dataclass, field

from softbayes import generators, harness, rates, verify

ROOT = "cli.main"
MASKED = "comparators.masked"
RATES = "rates"
SCHEDULES = (rates.FixedRate, rates.InverseT, rates.AnytimeRate, rates.SparseRate,
             rates.ShiftingRate, rates.SelfConfidentRate)


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    covered: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered


class Tracer:
    """Spans of one operation, kept in memory in the order they opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self.hot: dict[str, list] = {}   # name -> [calls, seconds]
        self._open: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if self._open:
            self.spans[self._open[-1]].covered += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, name: str, fn, attrs=None):
        def wrapper(*args, **kwargs):
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if attrs is not None:
                s.attrs.update(attrs(args, result))
            return result
        return wrapper

    def wrap_hot(self, name: str, fn):
        stat = self.hot.setdefault(name, [0, 0.0])
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                spans[open_[-1]].covered += dt
        return wrapper


def _ingest_attrs(args, stream):
    return {"bytes": os.path.getsize(args[0]), "rounds": len(stream)}


def _learner_attrs(args, trace):
    return {"selector": args[0].name, "rounds": trace.rounds,
            "diverged": int((~trace.finite_mask()).sum())}


def _sweep_attrs(args, result):
    preds, _ = result
    return {"rounds": int(preds.size)}


def _csv_attrs(args, text):
    return {"bytes": len(text) if text.isascii() else len(text.encode("utf-8"))}


# (owner, attribute, span name, attribute extractor)
SPAN_TARGETS = (
    (generators.GeneratorSpec, "build", "generators.build", None),
    (harness, "load_stream", "harness.ingest", _ingest_attrs),
    (harness, "run_learner", "learners.step", _learner_attrs),
    (harness, "best_fixed_mixture", "comparators.fixed_mixture",
     lambda args, sol: {"iterations": sol.iterations}),
    (harness, "_masked_comparator_loss", MASKED, None),
    (harness, "theoretical_bound", "comparators.bound", None),
    (harness, "stream_best_count", "harness.best_count", None),
    (harness, "ratio_stats", "harness.ratio_stats", None),
    (harness, "_csv_table", "harness.render_csv", _csv_attrs),
    (harness.RunArtifact, "write", "harness.write", None),
    (verify, "scalar_inequality_checks", "verify.scalar", None),
    (verify, "reverse_jensen_checks", "verify.jensen", None),
    (verify, "disjoint_equivalence_checks", "verify.disjoint", None),
    (verify, "soft_bayes_sweep", "learners.sweep", _sweep_attrs),
    (verify, "run_learner", "learners.step", _learner_attrs),
)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers and open the root span; restore on exit."""
    saved = []
    try:
        for owner, attr, name, attrs in SPAN_TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, attrs))
        for cls in SCHEDULES:
            for attr in ("rate", "observe"):
                original = getattr(cls, attr)
                saved.append((cls, attr, original))
                setattr(cls, attr, tracer.wrap_hot(RATES, original))
        with tracer.span(ROOT):
            yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def selector_metric(selector: str, stat: str = "us_per_round") -> str:
    """``eg:fixed=0.5`` -> ``learners.eg-fixed-0.5.us_per_round``."""
    return f"learners.{re.sub(r'[:=,]', '-', selector)}.{stat}"


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced operation, for the layers that ran.

    A fixed-mixture solve inside a masked comparator counts as masked time,
    so ``comparators.fixed_mixture_*`` describe the main solve only.
    """
    values = defaultdict(int)
    per_selector = defaultdict(lambda: [0.0, 0, 0])   # seconds, rounds, diverged
    spans = tracer.spans
    for span in spans:
        key = span.name
        if span.parent is None:
            key = "trace.residual"
        elif spans[span.parent].name == MASKED:
            key = MASKED
        values[key + "_s"] += span.self_time
        a = span.attrs
        if span.name in ("learners.step", "learners.sweep"):
            values["learners.rounds"] += a["rounds"]
            values["learners.diverged_rounds"] += a.get("diverged", 0)
        if span.name == "learners.step":
            acc = per_selector[a["selector"]]
            acc[0] += span.duration
            acc[1] += a["rounds"]
            acc[2] += a["diverged"]
        elif span.name == "harness.ingest":
            values["harness.ingest_bytes"] += a["bytes"]
            values["harness.ingest_us_per_round"] += span.duration / a["rounds"] * 1e6
        elif span.name == "harness.render_csv":
            values["harness.render_csv_bytes"] += a["bytes"]
        elif span.name == MASKED:
            values["comparators.masked_solves"] += 1
        elif key == "comparators.fixed_mixture":
            values["comparators.fixed_mixture_iters"] += a["iterations"]
    for selector, (seconds, rounds, diverged) in per_selector.items():
        if rounds:
            values[selector_metric(selector)] = seconds / rounds * 1e6
        values[selector_metric(selector, "diverged_rounds")] = diverged
    calls, seconds = tracer.hot.get(RATES, (0, 0.0))
    values["rates.calls"] = calls
    values["rates.self_s"] = seconds
    return dict(values)

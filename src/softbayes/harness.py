"""Experiment harness: stream ingestion, configuration, execution, artifacts.

Stream file formats
-------------------
JSONL, one round per line, reduced form (canonical):

    {"p": [0.2, 0.6]}

or full form, reduced at ingestion by selecting the realized symbol's column
(``x`` is 1-based):

    {"dists": [[0.2, 0.8], [0.6, 0.4]], "x": 1}

CSV: header row required, then one column of probabilities per expert.

Artifacts are deterministic byte-for-byte given the same config and seed: no
timestamps, floats rendered by ``repr``, JSON keys sorted.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .comparators import (
    SegmentSpec,
    best_fixed_mixture,
    best_single_expert,
    regret_report,
    theoretical_bound,
)
from .core import ExpertStream
from .generators import RNG_NAME, parse_generator
from .learners import (
    Bayes,
    ExponentiatedGradient,
    LearnerTrace,
    MetaBayes,
    MLSoftBayes,
    OnlineGradientDescent,
    SoftBayes,
    run_learner,
)
from .rates import BestSetTracker, ScheduleConfig, parse_schedule

LN2 = math.log(2.0)
# rows per repr or json call: few calls, while a block's text and objects
# stay small beside the whole artifact, which bounds peak memory
BLOCK_ROWS = 256


class ConfigError(ValueError):
    pass


class StreamFormatError(ValueError):
    pass


# ----------------------------------------------------------------- streams

def _reduce_full_round(obj, lineno):
    dists = obj.get("dists")
    x = obj.get("x")
    if not isinstance(dists, list) or not dists or not isinstance(x, int):
        raise StreamFormatError(f"line {lineno}: full round needs 'dists' and integer 'x'")
    alphabet = len(dists[0]) if isinstance(dists[0], list) else 0
    if not 1 <= x <= alphabet:
        raise StreamFormatError(f"line {lineno}: symbol x={x} outside [1, {alphabet}]")
    try:
        return [float(d[x - 1]) for d in dists]
    except (TypeError, IndexError) as exc:
        raise StreamFormatError(f"line {lineno}: malformed 'dists': {exc}") from exc


# a reduced round on one line, its list holding nothing but number characters
_REDUCED_LINE = re.compile(r'[ \t]*\{[ \t]*"p"[ \t]*:[ \t]*\[[-+.0-9eE, \t]*\][ \t]*\}[ \t]*')


def _bulk_rounds(lines: list):
    """The rounds, when each non-blank line is a reduced round of numbers,
    parsed a block of lines per ``json.loads``.  None otherwise, or when a
    parse or the array fails, for the per-line reader to report."""
    lines = [line for line in lines if line.strip()]
    if not lines or not all(map(_REDUCED_LINE.fullmatch, lines)):
        return None
    blocks = []
    try:
        for i in range(0, len(lines), BLOCK_ROWS):
            objs = json.loads("[" + ",".join(lines[i : i + BLOCK_ROWS]) + "]")
            blocks.append(np.asarray([obj["p"] for obj in objs], dtype=float))
        return np.concatenate(blocks)
    except (ValueError, OverflowError):
        return None


def _per_line_rounds(lines: list) -> np.ndarray:
    rounds = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StreamFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise StreamFormatError(f"line {lineno}: expected an object per line")
        if "p" in obj:
            row = obj["p"]
            if not isinstance(row, list):
                raise StreamFormatError(f"line {lineno}: 'p' must be a list")
        elif "dists" in obj:
            row = _reduce_full_round(obj, lineno)
        else:
            raise StreamFormatError(f"line {lineno}: round needs 'p' or 'dists'+'x'")
        try:
            values = [float(v) for v in row]
        except (TypeError, ValueError) as exc:
            raise StreamFormatError(f"line {lineno}: non-numeric probability: {exc}") from exc
        if rounds and len(values) != len(rounds[0]):
            raise StreamFormatError(
                f"line {lineno}: expected {len(rounds[0])} experts, got {len(values)}")
        rounds.append(values)
    if not rounds:
        raise StreamFormatError("stream file contains no rounds")
    return np.asarray(rounds, dtype=float)


def read_stream_jsonl(text: str) -> ExpertStream:
    lines = text.splitlines()
    p = _bulk_rounds(lines)
    if p is None:
        p = _per_line_rounds(lines)
    try:
        return ExpertStream(p)
    except ValueError as exc:
        raise StreamFormatError(str(exc)) from exc


def read_stream_csv(text: str) -> ExpertStream:
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, row) for row in reader if row]
    if len(rows) < 2:
        raise StreamFormatError("CSV stream needs a header row plus at least one round")
    header = rows[0][1]
    try:
        [float(cell) for cell in header]
    except ValueError:
        pass
    else:
        raise StreamFormatError("CSV stream must start with a non-numeric header row")
    rounds = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise StreamFormatError(f"line {lineno}: expected {len(header)} columns, got {len(row)}")
        try:
            rounds.append([float(cell) for cell in row])
        except ValueError as exc:
            raise StreamFormatError(f"line {lineno}: non-numeric probability: {exc}") from exc
    try:
        return ExpertStream(np.asarray(rounds, dtype=float))
    except ValueError as exc:
        raise StreamFormatError(str(exc)) from exc


def load_stream(path: str) -> ExpertStream:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if str(path).lower().endswith(".csv"):
        return read_stream_csv(text)
    return read_stream_jsonl(text)


def write_stream_jsonl(stream: ExpertStream, path: str) -> None:
    """One reduced round per line, ``{"p": [...]}``, rendered a block of
    rounds per ``json.dumps``."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(stream), BLOCK_ROWS):
            rows = json.dumps(stream.p[start : start + BLOCK_ROWS].tolist())[1:-1]
            fh.write('{"p": ' + rows.replace("], [", ']}\n{"p": [') + "}\n")


# ---------------------------------------------------------------- learners

@dataclass(frozen=True)
class LearnerSpec:
    """Parsed learner selector, e.g. ``soft-bayes:anytime`` or ``eg:fixed=0.5``.

    A non-uniform prior comes in through the config file, where a learner
    entry may be ``{"spec": "...", "prior": [...]}`` instead of a string.
    """

    text: str
    kind: str
    schedule: ScheduleConfig | None = None
    eta: float | None = None
    rates: tuple = ()
    prior: tuple | None = None

    def build(self, n: int):
        prior = None if self.prior is None else list(self.prior)
        return LEARNER_KINDS[self.kind][1](self, n, prior=prior, name=self.text)

    @property
    def constant_rate(self) -> float | None:
        """The learner's constant rate when it has one (drives bound tables)."""
        return LEARNER_KINDS[self.kind][2](self)


def _schedule_arg(arg: str, kind: str, text: str) -> dict:
    try:
        return {"schedule": parse_schedule(arg) if arg else ScheduleConfig("anytime")}
    except ValueError as exc:
        raise ConfigError(f"bad schedule in {text!r}: {exc}") from exc


def _no_arg(why: str):
    def parse(arg: str, kind: str, text: str) -> dict:
        if arg:
            raise ConfigError(f"{kind} takes no schedule ({why})")
        return {}
    return parse


def _fixed_rate_arg(arg: str, kind: str, text: str) -> dict:
    if not arg:
        raise ConfigError(f"{kind} needs a rate, e.g. {kind}:fixed=0.5")
    head, sep, value = arg.replace(":", "=").partition("=")
    if head.strip() != "fixed" or not sep:
        raise ConfigError(f"{kind} takes only a fixed rate, e.g. {kind}:fixed=0.5")
    try:
        eta = float(value)
    except ValueError as exc:
        raise ConfigError(f"bad rate for {kind}: {value!r}") from exc
    if not eta > 0.0:
        raise ConfigError(f"{kind} rate must be positive")
    return {"eta": eta}


def _rates_arg(arg: str, kind: str, text: str) -> dict:
    head, sep, value = arg.partition("=")
    if head.strip() != "rates" or not sep:
        raise ConfigError("meta needs sub-rates, e.g. meta:rates=1,0.5,0.25")
    try:
        rates = tuple(float(v) for v in value.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad meta rates {value!r}") from exc
    if not rates or any(not 0.0 < r <= 1.0 for r in rates):
        raise ConfigError("meta rates must lie in (0, 1]")
    return {"rates": rates}


# selector kind -> (argument parser (arg, kind, text) -> LearnerSpec fields,
#                   factory (spec, n, prior=, name=), constant rate (spec))
LEARNER_KINDS = {
    "soft-bayes": (_schedule_arg, lambda s, n, **kw: SoftBayes(n, s.schedule.build(n), **kw),
                   lambda s: s.schedule.param if s.schedule.kind == "fixed" else None),
    "bayes": (_no_arg("it is soft-bayes at rate 1"), lambda s, n, **kw: Bayes(n, **kw),
              lambda s: 1.0),
    "eg": (_fixed_rate_arg, lambda s, n, **kw: ExponentiatedGradient(n, s.eta, **kw),
           lambda s: s.eta),
    "ogd": (_fixed_rate_arg, lambda s, n, **kw: OnlineGradientDescent(n, s.eta, **kw),
            lambda s: s.eta),
    "ml-soft-bayes": (_no_arg("rates are per-expert"), lambda s, n, **kw: MLSoftBayes(n, **kw),
                      lambda s: None),
    "meta": (_rates_arg, lambda s, n, **kw: MetaBayes(n, s.rates, **kw), lambda s: None),
}

LEARNER_NAMES = tuple(LEARNER_KINDS)


def parse_learner(text: str) -> LearnerSpec:
    spec = text.strip()
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in LEARNER_KINDS:
        raise ConfigError(f"unknown learner {text!r}; known: {', '.join(LEARNER_NAMES)}")
    return LearnerSpec(spec, kind, **LEARNER_KINDS[kind][0](arg.strip(), kind, text))


# -------------------------------------------------------------- comparator

@dataclass(frozen=True)
class ComparatorSpec:
    """A comparator over segments starting at ``boundaries`` (1-based); the
    fixed mixture and the single best expert are one segment from round 1."""

    kind: str
    boundaries: tuple = (1,)

    @property
    def k(self) -> int:
        return len(self.boundaries)


def parse_comparator(text: str) -> ComparatorSpec:
    spec = text.strip().lower()
    if spec in ("fixed-mixture", "single-best"):
        return ComparatorSpec(spec)
    if spec.startswith("shifting"):
        _, sep, arg = spec.partition("=")
        if not sep or not arg:
            raise ConfigError("shifting comparator needs boundaries, e.g. shifting=51,101")
        try:
            extra = tuple(int(v) for v in arg.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad shifting boundaries {arg!r}") from exc
        try:
            SegmentSpec((1,) + extra)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return ComparatorSpec("shifting", (1,) + extra)
    raise ConfigError(f"unknown comparator {text!r}; "
                      "known: fixed-mixture, single-best, shifting=t2,t3,...")


def _segment_fits(cmp_spec: ComparatorSpec, stream: ExpertStream, mask=None) -> list:
    """Best fixed mixture of each segment's rows, in segment order.  Under a
    mask only the segment's unmasked rows count, and a segment without any
    is skipped."""
    fits = []
    for s, e in SegmentSpec(cmp_spec.boundaries).segments(len(stream)):
        rows = stream.p[s - 1 : e]
        if mask is not None:
            rows = rows[mask[s - 1 : e]]
            if not len(rows):
                continue
        fits.append(best_fixed_mixture(ExpertStream(rows)))
    return fits


def _comparator_loss(cmp_spec: ComparatorSpec, stream: ExpertStream, bits: bool):
    """Solve the configured comparator; returns (loss, detail dict), the
    detail's segment losses in the configured unit."""
    if cmp_spec.kind == "single-best":
        i, loss = best_single_expert(stream)
        return loss, {"kind": "single-best", "expert": i + 1}
    fits = _segment_fits(cmp_spec, stream)
    segments = [{"weights": [float(v) for v in s.a], "loss": _scale(s.loss, bits),
                 "iterations": s.iterations, "converged": s.converged} for s in fits]
    if cmp_spec.k == 1:
        detail = segments[0]   # its "loss" is replaced by the reported one
    else:
        detail = {"boundaries": list(cmp_spec.boundaries), "per_segment": segments}
    return float(sum(s.loss for s in fits)), {"kind": cmp_spec.kind, **detail}


def _masked_comparator_loss(cmp_spec: ComparatorSpec, stream: ExpertStream,
                            mask: np.ndarray) -> float:
    """Comparator loss over the non-diverged rounds only (continue mode)."""
    if cmp_spec.kind == "single-best":
        return best_single_expert(ExpertStream(stream.p[mask]))[1]
    return float(sum(s.loss for s in _segment_fits(cmp_spec, stream, mask)))


# ------------------------------------------------------------------ bounds

def ratio_stats(trace: LearnerTrace, stream: ExpertStream) -> dict:
    """Self-confident statistics of a run, over its finite-loss rounds:
    C1 = sum_t max_i (p_it/M_t - 1), C2 = max_{i,t} (p_it/M_t - 1)^2, and
    vmax = max_i sum_t (p_it/M_t - 1)^2."""
    mask = trace.finite_mask()
    if not mask.any():
        return {"c1": 0.0, "c2": 0.0, "vmax": 0.0}
    P = stream.p[: trace.rounds][mask]
    M = trace.predictions[: trace.rounds][mask, None]
    ratio = np.divide(P, M, out=np.zeros_like(P), where=M > 0.0)
    # a displayed prediction can underflow to 0.0 behind a finite loss
    # -ln M (EG): there p/M = p exp(loss), and 0 where p = 0
    under = M[:, 0] == 0.0
    if under.any():
        with np.errstate(over="ignore", invalid="ignore"):
            inv = np.exp(trace.losses[mask][under])[:, None]
            ratio[under] = np.where(P[under] > 0.0, P[under] * inv, 0.0)
    excess = ratio - 1.0
    sq = excess ** 2
    return {
        "c1": float(excess.max(axis=1).sum()),
        "c2": float(sq.max()),
        "vmax": float(sq.sum(axis=0).max()),
    }


def stream_best_count(stream: ExpertStream) -> int:
    """Number of experts that are ever a per-round argmax (tie rule included)."""
    tracker = BestSetTracker()
    for t, p in enumerate(stream, 1):
        tracker.update(p, t)
    return tracker.total_best


class _BoundInput(NamedTuple):
    """What a bound may depend on, for one learner's run."""

    T: int
    N: int
    eta: float | None       # the learner's constant rate, if it has one
    m: Callable             # () -> experts ever best
    K: int                  # comparator segments
    stats: Callable         # () -> ratio_stats of the run


def _constant_or_tuned(variant: str, tuned: str, params=lambda b: {},
                       constant_params=lambda b: {}):
    """A bound stated for a constant rate in (0, 1), falling back to its
    tuned form when the learner's schedule is not constant."""
    def bound(b: _BoundInput):
        extra = params(b)
        if b.eta is not None and 0.0 < b.eta < 1.0:
            return theoretical_bound(variant, T=b.T, N=b.N, eta=b.eta,
                                     **constant_params(b), **extra), None
        return theoretical_bound(tuned, T=b.T, N=b.N, **extra), "tuned form (no constant rate)"
    return bound


def _single_expert(b: _BoundInput):
    if b.eta is None or not 0.0 < b.eta <= 1.0:
        return None, "needs a constant rate in (0, 1]"
    return theoretical_bound("single-expert", eta=b.eta, prior_entry=1.0 / b.N), None


# --bound choice -> bound(_BoundInput) -> (value or None, note or None)
BOUNDS = {
    "thm2": _constant_or_tuned("thm2", "thm2_tuned_n", constant_params=lambda b: {"m": b.m()}),
    "thm3": _constant_or_tuned("thm3_max", "thm3_tuned", lambda b: {"c2": b.stats()["c2"]}),
    "thm4": _constant_or_tuned("thm4", "thm4_tuned", lambda b: {"c1": b.stats()["c1"]}),
    "thm5": lambda b: (theoretical_bound("thm5", T=b.T, N=b.N), None),
    "thm6": lambda b: (theoretical_bound("thm6", T=b.T, N=b.N, m=b.m()), None),
    "thm7": lambda b: ((None, "needs T >= 2") if b.T < 2
                       else (theoretical_bound("thm7", T=b.T, N=b.N, K=b.K), None)),
    "single-expert": _single_expert,
}

CLI_BOUNDS = tuple(BOUNDS)


# ------------------------------------------------------------------ config

# the JSON types each config-file key takes, None standing for null; they are
# matched exactly, so a boolean is not an integer
_CONFIG_TYPES = {
    "stream": (str, None), "generator": (str, None), "learners": (list,),
    "comparator": (str,), "bounds": (list,), "seed": (int, None),
    "on_divergence": (str,), "bits": (bool,), "out_csv": (str, None), "out_json": (str, None),
}
_JSON_TYPE_NAMES = {str: "a string", list: "a list", int: "an integer", bool: "a boolean",
                    None: "null"}


@dataclass
class ExperimentConfig:
    stream: str | None = None
    generator: str | None = None
    learners: tuple = ()
    comparator: str = "fixed-mixture"
    bounds: tuple = ()
    seed: int | None = None
    on_divergence: str = "halt"
    bits: bool = False
    out_csv: str | None = None
    out_json: str | None = None

    def __post_init__(self):
        self.learners = tuple(self.learners)
        self.bounds = tuple(self.bounds)
        if not self.learners:
            raise ConfigError("at least one learner is required")
        if (self.stream is None) == (self.generator is None):
            raise ConfigError("exactly one of a stream file or a generator is required")
        if self.on_divergence not in ("halt", "continue"):
            raise ConfigError(f"unknown divergence policy {self.on_divergence!r}")
        # fail fast on unparsable selectors
        self.learner_specs = [self._learner_spec(entry) for entry in self.learners]
        self.comparator_spec = parse_comparator(self.comparator)
        for b in self.bounds:
            if b not in CLI_BOUNDS:
                raise ConfigError(f"unknown bound {b!r}; known: {', '.join(CLI_BOUNDS)}")
        if self.generator is not None:
            try:
                self.generator_spec = parse_generator(self.generator)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        else:
            self.generator_spec = None

    @staticmethod
    def _learner_spec(entry) -> LearnerSpec:
        if isinstance(entry, str):
            return parse_learner(entry)
        if isinstance(entry, dict):
            unknown = set(entry) - {"spec", "prior"}
            if unknown or "spec" not in entry:
                raise ConfigError("learner objects take exactly 'spec' and optional 'prior'")
            if not isinstance(entry["spec"], str):
                raise ConfigError("learner key 'spec' must be a string")
            base = parse_learner(entry["spec"])
            prior = entry.get("prior")
            if prior is None:
                return base
            # a string is iterable and a boolean is an int: neither is a number list
            if (not isinstance(prior, (list, tuple))
                    or any(type(v) not in (int, float) for v in prior)):
                raise ConfigError("learner key 'prior' must be a list of numbers")
            return replace(base, prior=tuple(float(v) for v in prior))
        raise ConfigError("learner entries must be selector strings or "
                          "{'spec': ..., 'prior': [...]} objects")

    @staticmethod
    def from_json_file(path: str, **overrides) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        allowed = {f.name for f in fields(ExperimentConfig)}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in data.items():
            kinds = _CONFIG_TYPES[key]
            if (None if value is None else type(value)) not in kinds:
                raise ConfigError(f"config key {key!r} must be "
                                  + " or ".join(_JSON_TYPE_NAMES[k] for k in kinds))
        data.update({k: v for k, v in overrides.items() if v not in (None, (), [])})
        return ExperimentConfig(**data)


# --------------------------------------------------------------- execution

def _text_rows(block: np.ndarray, bits=False) -> list:
    """The unit rule for artifact numbers, on a 2-D block of them: each row
    as its comma-joined cells, a cell empty for NaN and otherwise the value's
    ``repr``, after converting to bits where ``bits`` (one flag, or one per
    column) asks.  Infinities stay infinite in either unit.

    One ``repr`` of the whole block does the formatting: a list's ``repr``
    joins its floats' ``repr`` texts with ``", "``, and no float's text but
    NaN's contains ``nan``."""
    if np.any(bits):
        block = np.where(bits, block / LN2, block)
    text = repr(block.tolist())[2:-2]
    return text.replace(", ", ",").replace("nan", "").split("],[")


def _fmt(value: float | None, bits: bool = False) -> str:
    """One artifact number as text under ``_text_rows``'s rule; None is
    empty, like NaN."""
    return _text_rows(np.array([[value]], dtype=float), bits)[0]


def _scale(value: float | None, bits: bool):
    """The JSON form of ``_fmt``: None for empty text, infinities as text,
    other numbers as floats (exact, since ``float(repr(x)) == x``)."""
    text = _fmt(value, bits)
    if not text:
        return None
    return text if text in ("inf", "-inf") else float(text)


@dataclass
class RunArtifact:
    config: ExperimentConfig
    stream: ExpertStream
    traces: list
    reports: list
    summary: dict
    csv_text: str
    exit_code: int

    def write(self) -> None:
        if self.config.out_csv:
            with open(self.config.out_csv, "w", encoding="utf-8") as fh:
                fh.write(self.csv_text)
        if self.config.out_json:
            with open(self.config.out_json, "w", encoding="utf-8") as fh:
                json.dump(self.summary, fh, sort_keys=True, indent=2)
                fh.write("\n")


def _csv_table(config: ExperimentConfig, stream: ExpertStream, traces: list) -> str:
    T = len(stream)
    width = max(t.weights.shape[1] if t.weights.size else 0 for t in traces)
    stride = 1 if stream.n_experts <= 16 else max(1, math.ceil(T / 1000))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["learner", "t", "eta", "prediction", "loss", "cum_loss"]
                    + [f"w{i + 1}" for i in range(width)])
    # rate, prediction, loss, cum_loss, weights: losses take the unit
    bits = np.array([False, False, True, True] + [False] * width) & config.bits
    for trace in traces:
        # the name quoted as the csv module would, and a comma
        head = io.StringIO()
        csv.writer(head, lineterminator="\n").writerow([trace.name, ""])
        prefix = head.getvalue()[:-1]
        cum = trace.cumulative_losses
        n = trace.rounds
        for start in range(0, n, BLOCK_ROWS):
            t = np.arange(start + 1, min(start + BLOCK_ROWS, n) + 1)
            rows = slice(start, t[-1])
            # a weight snapshot every stride-th round and on the last; NaN
            # renders every other weight cell empty
            snapshot = (t % stride == 0) | (t == n)
            w = np.full((len(t), width), np.nan)
            w[snapshot, : trace.weights.shape[-1]] = trace.weights[rows][snapshot]
            block = np.column_stack([trace.rates[rows], trace.predictions[rows],
                                     trace.losses[rows], cum[rows], w])
            buf.writelines(f"{prefix}{i},{cells}\n"
                           for i, cells in zip(t.tolist(), _text_rows(block, bits)))
    return buf.getvalue()


def run_experiment(config: ExperimentConfig) -> RunArtifact:
    """Execute every learner over the configured stream, fit the comparator,
    evaluate bounds, and assemble deterministic artifacts.

    The exit code is 1 when any evaluated bound check fails, else 0.
    """
    if config.generator_spec is not None:
        stream = config.generator_spec.build(config.seed)
        source = f"generator:{config.generator_spec}"
    else:
        stream = load_stream(config.stream)
        source = f"file:{config.stream}"
    cmp_spec = config.comparator_spec
    SegmentSpec(cmp_spec.boundaries).segments(len(stream))  # range check

    names = set()
    traces = []
    for spec in config.learner_specs:
        learner = spec.build(stream.n_experts)
        name = spec.text
        while name in names:
            name += "'"
        names.add(name)
        learner.name = name
        traces.append(run_learner(learner, stream, config.on_divergence))

    comparator_loss, detail = _comparator_loss(cmp_spec, stream, config.bits)
    m_best = functools.cache(lambda: stream_best_count(stream))

    reports, learner_summaries = [], []
    for spec, trace in zip(config.learner_specs, traces):
        excluded = 0
        exclude = trace.diverged and config.on_divergence == "continue"
        if exclude:
            mask = trace.finite_mask()
            excluded = int((~mask).sum())
            cmp_loss_i = _masked_comparator_loss(cmp_spec, stream, mask)
        else:
            cmp_loss_i = comparator_loss
        report = regret_report(trace, cmp_loss_i, exclude_diverged=exclude)
        reports.append(report)

        rows = []
        b = _BoundInput(len(stream), stream.n_experts, spec.constant_rate, m_best,
                        cmp_spec.k, functools.cache(lambda: ratio_stats(trace, stream)))
        for variant in config.bounds:
            value, note = (None, "bounds need N >= 2") if b.N < 2 else BOUNDS[variant](b)
            row = {"variant": variant, "value": _scale(value, config.bits),
                   "satisfied": regret_report(trace, cmp_loss_i, value,
                                              exclude_diverged=exclude).bound_satisfied}
            if math.isnan(report.regret) and value is not None:
                note = "; ".join(filter(None, (note, "regret undefined: both losses infinite")))
            if note:
                row["note"] = note
            rows.append(row)

        learner_summaries.append({
            "name": trace.name,
            "loss": _scale(report.learner_loss, config.bits),
            "comparator_loss": _scale(cmp_loss_i, config.bits),
            "regret": _scale(report.regret, config.bits),
            "diverged": trace.diverged,
            "halted_at": trace.halted_at,
            "excluded_rounds": excluded,
            "rounds": trace.rounds,
            "bounds": rows,
        })

    exit_code = int(any(row["satisfied"] is False
                        for entry in learner_summaries for row in entry["bounds"]))
    detail["loss"] = _scale(comparator_loss, config.bits)
    summary = {
        "config": {
            "stream": config.stream,
            "generator": str(config.generator_spec) if config.generator_spec else None,
            "learners": list(config.learners),
            "comparator": config.comparator,
            "bounds": list(config.bounds),
            "seed": config.seed,
            "on_divergence": config.on_divergence,
            "units": "bits" if config.bits else "nats",
        },
        "stream": {"rounds": len(stream), "experts": stream.n_experts, "source": source},
        "rng": {"name": RNG_NAME, "seed": config.seed},
        "comparator": detail,
        "learners": learner_summaries,
        "exit_code": exit_code,
    }
    return RunArtifact(
        config=config,
        stream=stream,
        traces=traces,
        reports=reports,
        summary=summary,
        csv_text=_csv_table(config, stream, traces),
        exit_code=exit_code,
    )

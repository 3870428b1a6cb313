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
    best_fixed_mixture,
    best_single_expert,
    regret_report,
    theoretical_bound,
)
from .core import BadRoundError, ExpertStream, read_count, read_name, read_number
from .generators import RNG_NAME, parse_generator, read_seed
from .learners import (
    DIVERGENCE_POLICIES,
    Bayes,
    ExponentiatedGradient,
    LearnerTrace,
    MetaBayes,
    MLSoftBayes,
    OnlineGradientDescent,
    SoftBayes,
    run_learner,
)
from .rates import SCHEDULE_KINDS, BestSetTracker, ScheduleConfig, parse_schedule

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
    # a boolean is an int to isinstance, but it is not a symbol
    if not isinstance(dists, list) or not dists or type(x) is not int:
        raise StreamFormatError(f"line {lineno}: full round needs 'dists' and integer 'x'")
    alphabet = len(dists[0]) if isinstance(dists[0], list) else 0
    if not 1 <= x <= alphabet:
        raise StreamFormatError(f"line {lineno}: symbol x={x} outside [1, {alphabet}]")
    if not all(isinstance(d, list) and len(d) >= x for d in dists):
        raise StreamFormatError(f"line {lineno}: malformed 'dists': each distribution "
                                f"must be a list covering symbol x={x}")
    return [d[x - 1] for d in dists]


# a reduced round on one line, its list holding nothing but number characters
_REDUCED_LINE = re.compile(r'[ \t]*\{[ \t]*"p"[ \t]*:[ \t]*\[[-+.0-9eE, \t]*\][ \t]*\}[ \t]*\r?')


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
        if "p" in obj and "dists" in obj:
            raise StreamFormatError(f"line {lineno}: round has both 'p' and 'dists'")
        if "p" in obj:
            row = obj["p"]
            if not isinstance(row, list):
                raise StreamFormatError(f"line {lineno}: 'p' must be a list")
        elif "dists" in obj:
            row = _reduce_full_round(obj, lineno)
        else:
            raise StreamFormatError(f"line {lineno}: round needs 'p' or 'dists'+'x'")
        # float() would take a numeric string or a boolean: neither is a JSON number
        bad = [v for v in row if type(v) not in (int, float)]
        if bad:
            raise StreamFormatError(f"line {lineno}: non-numeric probability {bad[0]!r}")
        try:
            values = [float(v) for v in row]
        except OverflowError:   # an integer beyond the float range
            raise StreamFormatError(
                f"line {lineno}: stream probabilities must lie in [0, 1]") from None
        if rounds and len(values) != len(rounds[0]):
            raise StreamFormatError(
                f"line {lineno}: expected {len(rounds[0])} experts, got {len(values)}")
        rounds.append(values)
    if not rounds:
        raise StreamFormatError("stream file contains no rounds")
    return np.asarray(rounds, dtype=float)


def _stream(p: np.ndarray, line_of_round) -> ExpertStream:
    """The stream of the rounds read, its errors as StreamFormatError; a bad
    round is named by its source line, ``line_of_round(round)``."""
    try:
        return ExpertStream(p)
    except BadRoundError as exc:
        raise StreamFormatError(f"line {line_of_round(exc.round)}: {exc.reason}") from exc
    except ValueError as exc:
        raise StreamFormatError(str(exc)) from exc


def read_stream_jsonl(text: str) -> ExpertStream:
    # a line ends at "\n" alone, so a JSON string may hold any other break
    lines = text.split("\n")
    p = _bulk_rounds(lines)
    if p is None:
        p = _per_line_rounds(lines)
    # a round is a non-blank line
    return _stream(p, lambda r: [i for i, line in enumerate(lines, 1) if line.strip()][r - 1])


def read_stream_csv(text: str) -> ExpertStream:
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, row) for row in reader if row]
    if len(rows) < 2:
        raise StreamFormatError("CSV stream needs a header row plus at least one round")
    header = rows[0][1]
    try:
        [read_number(cell) for cell in header]
    except ValueError:
        pass
    else:
        raise StreamFormatError("CSV stream must start with a non-numeric header row")
    rounds = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise StreamFormatError(f"line {lineno}: expected {len(header)} columns, got {len(row)}")
        try:
            rounds.append([read_number(cell) for cell in row])
        except ValueError as exc:
            raise StreamFormatError(f"line {lineno}: non-numeric probability: {exc}") from exc
    return _stream(np.asarray(rounds, dtype=float), lambda r: rows[r][0])


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
    """Parsed learner selector, e.g. ``soft-bayes:anytime`` or ``eg:fixed=0.5``:
    its text, its kind, and ``arg``, what the kind's parser read from the
    rest (a ``ScheduleConfig``, a rate, a tuple of rates, or None).

    A non-uniform prior comes in through the config file, where a learner
    entry may be ``{"spec": "...", "prior": [...]}`` instead of a string.
    """

    text: str
    kind: str
    arg: object = None
    prior: tuple | None = None

    def build(self, n: int):
        prior = None if self.prior is None else list(self.prior)
        return LEARNER_KINDS[self.kind][1](self.arg, n, prior=prior, name=self.text)

    @property
    def constant_rate(self) -> float | None:
        """The learner's constant rate when it has one (drives bound tables)."""
        return LEARNER_KINDS[self.kind][2](self.arg)


def _schedule_arg(arg: str, kind: str, text: str) -> ScheduleConfig:
    try:
        return parse_schedule(arg) if arg else ScheduleConfig("anytime")
    except ValueError as exc:
        raise ConfigError(f"bad schedule in {text!r}: {exc}") from exc


def _no_arg(why: str):
    def parse(arg: str, kind: str, text: str) -> None:
        if arg:
            raise ConfigError(f"{kind} takes no schedule ({why})")
    return parse


def _keyword_value(arg: str, keyword: str) -> str | None:
    """The value of a ``keyword=value`` argument, ``:`` standing for ``=``
    and the keyword read by ``read_name``, as ``parse_schedule`` reads a
    schedule; None when ``arg`` is not of that form."""
    head, *value = re.split("[:=]", arg, maxsplit=1)
    return value[0] if value and read_name(head, (keyword,)) else None


def _fixed_rate_arg(arg: str, kind: str, text: str) -> float:
    if not arg:
        raise ConfigError(f"{kind} needs a rate, e.g. {kind}:fixed=0.5")
    value = _keyword_value(arg, "fixed")
    if value is None:
        raise ConfigError(f"{kind} takes only a fixed rate, e.g. {kind}:fixed=0.5")
    try:
        eta = read_number(value)
    except ValueError as exc:
        raise ConfigError(f"bad rate for {kind}: {value!r}") from exc
    if not eta > 0.0:
        raise ConfigError(f"{kind} rate must be positive")
    if math.isinf(eta):
        raise ConfigError(f"{kind} rate {value.strip()!r} must be finite")
    return eta


def _rates_arg(arg: str, kind: str, text: str) -> tuple:
    value = _keyword_value(arg, "rates")
    if value is None:
        raise ConfigError("meta needs sub-rates, e.g. meta:rates=1,0.5,0.25")
    try:
        rates = tuple(read_number(v) for v in value.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad meta rates {value!r}") from exc
    if not rates or any(not 0.0 < r <= 1.0 for r in rates):
        raise ConfigError("meta rates must lie in (0, 1]")
    return rates


# selector kind -> (argument parser (arg, kind, text) -> LearnerSpec.arg,
#                   factory (arg, n, prior=, name=), constant rate (arg))
LEARNER_KINDS = {
    "soft-bayes": (_schedule_arg, lambda a, n, **kw: SoftBayes(n, a.build(n), **kw),
                   lambda a: a.param if a.kind == "fixed" else None),
    "bayes": (_no_arg("it is soft-bayes at rate 1"), lambda a, n, **kw: Bayes(n, **kw),
              lambda a: 1.0),
    "eg": (_fixed_rate_arg, lambda a, n, **kw: ExponentiatedGradient(n, a, **kw),
           lambda a: a),
    "ogd": (_fixed_rate_arg, lambda a, n, **kw: OnlineGradientDescent(n, a, **kw),
            lambda a: a),
    "ml-soft-bayes": (_no_arg("rates are per-expert"), lambda a, n, **kw: MLSoftBayes(n, **kw),
                      lambda a: None),
    "meta": (_rates_arg, lambda a, n, **kw: MetaBayes(n, a, **kw), lambda a: None),
}


def parse_learner(text: str) -> LearnerSpec:
    """A learner selector's spec, whose text spells the learner's name and
    its argument's (a schedule or a keyword) as their tables key them."""
    head, _, arg = text.strip().partition(":")
    kind = read_name(head, LEARNER_KINDS)
    if kind is None:
        raise ConfigError(f"unknown learner {text!r}; known: {', '.join(LEARNER_KINDS)}")
    arg = arg.strip()
    name, *value = re.split("([:=])", arg, maxsplit=1)
    name = read_name(name, (*SCHEDULE_KINDS, "rates")) or name
    return LearnerSpec(":".join(filter(None, (kind, name + "".join(value)))), kind,
                       LEARNER_KINDS[kind][0](arg, kind, text))


# -------------------------------------------------------------- comparator

@dataclass(frozen=True)
class ComparatorSpec:
    """A comparator of ``kind`` over segments starting at ``boundaries``,
    t_1 = 1 < t_2 < ... (1-based rounds): segment k runs from t_k through
    t_{k+1} - 1, the last through T; the default is one segment."""

    kind: str
    boundaries: tuple = (1,)

    def __post_init__(self):
        if self.kind not in COMPARATOR_KINDS:
            raise ValueError(f"unknown comparator kind {self.kind!r}; "
                             f"known: {', '.join(COMPARATOR_KINDS)}")
        b = tuple(read_count(t, f"comparator {self.kind!r} boundary") for t in self.boundaries)
        if not b or b[0] != 1:
            raise ValueError("boundaries must start at round 1")
        if any(y <= x for x, y in zip(b, b[1:])):
            raise ValueError("boundaries must be strictly increasing")
        if len(b) > 1 and not COMPARATOR_KINDS[self.kind][0]:
            raise ValueError(f"comparator {self.kind!r} takes no boundaries, got {b!r}")
        object.__setattr__(self, "boundaries", b)

    @property
    def k(self) -> int:
        return len(self.boundaries)

    def __str__(self):
        extra = ",".join(map(str, self.boundaries[1:]))
        return f"{self.kind}={extra}" if extra else self.kind

    def segments(self, T: int) -> list:
        """Inclusive 1-based (start, end) pairs covering rounds 1..T."""
        if self.boundaries[-1] > T:
            raise ValueError(f"boundary {self.boundaries[-1]} beyond horizon {T}")
        return list(zip(self.boundaries, [t - 1 for t in self.boundaries[1:]] + [T]))

    def rows(self, stream: ExpertStream, mask=None):
        """Each segment's rows as a stream, in segment order.  Under a boolean
        ``mask`` over the rounds only the rows where it is true count, and a
        segment without any is skipped.  Each segment's rows, a view of
        ``stream``'s where no mask is given, are held to the stream rule as
        every stream is."""
        for s, e in self.segments(len(stream)):
            p = stream.p[s - 1 : e] if mask is None else stream.p[s - 1 : e][mask[s - 1 : e]]
            if len(p):   # only a mask can empty a segment
                yield ExpertStream(p)


def _mixture_fit(rows: ExpertStream, bits: bool):
    s = best_fixed_mixture(rows)
    return s.loss, {"weights": [float(v) for v in s.a], "iterations": s.iterations,
                    "gap": _scale(s.gap, bits), "converged": s.converged}


def _vertex_fit(rows: ExpertStream, bits: bool):
    i, loss = best_single_expert(rows)
    return loss, {"expert": i + 1}


# comparator kind -> (takes boundaries, per-segment fit (rows, bits) -> (loss
# in nats, detail)); a fit calls its solver by the name this module holds
COMPARATOR_KINDS = {
    "fixed-mixture": (False, _mixture_fit),
    "single-best": (False, _vertex_fit),
    "shifting": (True, _mixture_fit),
}


def parse_comparator(text: str) -> ComparatorSpec:
    kind, sep, arg = text.strip().partition("=")
    kind = read_name(kind, COMPARATOR_KINDS)
    if kind is None or (sep and not COMPARATOR_KINDS[kind][0]):
        known = ", ".join(f"{k}=t2,t3,..." if takes else k
                          for k, (takes, _) in COMPARATOR_KINDS.items())
        raise ConfigError(f"unknown comparator {text!r}; known: {known}")
    if not COMPARATOR_KINDS[kind][0]:
        return ComparatorSpec(kind)
    if not arg:
        raise ConfigError(f"{kind} comparator needs boundaries, e.g. {kind}=51,101")
    try:
        extra = tuple(read_count(v) for v in arg.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {kind} boundaries {arg!r}") from exc
    # round 1 starts the first segment, so a boundary names a later round
    for t in extra:
        if t <= 1:
            raise ConfigError(f"{kind} boundary {t} must be a round after 1")
    try:
        return ComparatorSpec(kind, (1,) + extra)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _comparator_loss(cmp_spec: ComparatorSpec, stream: ExpertStream, bits: bool,
                     mask=None):
    """Fit the comparator segment by segment over the rounds ``mask`` keeps
    (all of them when None); returns (loss, detail dict), the detail's
    losses in the configured unit."""
    fit = COMPARATOR_KINDS[cmp_spec.kind][1]
    fits = [fit(rows, bits) for rows in cmp_spec.rows(stream, mask)]
    # added left to right: from Python 3.12, sum() of floats is compensated
    loss = 0.0
    for segment_loss, _ in fits:
        loss += segment_loss
    segments = [{**detail, "loss": _scale(segment_loss, bits)} for segment_loss, detail in fits]
    detail = (segments[0] if cmp_spec.k == 1 and segments else   # a mask can leave none
              {"boundaries": list(cmp_spec.boundaries), "per_segment": segments})
    return loss, {"kind": cmp_spec.kind, **detail, "loss": _scale(loss, bits)}


def _masked_comparator_loss(cmp_spec: ComparatorSpec, stream: ExpertStream,
                            mask: np.ndarray) -> float:
    """Comparator loss over the non-diverged rounds only (continue mode)."""
    return _comparator_loss(cmp_spec, stream, False, mask)[0]


# ------------------------------------------------------------------ bounds

def ratio_stats(trace: LearnerTrace, stream: ExpertStream) -> dict:
    """Self-confident statistics of a run, over its finite-loss rounds:
    C1 = sum_t max_i (p_it/M_t - 1) and C2 = max_{i,t} (p_it/M_t - 1)^2."""
    mask = trace.finite_mask()
    if not mask.any():
        return {"c1": 0.0, "c2": 0.0}
    P = stream.p[: trace.rounds][mask]
    M = trace.predictions[: trace.rounds][mask, None]
    # p/M and its square overflow when M is tiny; inf is then the statistic.
    # A displayed prediction can underflow to 0.0 behind a finite loss -ln M
    # (EG): that loss exceeds 745, so p/M = p exp(loss) is past exp's float
    # range too, and p/0.0 reads it as inf (0 where p = 0)
    with np.errstate(over="ignore", divide="ignore"):
        ratio = np.divide(P, M, out=np.zeros_like(P), where=P > 0.0)
        excess = ratio - 1.0
        c2 = float((excess ** 2).max())
    # a round's max_i p_i/M - 1 is at least 0, which rounding can miss
    return {"c1": float(np.maximum(excess.max(axis=1), 0.0).sum()), "c2": c2}


def stream_best_count(stream: ExpertStream) -> int:
    """Number of experts that are ever a per-round argmax (tie rule included)."""
    tracker = BestSetTracker()
    for p in map(np.ndarray.tolist, stream.p):
        tracker.update(p)
    return tracker.m


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
    tuned form, with a note that says why, when the learner's schedule is
    not constant or its constant rate (Bayes's 1.0, say) lies outside."""
    def bound(b: _BoundInput):
        extra = params(b)
        if b.eta is not None and 0.0 < b.eta < 1.0:
            return theoretical_bound(variant, T=b.T, N=b.N, eta=b.eta,
                                     **constant_params(b), **extra), None
        why = "no constant rate" if b.eta is None else f"constant rate {b.eta!r} outside (0, 1)"
        return theoretical_bound(tuned, T=b.T, N=b.N, **extra), f"tuned form ({why})"
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
        if self.on_divergence not in DIVERGENCE_POLICIES:
            raise ConfigError(f"unknown divergence policy {self.on_divergence!r}")
        # a seed the generators would refuse is refused before a run records it
        if self.seed is not None:
            try:
                self.seed = read_seed(self.seed)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        # fail fast on unparsable selectors; a run records each as the
        # tables spell its names and its counts read
        self.learner_specs = [self._learner_spec(entry) for entry in self.learners]
        self.learners = tuple(s.text if isinstance(e, str) else {**e, "spec": s.text}
                              for e, s in zip(self.learners, self.learner_specs))
        self.comparator_spec = parse_comparator(self.comparator)
        self.comparator = str(self.comparator_spec)
        for b in self.bounds:
            if not isinstance(b, str) or read_name(b, BOUNDS) is None:
                raise ConfigError(f"unknown bound {b!r}; known: {', '.join(BOUNDS)}")
        self.bounds = tuple(read_name(b, BOUNDS) for b in self.bounds)
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

    The block crosses to Python floats once, and each row is the ``repr``
    of its floats joined by commas; no float's text but NaN's contains
    ``nan``, so only a block that holds a NaN is searched for it."""
    if np.any(bits):
        block = np.where(bits, block / LN2, block)
    rows = [",".join(map(repr, row)) for row in block.tolist()]
    if np.isnan(block).any():
        rows = [row.replace("nan", "") for row in rows]
    return rows


def _scale(value: float | None, bits: bool):
    """One artifact number in its JSON form, under ``_text_rows``'s rule:
    None for NaN or None, infinities as text, other numbers as floats
    (exact, since ``float(repr(x)) == x``)."""
    text = _text_rows(np.array([[value]], dtype=float), bits)[0]
    if not text:
        return None
    return text if text in ("inf", "-inf") else float(text)


@dataclass
class RunArtifact:
    config: ExperimentConfig
    stream: ExpertStream
    traces: list
    summary: dict

    @property
    def exit_code(self) -> int:
        """The summary's: 1 when an evaluated bound check failed, else 0."""
        return self.summary["exit_code"]

    def write(self) -> None:
        """Write the artifacts the config names a path for.  The trace CSV
        is rendered here and only here, so a run that writes none renders
        none; each block goes to the file as soon as it is rendered, so the
        whole table is never held at once.

        A trace must keep its weights at the stride the CSV prints them at;
        one run for another config (a config changed after the run, say) is
        refused before any file is opened, as its rows would print under the
        wrong rounds."""
        config, stream, traces = self.config, self.stream, self.traces
        if config.out_csv:
            stride = _weight_stride(config, stream)
            for trace in traces:
                if trace.every != stride:
                    raise ValueError(f"trace {trace.name!r} keeps its weights at stride "
                                     f"{trace.every}, but the CSV prints them at stride {stride}")
            width = max(t.weights.shape[1] if t.weights.size else 0 for t in traces)
            head = _csv_line(["learner", "t", "eta", "prediction", "loss", "cum_loss"]
                             + [f"w{i + 1}" for i in range(width)])
            # rate, prediction, loss, cum_loss, weights: losses take the unit
            bits = np.array([False, False, True, True] + [False] * width) & config.bits
            with open(config.out_csv, "w", encoding="utf-8") as fh:
                for trace in traces:
                    cum = trace.cumulative_losses
                    # an empty first trace still has the block with the header
                    for start in range(0, trace.rounds or int(bool(head)), BLOCK_ROWS):
                        fh.write(_csv_table(trace, start, cum, head, bits))
                        head = ""
        if config.out_json:
            with open(config.out_json, "w", encoding="utf-8") as fh:
                json.dump(self.summary, fh, sort_keys=True, indent=2)
                fh.write("\n")


def _csv_line(cells: list) -> str:
    """One CSV record, quoted as the csv module quotes it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _weight_stride(config: ExperimentConfig, stream: ExpertStream) -> int:
    """The stride of the weight rows a run keeps, which is the stride the
    trace CSV prints them at (and on each trace's last round): every round
    up to 16 experts and every ceil(T/1000)-th above it; with no CSV named,
    the last round only."""
    T = len(stream)
    if not config.out_csv:
        return max(1, T)
    return 1 if stream.n_experts <= 16 else max(1, math.ceil(T / 1000))


def _csv_table(trace: LearnerTrace, start: int, cum: np.ndarray, head: str,
               bits: np.ndarray) -> str:
    """One block of the trace CSV: ``head`` (the file's header row, or
    empty after its first block), then the rows of ``trace`` for rounds
    ``start + 1`` to ``start + BLOCK_ROWS`` (or its last).  ``cum`` is the
    trace's ``cumulative_losses``, taken once for the trace and sliced here;
    ``bits`` is the file's unit mask, whose columns past the fourth are its
    weights.  The weights print at the trace's own stride ``every``, which
    ``RunArtifact.write`` has checked against the CSV's."""
    n, stride = trace.rounds, trace.every
    if start >= n:
        return head
    # the name quoted as the csv module would, and a comma
    prefix = _csv_line([trace.name, ""])[:-1]
    t = np.arange(start + 1, min(start + BLOCK_ROWS, n) + 1)
    rows = slice(start, t[-1])
    # a weight snapshot every stride-th round and on the last, the rounds
    # whose rows the trace kept (round r in row (r - 1) // stride); NaN
    # renders every other weight cell empty
    snapshot = (t % stride == 0) | (t == n)
    w = np.full((len(t), len(bits) - 4), np.nan)
    w[snapshot, : trace.weights.shape[-1]] = trace.weights[(t[snapshot] - 1) // stride]
    block = np.column_stack([trace.rates[rows], trace.predictions[rows],
                             trace.losses[rows], cum[rows], w])
    return head + "".join(f"{prefix}{i},{cells}\n"
                          for i, cells in zip(t.tolist(), _text_rows(block, bits)))


def run_experiment(config: ExperimentConfig) -> RunArtifact:
    """Execute every learner over the configured stream, fit the comparator,
    evaluate bounds, and assemble the summary; ``RunArtifact.write`` writes
    the deterministic artifacts.

    The exit code is 1 when any evaluated bound check fails, else 0.
    """
    if config.generator_spec is not None:
        stream = config.generator_spec.build(config.seed)
        source = f"generator:{config.generator_spec}"
    else:
        stream = load_stream(config.stream)
        source = f"file:{config.stream}"
    cmp_spec = config.comparator_spec
    cmp_spec.segments(len(stream))  # range check

    names = set()
    traces = []
    every = _weight_stride(config, stream)
    for spec in config.learner_specs:
        learner = spec.build(stream.n_experts)
        name = spec.text
        while name in names:
            name += "'"
        names.add(name)
        learner.name = name
        traces.append(run_learner(learner, stream, config.on_divergence, every))

    comparator_loss, detail = _comparator_loss(cmp_spec, stream, config.bits)
    m_best = functools.cache(lambda: stream_best_count(stream))

    learner_summaries = []
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
    return RunArtifact(config, stream, traces, summary)

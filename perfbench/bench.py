"""Closed-loop benchmark of the softbayes command line.

One run drives one workload through ``softbayes.cli.main(argv)`` with a
single client in a single process: the next operation starts when the
previous one returns, and nothing here starts threads.  Every operation's
output is checked; a failed operation is counted, never fatal.

With ``trace`` off the run reports the end-to-end metrics.  Their times are
scaled to a reference host speed by a :class:`HostProbe`, which times a
tiny fixed kernel every 20 ms while an operation runs.  The host this runs
on is shared and its speed drifts by up to 2x in phases of tens of seconds;
the probe slows with it, so the scaled times hold still while the raw ones,
printed beside them, follow the host.  With ``trace`` on, operations
alternate between untraced and traced (see ``tracing.py``), and the run
reports the per-layer metrics, unscaled and unprobed, plus the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import softbayes.cli as cli
from softbayes.comparators import best_single_expert
from softbayes.core import ExpertStream
from softbayes.generators import parse_generator
from softbayes.harness import write_stream_jsonl

import tracing

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "rounds_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "success_rate": ("ratio", "higher"),
}

COMPARE_LEARNERS = ("soft-bayes:anytime", "soft-bayes:sparse", "soft-bayes:shifting",
                    "soft-bayes:self-confident", "eg:fixed=0.5", "ogd:fixed=0.1",
                    "ml-soft-bayes", "meta:rates=1,0.5,0.25")

PER_LAYER = {
    "generators.build_s": ("s", "lower"),
    "harness.ingest_s": ("s", "lower"),
    "harness.ingest_bytes": ("bytes", "lower"),
    "harness.ingest_us_per_round": ("us", "lower"),
    "learners.step_s": ("s", "lower"),
    "learners.rounds": ("count", "higher"),
    "learners.diverged_rounds": ("count", "lower"),
    **{tracing.selector_metric(s): ("us", "lower") for s in COMPARE_LEARNERS},
    **{tracing.selector_metric(s, "diverged_rounds"): ("count", "lower")
       for s in COMPARE_LEARNERS},
    "learners.sweep_s": ("s", "lower"),
    "rates.calls": ("count", "lower"),
    "rates.self_s": ("s", "lower"),
    "comparators.fixed_mixture_s": ("s", "lower"),
    "comparators.fixed_mixture_iters": ("count", "lower"),
    "comparators.masked_solves": ("count", "lower"),
    "comparators.masked_s": ("s", "lower"),
    "comparators.bound_s": ("s", "lower"),
    "harness.best_count_s": ("s", "lower"),
    "harness.ratio_stats_s": ("s", "lower"),
    "harness.render_csv_s": ("s", "lower"),
    "harness.render_csv_bytes": ("bytes", "lower"),
    "harness.write_s": ("s", "lower"),
    "verify.scalar_s": ("s", "lower"),
    "verify.jensen_s": ("s", "lower"),
    "verify.disjoint_s": ("s", "lower"),
    "trace.residual_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Counts that must repeat exactly between runs of one workload and seed.
DETERMINISTIC = ("comparators.fixed_mixture_iters", "comparators.masked_solves",
                 "learners.rounds", "learners.diverged_rounds", "rates.calls",
                 "harness.render_csv_bytes", "harness.ingest_bytes",
                 *(tracing.selector_metric(s, "diverged_rounds") for s in COMPARE_LEARNERS))

VERIFY_CHECKS = 16
# disjoint_equivalence_checks: 3 expert counts x 3 constants, each a sweep of
# 20 seeds plus one sequential replay, T = 1000 rounds
VERIFY_ROUNDS = 3 * 3 * (20 + 1) * 1000
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import softbayes.cli; "
                "print(time.perf_counter() - t)")
PROBE_INTERVAL_S = 0.02
# probe_kernel()'s typical seconds on the machine the README describes;
# scaled times are seconds at that speed
PROBE_REF_S = 0.0005
_PROBE_W, _PROBE_X = np.full(10, 0.1), np.linspace(0.5, 1.5, 10)


def probe_kernel() -> None:
    """A fixed sample of the kinds of work softbayes does, about 0.5 ms: a
    pure-Python integer loop, multiplicative updates of a 10-vector (learner
    stepping) and float ``repr`` joined into text (CSV rendering).

    The mix, about 75/15/10 by time, is the one whose time tracked the
    operations' best on the machine the README describes: sampled inside
    all three workloads, the operation wall over the median probe varied by
    4-6% (coefficient of variation) across operations, against 7-8% with
    equal shares and 16-20% for the raw wall.  Small numpy calls slow down
    far more than the programs' operations do when the host is busy, so
    they get a small share.
    """
    total = 0
    for j in range(4000):
        total += j * j % 7
    w = _PROBE_W
    for _ in range(10):
        d = float(np.dot(w, _PROBE_X))
        w = w * (1.0 + 0.01 * (_PROBE_X / d - 1.0))
        w = w / w.sum()
    ",".join(repr(v) for v in w.tolist() * 3)


class HostProbe:
    """Samples the host's speed while a timed stretch runs.

    Inside the ``with`` block a real-time interval timer raises SIGALRM every
    ``PROBE_INTERVAL_S``; its handler runs in the main thread, between two
    bytecodes of whatever runs there, and times one ``probe_kernel()``.  One
    more sample is taken on entry, so there is always one.  A stretch's
    scaled time is its wall time, less the timer-driven samples inside it,
    times ``PROBE_REF_S`` over the median sample.  No thread or process is
    started.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe_kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, since: int = 1) -> float:
        """Seconds spent in timer-driven samples from index ``since`` on."""
        return sum(self.samples[since:])

    def factor(self) -> float:
        return PROBE_REF_S / statistics.median(self.samples)


@dataclass(frozen=True)
class Workload:
    """A CLI argv template plus what the benchmark needs to check its output.

    ``{seed}`` and ``{out}`` (the run's scratch directory) are filled in per
    run.  ``generator`` names the stream the operation reads.  With
    ``stream_seed`` the stream is built from that fixed seed, its rounds are
    shuffled by the run's seed, and it is written to ``{out}/stream.jsonl``
    during set-up for the CLI to ingest.  A shuffle leaves the rows, and so
    the comparator's solve, the same for every seed; a fresh iid stream per
    seed would make the fixed-mixture solve take from 370 to 10,570
    iterations.  Exit code 1 is the CLI's verdict that a bound check failed,
    so it is expected where a learner the bound does not cover may exceed it.
    """

    name: str
    why: str
    argv: tuple
    generator: str | None = None
    stream_seed: int | None = None
    rounds_per_op: int | None = None
    expected_exits: tuple = (0,)


STREAM_FILE = "{out}/stream.jsonl"


def build_workloads(scale: int = 1) -> dict:
    """The benchmark's workloads; ``scale`` > 1 divides their sizes for tests."""
    def learners(*specs):
        return tuple(a for s in specs for a in ("--learner", s))

    # stream seed 6 gives the median solver difficulty among seeds 1-20
    # (3,179 fixed-mixture iterations)
    e2e_gen = f"iid-mixture:N=10,T={20000 // scale}"
    adv_gen = f"theorem2:T={20000 // scale // 2 * 2}"
    verify_argv = ("verify",) if scale == 1 else ("verify", "--samples", str(100_000 // scale))
    return {w.name: w for w in (
        Workload(
            "e2e-csv",
            "The experiment a user writes artifacts for: CSV rendering, learner "
            "stepping, the comparator and JSONL ingestion share the time.",
            ("run", "--stream", STREAM_FILE)
            + learners("soft-bayes:anytime", "eg:fixed=0.5", "soft-bayes:self-confident")
            + ("--bound", "thm5", "--bound", "thm4",
               "--out-csv", "{out}/trace.csv", "--out-json", "{out}/summary.json"),
            generator=e2e_gen, stream_seed=6,
            # EG's regret exceeds the soft-Bayes bound thm5 on some seeds
            expected_exits=(0, 1)),
        Workload(
            "adversarial-compare",
            "The EG/OGD failure reproduction: per-round stepping of all eight learner "
            "kinds dominates, with the meta learner's NaN underflow kept in.",
            ("compare", "--generator", adv_gen, "--on-divergence", "continue")
            + learners(*COMPARE_LEARNERS),
            generator=adv_gen),
        Workload(
            "verify",
            "The only user of the batched soft_bayes_sweep and the numpy fuzz "
            "suites, so a kernel change that slows the sweep shows here.",
            verify_argv, rounds_per_op=VERIFY_ROUNDS),
    )}


WORKLOADS = build_workloads()


@dataclass
class Prepared:
    argv: list
    artifacts: list
    rounds: int | None = None
    experts: int | None = None
    best_single_loss: float | None = None


def prepare(workload: Workload, seed: int, out: Path) -> Prepared:
    """Fill the argv template and derive the stream invariants to check."""
    argv = [a.format(seed=seed, out=out) for a in workload.argv]
    artifacts = [argv[i + 1] for i, a in enumerate(argv) if a in ("--out-csv", "--out-json")]
    if workload.generator is None:
        return Prepared(argv, artifacts)
    spec = parse_generator(workload.generator)
    if workload.stream_seed is None:
        stream = spec.build(seed)
    else:
        stream = spec.build(workload.stream_seed)
        order = np.random.default_rng(seed).permutation(len(stream))
        stream = ExpertStream(stream.p[order])
        write_stream_jsonl(stream, STREAM_FILE.format(out=out))
    return Prepared(argv, artifacts, len(stream), stream.n_experts,
                    best_single_expert(stream)[1])


@dataclass
class OpResult:
    wall: float
    exit_code: int | None
    error: str | None
    stdout: str
    summary: dict | None
    tracer: tracing.Tracer | None = None
    problems: list = field(default_factory=list)


@contextlib.contextmanager
def recording_summaries(box: list):
    """Pass ``cli.run_experiment`` through, keeping each run summary."""
    original = cli.run_experiment

    def recorded(config):
        artifact = original(config)
        box.append(artifact.summary)
        return artifact

    cli.run_experiment = recorded
    try:
        yield
    finally:
        cli.run_experiment = original


def run_op(argv: list, tracer: tracing.Tracer | None = None) -> OpResult:
    """One CLI invocation; exceptions and exit codes are captured, not raised."""
    summaries, out = [], io.StringIO()
    code, error = None, None
    scope = tracing.traced(tracer) if tracer is not None else contextlib.nullcontext()
    with recording_summaries(summaries), contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        try:
            with scope:
                code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            error = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    return OpResult(wall, code, error, out.getvalue(), summaries[-1] if summaries else None,
                    tracer)


def output_digest(result: OpResult, artifacts: list) -> str | None:
    h = hashlib.sha256(result.stdout.encode())
    for path in artifacts:
        try:
            h.update(Path(path).read_bytes())
        except FileNotFoundError:
            return None
    return h.hexdigest()


def summary_problems(summary: dict, prep: Prepared) -> list:
    """Invariants recomputed from the generated stream."""
    problems = []
    stream = summary["stream"]
    if (stream["rounds"], stream["experts"]) != (prep.rounds, prep.experts):
        problems.append(f"stream is {stream['rounds']}x{stream['experts']}, "
                        f"expected {prep.rounds}x{prep.experts}")
    halt = summary["config"]["on_divergence"] == "halt"
    for entry in summary["learners"]:
        if entry["rounds"] != prep.rounds and not (halt and entry["diverged"]):
            problems.append(f"{entry['name']} stepped {entry['rounds']} of {prep.rounds} rounds")
        if entry["name"].startswith("soft-bayes"):
            problems += [f"{entry['name']} broke its guarantee {row['variant']}"
                         for row in entry["bounds"] if row["satisfied"] is False]
    loss = float(summary["comparator"]["loss"])
    if not loss <= prep.best_single_loss:
        problems.append(f"comparator loss {loss!r} above the best single expert's "
                        f"{prep.best_single_loss!r}")
    return problems


def check(workload: Workload, prep: Prepared, result: OpResult, digest, reference) -> list:
    problems = []
    if result.error:
        problems.append(result.error)
    elif result.exit_code not in workload.expected_exits:
        problems.append(f"exit code {result.exit_code}, expected one of "
                        f"{workload.expected_exits}")
    if digest is None:
        problems.append("an artifact was not written")
    elif reference is not None and digest != reference:
        problems.append("output bytes differ from the run's first operation")
    if workload.argv[0] == "verify":
        m = re.search(r"^(\d+)/\d+ checks passed$", result.stdout, re.M)
        if m is None or int(m.group(1)) < VERIFY_CHECKS:
            problems.append(f"fewer than {VERIFY_CHECKS} verify checks passed")
    elif result.summary is None:
        problems.append("no run summary")
    else:
        problems += summary_problems(result.summary, prep)
        if result.summary["exit_code"] != result.exit_code:
            problems.append(f"exit code {result.exit_code} disagrees with the summary's "
                            f"{result.summary['exit_code']}")
    return problems


def op_rounds(workload: Workload, result: OpResult) -> int:
    """Learner-rounds the operation stepped."""
    if workload.rounds_per_op is not None:
        return workload.rounds_per_op if result.exit_code == 0 else 0
    if result.summary is None:
        return 0
    return sum(entry["rounds"] for entry in result.summary["learners"])


def import_seconds(root: Path) -> float:
    """Time to import ``softbayes.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


@dataclass
class RunResult:
    metrics: dict
    ops: list
    attempted: int
    failed: int
    raw: dict = field(default_factory=dict)     # unscaled times, for the reader
    probes: list = field(default_factory=list)  # median probe seconds per operation


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            root: Path, out: Path) -> RunResult:
    """Set up, then run operations until ``seconds`` have passed.

    The first operation warms caches and the allocator: it is checked and
    counted, but not timed.  In a traced run every second operation after it
    is traced, and at least one of each kind runs.

    Set-up (an import in a fresh interpreter plus the workload's preparation)
    is repeated ``SETUP_REPEATS`` times.  A :class:`HostProbe` samples each
    set-up, and each operation of an untraced run; the child interpreter
    times its own import, so only samples taken during preparation are
    subtracted from a set-up's time.
    """
    out.mkdir(parents=True, exist_ok=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        with HostProbe() as probe:
            imported = import_seconds(root)
            first = len(probe.samples)
            t0 = time.perf_counter()
            prep = prepare(workload, seed, out)
            prepared = time.perf_counter() - t0 - probe.busy(first)
        setups.append((imported, prepared, probe.factor()))

    ops, probes, reference = [], [], None
    start = time.perf_counter()
    while len(ops) < 2 + trace or time.perf_counter() - start < seconds:
        for path in prep.artifacts:
            Path(path).unlink(missing_ok=True)
        traced = trace and len(ops) % 2 == 1
        with HostProbe() if not trace else contextlib.nullcontext() as probe:
            result = run_op(prep.argv, tracing.Tracer() if traced else None)
        digest = output_digest(result, prep.artifacts)
        result.problems = check(workload, prep, result, digest, reference)
        if reference is None:
            reference = digest
        ops.append(result)
        probes.append(probe)

    failed = sum(bool(r.problems) for r in ops)
    if trace:
        plain = [r for r in ops[1:] if r.tracer is None]
        metrics = per_layer_metrics(ops)
        metrics["trace.overhead_s"] = (statistics.median(r.wall for r in ops if r.tracer)
                                       - statistics.median(r.wall for r in plain))
        return RunResult(metrics, ops, len(ops), failed)

    timed, probes = ops[1:], probes[1:]
    walls = [r.wall - p.busy() for r, p in zip(timed, probes)]
    scaled = [w * p.factor() for w, p in zip(walls, probes)]
    rounds = [op_rounds(workload, r) for r in timed]
    metrics = {
        "wall_s": statistics.median(scaled),
        "rounds_per_s": statistics.median(n / w for n, w in zip(rounds, scaled)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median((i + p) * k for i, p, k in setups),
        "success_rate": (len(ops) - failed) / len(ops),
    }
    raw = {
        "wall_s": statistics.median(walls),
        "rounds_per_s": statistics.median(n / w for n, w in zip(rounds, walls)),
        "setup_s": statistics.median(i + p for i, p, _ in setups),
        "host_speed": statistics.median(p.factor() for p in probes),
    }
    return RunResult(metrics, ops, len(ops), failed, raw,
                     [statistics.median(p.samples) for p in probes])


def per_layer_metrics(ops: list) -> dict:
    """Median over the traced operations of each per-layer value; layers that
    did not run in this workload read 0."""
    samples = [tracing.layer_metrics(r.tracer) for r in ops if r.tracer is not None]
    return {name: statistics.median(s.get(name, 0.0) for s in samples) for name in PER_LAYER}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy bundles, if it can be asked."""
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info() -> dict:
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        def read(name, index=index):
            return Path(index, name).read_text().strip()
        with contextlib.suppress(OSError):
            caches[f"L{read('level')} {read('type')}"] = read("size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def describe() -> dict:
    """Machine, workloads and metrics, as recorded next to the results."""
    return {
        "machine": machine_info(),
        "workloads": [{"name": w.name, "argv": list(w.argv),
                       "seed": ("shuffles the rounds" if w.stream_seed is not None
                                else "from --seed" if "{seed}" in w.argv else "unused"),
                       "expected_exits": list(w.expected_exits), "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": {k: {"unit": u, "better": b} for k, (u, b) in END_TO_END.items()},
        "per_layer": {k: {"unit": u, "better": b} for k, (u, b) in PER_LAYER.items()},
    }

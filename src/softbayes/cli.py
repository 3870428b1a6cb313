"""Command-line front end.

Subcommands: ``run`` (execute an experiment), ``gen`` (write a generator
stream to a JSONL file), ``bound`` (evaluate a closed-form guarantee),
``verify`` (built-in equivalence and inequality suites), ``compare``
(multi-learner regret table).

Exit codes: 0 success, 1 a configured bound check failed or a verify check
failed, 2 configuration or ingestion error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import verify as verify_mod
from .comparators import theoretical_bound
from .core import read_count, read_name, read_number
from .generators import parse_generator, read_seed
from .harness import (
    BOUNDS,
    ConfigError,
    ExperimentConfig,
    StreamFormatError,
    run_experiment,
    write_stream_jsonl,
)
from .learners import DIVERGENCE_POLICIES


def _int(text: str) -> int:
    """An integer flag, read by ``read_count``."""
    try:
        return read_count(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with experiment settings; flags override")
    p.add_argument("--stream", help="stream file (JSONL or CSV)")
    p.add_argument("--generator", help="generator spec, e.g. theorem2:T=100")
    p.add_argument("--learner", action="append", default=[], metavar="SPEC", dest="learners",
                   help="repeatable; e.g. soft-bayes:anytime, eg:fixed=0.5, "
                        "ogd:fixed=0.1, bayes, ml-soft-bayes, meta:rates=1,0.5,0.25")
    p.add_argument("--comparator", default=None,
                   help="fixed-mixture | single-best | shifting=t2,t3,...")
    # a name that stands for no bound is kept for the choices error to quote
    p.add_argument("--bound", action="append", default=[], dest="bounds", choices=list(BOUNDS),
                   type=lambda name: read_name(name, BOUNDS) or name,
                   help="repeatable; guarantee(s) to evaluate against the regret")
    p.add_argument("--seed", type=_int, default=None)
    p.add_argument("--on-divergence", choices=DIVERGENCE_POLICIES, default=None)
    p.add_argument("--bits", action="store_const", const=True, default=None,
                   help="report losses in bits instead of nats")


def _samples(text: str) -> int:
    """``verify --samples``: at least 4, one per reverse-Jensen width."""
    n = _int(text)
    if n < 4:
        raise argparse.ArgumentTypeError(f"must be at least 4, got {n}")
    return n


def _config_from_args(args) -> ExperimentConfig:
    # every config field is the dest of the flag that sets it
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)}
    if args.config:
        return ExperimentConfig.from_json_file(args.config, **overrides)
    return ExperimentConfig(**{k: v for k, v in overrides.items() if v not in (None, [])})


def _cmd_run(args) -> int:
    artifact = run_experiment(_config_from_args(args))
    artifact.write()
    for entry in artifact.summary["learners"]:
        flags = "diverged" if entry["diverged"] else "ok"
        print(f"{entry['name']}: loss={entry['loss']} regret={entry['regret']} [{flags}]")
        for row in entry["bounds"]:
            status = {True: "pass", False: "FAIL", None: "n/a"}[row["satisfied"]]
            note = f" ({row['note']})" if "note" in row else ""
            print(f"  bound {row['variant']}: {row['value']} -> {status}{note}")
    return artifact.exit_code


def _cmd_gen(args) -> int:
    if args.seed is not None:
        read_seed(args.seed)
    spec = parse_generator(args.generator)
    stream = spec.build(args.seed)
    write_stream_jsonl(stream, args.out)
    print(f"wrote {len(stream)} rounds x {stream.n_experts} experts to {args.out}")
    return 0


def _cmd_bound(args) -> int:
    params = {}
    for item in args.param:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"malformed parameter {item!r}, expected key=value")
        if key in params:
            raise ConfigError(f"parameter {key} is given twice")
        try:
            params[key] = read_number(value)
        except ValueError:
            raise ConfigError(f"parameter {key} must be a number, got {value!r}") from None
        if key in ("T", "N", "m", "K"):
            params[key] = read_count(value, f"parameter {key}")
    value = theoretical_bound(args.variant, **params)
    print(repr(value))
    return 0


def _cmd_verify(args) -> int:
    results = verify_mod.run_all(samples=args.samples, seed=args.seed)
    for r in results:
        print(r.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_compare(args) -> int:
    artifact = run_experiment(_config_from_args(args))
    artifact.write()
    rows = [("learner", "loss", "regret", "diverged")]
    for entry in artifact.summary["learners"]:
        rows.append((entry["name"], str(entry["loss"]), str(entry["regret"]),
                     "yes" if entry["diverged"] else "no"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    print(f"comparator ({artifact.summary['comparator']['kind']}): "
          f"loss={artifact.summary['comparator']['loss']}")
    return artifact.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softbayes",
        description="Sequential prediction with expert advice under log-loss")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment")
    _add_run_options(p_run)
    p_run.add_argument("--out-csv", help="per-round trace CSV path")
    p_run.add_argument("--out-json", help="summary JSON path")
    p_run.set_defaults(fn=_cmd_run)

    p_gen = sub.add_parser("gen", help="write a generator stream to a JSONL file")
    p_gen.add_argument("--generator", required=True)
    p_gen.add_argument("--seed", type=_int, default=None)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_gen)

    p_bound = sub.add_parser("bound", help="evaluate a closed-form guarantee")
    p_bound.add_argument("--variant", required=True)
    p_bound.add_argument("-p", "--param", action="append", default=[],
                         metavar="KEY=VALUE")
    p_bound.set_defaults(fn=_cmd_bound)

    p_verify = sub.add_parser("verify", help="run the built-in verification suites")
    p_verify.add_argument("--samples", type=_samples, default=100_000)
    p_verify.add_argument("--seed", type=_int, default=2024)
    p_verify.set_defaults(fn=_cmd_verify)

    p_cmp = sub.add_parser("compare", help="multi-learner regret table")
    _add_run_options(p_cmp)
    p_cmp.set_defaults(fn=_cmd_compare, out_csv=None, out_json=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, StreamFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

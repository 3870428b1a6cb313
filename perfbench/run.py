"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload e2e-csv --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --info

Run it from the root of a softbayes checkout: the program under test is
imported from that checkout's ``src``, and scratch artifacts go to
``.perfbench_out`` there.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it repeat the metrics for a reader, with the unscaled times and the
host speed the probe measured.  ``--info`` prints the machine,
workload and metric descriptions instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--info", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "softbayes" / "cli.py").is_file():
        print(f"error: no softbayes sources at {SRC}; run from a softbayes checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    if args.info:
        print(json.dumps(bench.describe(), indent=2))
        return 0
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    out = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}"
    try:
        run = bench.measure(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), ROOT, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            out.parent.rmdir()
    units = bench.PER_LAYER if args.trace else bench.END_TO_END
    for name, value in run.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name][0]}")
    for name, value in run.raw.items():
        print(f"{args.workload} unscaled {name} = {value:.6g}")
    print(f"{args.workload} error_rate = {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} operations failed)")
    print(f"{args.workload} operation walls (s, * traced): "
          + " ".join(f"{op.wall:.3f}{'*' if op.tracer else ''}" for op in run.ops))
    if run.probes:
        print(f"{args.workload} median probe per timed operation (ms): "
              + " ".join(f"{p * 1e3:.3f}" for p in run.probes))
    for i, op in enumerate(run.ops):
        for problem in op.problems:
            print(f"{args.workload} operation {i + 1}: {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in run.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

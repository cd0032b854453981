"""Command line of the toolchain benchmark.

Run every workload, print every metric, write the results::

    python3 -m benchmarks.toolchain run --seed 0 --out results.json

Run one workload the way ``BENCHMARK.json`` does; the last line of
standard output is one JSON object::

    python3 -m benchmarks.toolchain run --workload certify-deep \
        --seed 3 --seconds 10 --trace 0

Compare two result files against the bounds in ``BENCHMARK.json``
(exit 1 on a regression)::

    python3 -m benchmarks.toolchain check base.json new.json

Regenerate the golden fig14 table (``expected/fig14_cells.json``)::

    PYTHONPATH=src python3 -m benchmarks.toolchain golden
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.toolchain.run import (
    MIN_REPEATS,
    SPEC,
    WORKLOADS,
    BenchmarkError,
    compare,
    run_workload,
)


def _print_workload(workload: str, summary: dict) -> None:
    print(f"{workload}: {summary['attempted'] - summary['failed']}/"
          f"{summary['attempted']} items correct, "
          f"{summary['item_samples']} item samples")
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")
    for section in ("metrics", "layers"):
        for name, metric in summary.get(section, {}).items():
            print(f"  {name:42s} {metric['value']:14.4f} {metric['unit']}")


def cmd_run(args) -> int:
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    doc = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        summary = run_workload(
            workload, args.seed, args.seconds, bool(args.trace)
        )
        doc["workloads"][workload] = summary
        _print_workload(workload, summary)
    if args.out:
        Path(args.out).write_text(
            json.dumps(doc, indent=1) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}")
    failed = sum(s["failed"] for s in doc["workloads"].values())
    if args.workload:
        summary = doc["workloads"][args.workload]
        section = "layers" if args.trace else "metrics"
        print(json.dumps({
            "correct": failed == 0,
            "attempted": summary["attempted"],
            "failed": failed,
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in summary[section].items()
            },
        }))
    return 1 if failed else 0


def cmd_check(args) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    base, new = (
        json.loads(Path(p).read_text(encoding="utf-8"))
        for p in (args.base, args.new)
    )
    rows, regressed = compare(base, new, spec)
    print(f"{'workload':20s} {'metric':14s} {'base':>12s} {'new':>12s} "
          f"{'worse':>8s} {'spread':>8s} {'bound':>6s}  status")
    for workload, name, a, b, worse, spread, bound, status in rows:
        print(f"{workload:20s} {name:14s} {a:12.4f} {b:12.4f} "
              f"{worse:8.1%} {spread:8.1%} {bound:6.0%}  {status}")
    return 1 if regressed else 0


def cmd_golden(args) -> int:
    from benchmarks.toolchain.workloads import GOLDEN, write_golden

    wasp = write_golden()
    print(f"wrote {GOLDEN} (WASP_GPU geomean {wasp:.4f})")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["repeat"]:
        # Internal: one repeat in a fresh process (see run._repeat).
        from benchmarks.toolchain.measure import main as repeat_main

        repeat_main(argv[1:])
        return 0
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.toolchain")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure workloads")
    run.add_argument("--workload", choices=WORKLOADS,
                     help="one workload (default: all four)")
    run.add_argument("--seed", type=int, default=0,
                     help="permutes the fuzz-oracle programs")
    run.add_argument("--seconds", type=float, default=10.0,
                     help="measured CPU per workload, at least "
                          f"{MIN_REPEATS} repeats")
    run.add_argument("--trace", type=int, choices=(0, 1), default=1,
                     help="finish with a traced repeat (per-layer "
                          "metrics)")
    run.add_argument("--out", help="write the results here")
    run.set_defaults(func=cmd_run)
    check = sub.add_parser("check", help="compare two result files")
    check.add_argument("base")
    check.add_argument("new")
    check.set_defaults(func=cmd_check)
    golden = sub.add_parser("golden", help="regenerate the golden table")
    golden.set_defaults(func=cmd_golden)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

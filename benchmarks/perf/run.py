"""Entrypoint for the perf harness / CI perf-gate.

Measure and write a fresh baseline::

    PYTHONPATH=src python -m benchmarks.perf.run --scale 0.25 \
        --output BENCH_core.json

Gate against the committed baseline (CI's ``perf-gate`` job)::

    PYTHONPATH=src python -m benchmarks.perf.run --scale 0.25 \
        --output bench_fresh.json --check BENCH_core.json \
        --tolerance 0.2

Exit status 1 when any benchmark's normalized CPU cost (calibration
units, ``benchmarks.toolchain.measure``) regresses past the tolerance.
"""

from __future__ import annotations

import argparse
import sys

from benchmarks.perf.harness import (
    check_against_baseline,
    check_telemetry_overhead,
    dump_json,
    fig14_sweep_benchmark,
    kernel_benchmark,
    load_json,
    run_suite,
)

#: Registry kernels micro-benchmarked per core (a slow, a mid, a fast
#: one at scale 0.25 — the trajectory signal, not full coverage; the
#: fig14 sweep below covers everything).
MICRO_BENCHMARKS = [
    ("spmv1_g3", "WASP_GPU"),
    ("pointnet", "WASP_GPU"),
    ("bert", "BASELINE"),
]


def build_suite(scale: float, sweep: bool):
    suite = []
    for bench_name, config_name in MICRO_BENCHMARKS:
        for core in ("reference", "event"):
            suite.append(
                kernel_benchmark(bench_name, config_name, core, scale)
            )
    if sweep:
        for core in ("reference", "event"):
            suite.append(fig14_sweep_benchmark(core, scale))
    return suite


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf.run",
        description="Simulator perf harness: measure both SM cores and "
                    "emit/gate BENCH_core.json",
    )
    parser.add_argument("--scale", type=float, default=0.25,
                        help="registry problem-size scale (default 0.25)")
    parser.add_argument("--output", default="BENCH_core.json",
                        metavar="PATH", help="write results here")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare against this committed baseline "
                             "and exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed normalized CPU-cost regression "
                             "(default 0.2 = 20%%)")
    parser.add_argument("--telemetry-tolerance", type=float,
                        default=None, metavar="FRAC",
                        help="with --check: also fail when the suite's "
                             "aggregate normalized CPU cost (telemetry "
                             "disabled) exceeds the baseline by this "
                             "fraction (ISSUE 7 gate: 0.02)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="measured repeats per benchmark, round-robin "
                             "over the suite (median; default 3)")
    parser.add_argument("--no-sweep", action="store_true",
                        help="skip the fig14 sweep benchmarks")
    args = parser.parse_args(argv)

    suite = build_suite(args.scale, sweep=not args.no_sweep)
    print(f"[perf] measuring {len(suite)} benchmarks at "
          f"scale {args.scale} ({args.repeats} repeats)")
    doc = run_suite(suite, args.repeats, args.scale)
    for pair, stats in doc["summary"].items():
        print(f"  {pair}: event {stats['speedup']:.2f}x over reference")
    dump_json(doc, args.output)
    print(f"[perf] wrote {args.output}")

    if args.check:
        baseline = load_json(args.check)
        problems = check_against_baseline(doc, baseline, args.tolerance)
        if args.telemetry_tolerance is not None:
            problems += check_telemetry_overhead(
                doc, baseline, args.telemetry_tolerance
            )
        if problems:
            print(f"[perf] GATE FAILED vs {args.check}:")
            for line in problems:
                print(f"  {line}")
            return 1
        print(f"[perf] gate passed vs {args.check} "
              f"(tolerance {args.tolerance:.0%}"
              + (f", telemetry {args.telemetry_tolerance:.0%}"
                 if args.telemetry_tolerance is not None else "")
              + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Micro-benchmark harness for the simulator cores.

Every benchmark is a list of simulator replays from pre-built traces,
one ``make_simulator(gpu, traces, core).run()`` per item, and every
number comes from :func:`benchmarks.toolchain.measure.measure`, the
toolchain benchmark's own method: process CPU, normalized by a
calibration loop re-sampled after every ``SEGMENT_CPU_S`` of measured
CPU.  So the repo has one definition of a calibration unit (cu), and
the harness emits one JSON document (``BENCH_core.json``) that CI's
``perf-gate`` job diffs against the committed baseline.

Two benchmark families, each on one SM core:

* :func:`kernel_benchmark`: one registry benchmark's kernels under
  one GPU config.  A pass takes tens of milliseconds, well inside one
  calibration segment, so the list is replayed enough times to span
  ``MIN_SEGMENTS`` segments (the count comes from a first pass) and
  the record reports the cost of one pass.
* :func:`fig14_sweep_benchmark`: the full fig14 kernel x config
  matrix, simulated back-to-back; one pass spans many segments.

A record's ``normalized`` is the median cu per pass over the repeats
and ``wall_s`` the median wall-clock seconds per pass; the repeats go
round-robin over the suite (:func:`run_suite`).
"""

from __future__ import annotations

import gc
import json
import math
import statistics
from dataclasses import dataclass
from typing import Any

from benchmarks.toolchain.measure import SEGMENT_CPU_S, measure
from benchmarks.toolchain.workloads import Item

__all__ = [
    "SimBenchmark",
    "check_against_baseline",
    "check_telemetry_overhead",
    "fig14_sweep_benchmark",
    "kernel_benchmark",
    "run_suite",
]

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Calibration segments a micro benchmark's repeat spans at least.
MIN_SEGMENTS = 2


@dataclass
class SimBenchmark:
    """Replays of ``(traces, gpu)`` pairs on one SM core."""

    name: str
    core: str
    work: list[tuple[Any, Any]]

    def items(self, seen: dict[int, tuple[float, int]]) -> list[Item]:
        """One item per replay.  An item returns ``(cycles, issued)``;
        its check fails when a replay of the same traces disagrees with
        the first one, which ``seen`` records per work index."""
        from repro.sim.gpu import make_simulator

        items = []
        for index, (traces, gpu) in enumerate(self.work):
            def run(traces=traces, gpu=gpu):
                stats = make_simulator(gpu, traces, core=self.core).run()
                return stats.cycles, stats.issued_total

            def check(out, index=index):
                first = seen.setdefault(index, out)
                return None if out == first else f"replay {out} != {first}"

            items.append(Item(f"{self.name}#{index}", run, check))
        return items


def kernel_benchmark(
    bench_name: str, config_name: str, core: str, scale: float
) -> SimBenchmark:
    """Every kernel of one registry benchmark under one GPU config."""
    from repro.experiments.configs import standard_configs
    from repro.experiments.runner import _GLOBAL_CACHE, _gpu_for
    from repro.workloads.registry import get_benchmark

    config = next(c for c in standard_configs() if c.name == config_name)
    work = [
        (_GLOBAL_CACHE.original(kernel).traces, _gpu_for(kernel, config))
        for kernel in get_benchmark(bench_name, scale=scale).kernels
    ]
    return SimBenchmark(f"{bench_name}/{config_name}/{core}", core, work)


def fig14_sweep_benchmark(core: str, scale: float) -> SimBenchmark:
    """The full fig14 kernel x config matrix: the original traces of
    every cell, plus the specialized ones where the config compiles."""
    from repro.errors import CompilerError, ResourceError
    from repro.experiments.configs import standard_configs
    from repro.experiments.runner import (
        _GLOBAL_CACHE, _compiler_options_for, _gpu_for,
    )
    from repro.workloads.registry import all_benchmarks, get_benchmark

    work = []
    for name in all_benchmarks():
        for kernel in get_benchmark(name, scale=scale).kernels:
            for config in standard_configs():
                gpu = _gpu_for(kernel, config)
                work.append((_GLOBAL_CACHE.original(kernel).traces, gpu))
                options = _compiler_options_for(kernel, config)
                if options is None:
                    continue
                try:
                    entry = _GLOBAL_CACHE.specialized(kernel, options)
                except (CompilerError, ResourceError):
                    continue
                if entry is not None:
                    work.append((entry.traces, gpu))
    return SimBenchmark(f"fig14-sweep/{core}", core, work)


@dataclass
class _Measured:
    """One benchmark's measurements: the sizing pass, then the repeats."""

    bench: SimBenchmark
    seen: dict[int, tuple[float, int]]
    #: One repeat: the benchmark's items, replayed ``passes`` times.
    items: list[Item]
    passes: int
    #: ``measure`` results, the sizing pass first.
    runs: list[dict[str, Any]]

    def record(self) -> dict[str, Any]:
        """Costs per pass, medians over the repeats."""
        repeats = self.runs[1:]
        failures = sorted({f for run in self.runs for f in run["failures"]})
        record: dict[str, Any] = {
            "normalized": statistics.median(r["work_cu"] for r in repeats)
            / self.passes,
            "wall_s": statistics.median(r["wall_s"] for r in repeats)
            / self.passes,
            "passes": self.passes,
            "cycles": sum(cycles for cycles, _ in self.seen.values()),
            "issued": sum(issued for _, issued in self.seen.values()),
            "sims": len(self.seen),
        }
        if failures:
            record["failures"] = failures
        if record["cycles"]:
            record["cycles_per_sec"] = record["cycles"] / record["wall_s"]
        return record


def _sized(bench: SimBenchmark) -> _Measured:
    """Measure one pass of ``bench`` and size a repeat from it: enough
    passes to span ``MIN_SEGMENTS`` calibration segments."""
    seen: dict[int, tuple[float, int]] = {}
    items = bench.items(seen)
    first = measure(items)
    passes = math.ceil(
        MIN_SEGMENTS * SEGMENT_CPU_S / max(first["work_cpu_s"], 1e-3)
    )
    return _Measured(bench, seen, items * passes, passes, [first])


def run_suite(
    benchmarks: list[SimBenchmark], repeats: int, scale: float
) -> dict[str, Any]:
    """Measure every benchmark and assemble the JSON document.

    The repeats go round-robin over the suite, so one benchmark's
    repeats are seconds apart and a burst of host load slows at most
    one of them, which the median drops.  The suite's traces are built
    before this is called; they are frozen out of the cyclic GC so
    that a full collection does not walk them inside whichever repeat
    it happens to land in.
    """
    gc.collect()
    gc.freeze()
    try:
        suite = [_sized(bench) for bench in benchmarks]
        for _ in range(max(1, repeats)):
            for entry in suite:
                entry.runs.append(measure(entry.items))
    finally:
        gc.unfreeze()
    results: dict[str, dict[str, Any]] = {}
    for entry in suite:
        results[entry.bench.name] = record = entry.record()
        print(
            f"  {entry.bench.name:40s} {record['wall_s']:8.3f}s "
            f"({record['normalized']:7.3f} cu, {record['passes']} "
            f"pass(es) per repeat)"
        )
    samples = [
        sample for entry in suite for run in entry.runs[1:]
        for sample in run["calib_s"]
    ]
    return {
        "schema": SCHEMA_VERSION,
        "scale": scale,
        "repeats": repeats,
        "calibration_s": statistics.median(samples),
        "benchmarks": results,
        "summary": _summarize(results),
    }


def _summarize(results: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Event-vs-reference speedups for every measured pair."""
    summary: dict[str, Any] = {}
    for name, record in results.items():
        if not name.endswith("/event"):
            continue
        ref = results.get(name[: -len("event")] + "reference")
        if ref is None:
            continue
        pair = name[: -len("/event")]
        summary[pair] = {
            "reference_wall_s": ref["wall_s"],
            "event_wall_s": record["wall_s"],
            "speedup": ref["wall_s"] / record["wall_s"],
        }
    return summary


def check_against_baseline(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float,
) -> list[str]:
    """Regression report: normalized CPU cost vs the committed file,
    plus any replay that failed its check.

    Returns human-readable violation lines (empty = gate passes).  Only
    benchmarks present in both documents are compared; removed or new
    benchmarks are reported informationally by the caller.  Comparison
    is in calibration units so a slower CI machine does not fail the
    gate (and a faster one does not mask a regression).
    """
    problems: list[str] = []
    if baseline.get("schema") != current.get("schema"):
        return [
            f"schema changed ({baseline.get('schema')} -> "
            f"{current.get('schema')}): refresh BENCH_core.json"
        ]
    base_bench = baseline.get("benchmarks", {})
    for name, record in current.get("benchmarks", {}).items():
        failures = record.get("failures")
        if failures:
            problems.append(
                f"{name}: {len(failures)} replay(s) failed, first: "
                f"{failures[0]}"
            )
        base = base_bench.get(name)
        if base is None or "normalized" not in base:
            continue
        allowed = base["normalized"] * (1.0 + tolerance)
        if record["normalized"] > allowed:
            problems.append(
                f"{name}: {record['normalized']:.3f} cu "
                f"exceeds baseline {base['normalized']:.3f} cu "
                f"by more than {tolerance:.0%}"
            )
    return problems


def check_telemetry_overhead(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = 0.02,
) -> list[str]:
    """The disabled-feature overhead gate (ISSUE 7/8 acceptance).

    The harness always measures with the telemetry registry *and* the
    SMEM sanitizer disabled (their default states), so the *aggregate*
    normalized CPU cost of the suite vs the committed baseline
    bounds what both opt-in code paths cost when off — the telemetry
    counters and the sanitizer's None-guarded hooks in the functional
    machine's hot loops.  The aggregate sum is used rather than
    per-benchmark values because a 2%% bar is inside single-benchmark
    noise even after calibration normalization; summing the suite
    averages that noise away.
    """
    if baseline.get("schema") != current.get("schema"):
        return []  # the schema line from check_against_baseline covers it
    base_bench = baseline.get("benchmarks", {})
    shared = [
        name for name, record in current.get("benchmarks", {}).items()
        if "normalized" in record
        and "normalized" in base_bench.get(name, {})
    ]
    if not shared:
        return []
    base_total = sum(base_bench[n]["normalized"] for n in shared)
    cur_total = sum(
        current["benchmarks"][n]["normalized"] for n in shared
    )
    if base_total <= 0:
        return []
    ratio = cur_total / base_total
    if ratio > 1.0 + tolerance:
        return [
            f"telemetry-disabled overhead: aggregate {cur_total:.3f} cu "
            f"is {ratio - 1.0:.1%} over baseline {base_total:.3f} cu "
            f"(allowed {tolerance:.0%})"
        ]
    return []


def load_json(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def dump_json(doc: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

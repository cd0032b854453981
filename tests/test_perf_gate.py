"""The perf gate (``benchmarks/perf``): one measurement method, and
bounds that fire.

Every number the harness records comes from
``benchmarks.toolchain.measure.measure``; these tests spy on it with a
stub suite of cheap items instead of simulator replays.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from benchmarks.perf import harness
from benchmarks.toolchain.measure import SEGMENT_CPU_S, measure
from benchmarks.toolchain.workloads import Item

BENCH_CORE = Path(__file__).resolve().parents[1] / "BENCH_core.json"


def _burn(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


class _Stub:
    """Two cheap items of about 2 ms CPU each, standing in for replays."""

    name = "stub/event"

    def items(self, seen):
        def run(i):
            _burn(0.002)
            return (100.0 * (i + 1), 10 * (i + 1))

        def check(out, i):
            first = seen.setdefault(i, out)
            return None if out == first else "moved"

        return [
            Item(f"stub#{i}", lambda i=i: run(i),
                 lambda out, i=i: check(out, i))
            for i in range(2)
        ]


def test_normalized_is_the_work_cu_that_measure_returned(monkeypatch):
    calls = []

    def spy(items):
        doc = measure(items)
        calls.append((len(items), doc))
        return doc

    monkeypatch.setattr(harness, "measure", spy)
    doc = harness.run_suite([_Stub()], repeats=3, scale=0.25)

    (sizing, _), *repeats = calls
    assert sizing == 2 and len(repeats) == 3
    record = doc["benchmarks"]["stub/event"]
    passes = record["passes"]
    assert all(n == 2 * passes for n, _ in repeats)
    # The repeats span at least MIN_SEGMENTS calibration segments.
    assert all(
        r["work_cpu_s"] >= harness.MIN_SEGMENTS * SEGMENT_CPU_S * 0.9
        for _, r in repeats
    )
    assert record["normalized"] == pytest.approx(
        statistics.median(r["work_cu"] for _, r in repeats) / passes
    )
    assert record["wall_s"] == pytest.approx(
        statistics.median(r["wall_s"] for _, r in repeats) / passes
    )
    assert record["cycles"] == 300.0 and record["sims"] == 2
    assert "failures" not in record
    _gate_keys(doc)


def _gate_keys(doc):
    """The keys ``check_against_baseline``, ``check_telemetry_overhead``
    and ``repro bench report`` read."""
    assert isinstance(doc["schema"], int)
    assert doc["calibration_s"] > 0
    assert doc["benchmarks"]
    for record in doc["benchmarks"].values():
        assert record["wall_s"] > 0 and record["normalized"] > 0


def test_committed_baseline_has_every_key_the_gate_and_report_read():
    committed = json.loads(BENCH_CORE.read_text(encoding="utf-8"))
    _gate_keys(committed)
    assert committed["schema"] == harness.SCHEMA_VERSION


def _doc(normals):
    return {
        "schema": harness.SCHEMA_VERSION,
        "benchmarks": {
            name: {"wall_s": 1.0, "normalized": value}
            for name, value in normals.items()
        },
    }


def test_per_benchmark_bound_fails_at_25_and_passes_at_15_percent():
    base = _doc({"a": 10.0, "b": 2.0})
    assert harness.check_against_baseline(
        _doc({"a": 11.5, "b": 2.0}), base, 0.2) == []
    problems = harness.check_against_baseline(
        _doc({"a": 12.5, "b": 2.0}), base, 0.2)
    assert len(problems) == 1 and problems[0].startswith("a:")


def test_a_failed_replay_fails_the_gate():
    base = _doc({"a": 10.0})
    current = _doc({"a": 10.0})
    current["benchmarks"]["a"]["failures"] = ["a#3: raised ResourceError"]
    problems = harness.check_against_baseline(current, base, 0.2)
    assert problems == ["a: 1 replay(s) failed, first: a#3: raised "
                        "ResourceError"]


def test_aggregate_bound_fails_at_3_and_passes_at_1_percent():
    base = _doc({"a": 10.0, "b": 20.0})
    assert harness.check_telemetry_overhead(
        _doc({"a": 10.1, "b": 20.2}), base, 0.02) == []
    problems = harness.check_telemetry_overhead(
        _doc({"a": 10.3, "b": 20.6}), base, 0.02)
    assert len(problems) == 1 and "3.0%" in problems[0]

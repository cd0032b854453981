"""BENCHMARK.json agrees with the benchmark code and its own limits.

Run with ``PYTHONPATH=src python -m pytest benchmarks/toolchain``.
"""

import json
import re

import pytest

from benchmarks.toolchain.layers import CALLED, LAYERS, MOVES, metric_units
from benchmarks.toolchain.run import (
    END_TO_END,
    SPEC,
    WORKLOADS,
    compare,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def spec():
    return json.loads(SPEC.read_text(encoding="utf-8"))


def test_spec_keys_and_limits(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["benchmarks/toolchain"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in spec[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_setup_time_has_the_largest_bound(spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_spec_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        metric_units()
    )


def test_every_layer_maps_to_a_declared_metric_and_workload(spec):
    declared = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(MOVES) == set(LAYERS)
    assert set(CALLED) == set(WORKLOADS)
    for layer, (metrics, workloads) in MOVES.items():
        assert f"{layer}.self_cu" in per_layer
        assert set(metrics) <= declared, layer
        for workload in workloads:
            # A layer can only move a workload that calls it.
            assert layer in CALLED[workload], (layer, workload)
    for name in per_layer - {"trace_overhead"}:
        assert any(name.startswith(f"{layer}.") for layer in LAYERS), name


def _doc(runs: dict[str, list[float]], failed: int = 0) -> dict:
    return {"workloads": {"w": {"failed": failed, "metrics": {
        name: {"value": sorted(values)[len(values) // 2], "runs": values}
        for name, values in runs.items()
    }}}}


def test_check_statuses(spec):
    base = {name: [1.0, 1.0, 1.0] for name in END_TO_END}
    steady_worse = dict(base, work_cu=[1.3, 1.3, 1.3])
    noisy = dict(base, item_p50_mcu=[1.0, 1.5, 2.0])
    rows, regressed = compare(_doc(base), _doc(steady_worse), spec)
    status = {row[1]: row[-1] for row in rows}
    assert regressed and status["work_cu"] == "regression"
    assert status["setup_s"] == "ok"
    rows, regressed = compare(_doc(base), _doc(noisy), spec)
    assert not regressed
    assert {row[1]: row[-1] for row in rows}["item_p50_mcu"] == "unresolved"
    rows, regressed = compare(_doc(base), _doc(base, failed=1), spec)
    assert regressed and rows[0][1] == "failed"

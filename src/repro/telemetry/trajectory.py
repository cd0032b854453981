"""``repro bench report`` — the perf-trajectory dashboard.

Reads every committed ``BENCH_*.json`` (the perf-harness documents
under version control, e.g. ``BENCH_core.json``) plus, optionally, a
freshly measured run, and renders a per-benchmark regression table on
CPU cost in calibration units (``benchmarks.toolchain.measure``).  This
is the human-facing view of the same data CI's perf-gate checks
mechanically.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any

from repro.experiments.reporting import format_table, geomean

__all__ = ["build_bench_report", "render_bench_report"]

REPORT_SCHEMA = "repro-bench-report-v1"


def _discover(directory: str) -> dict[str, dict[str, Any]]:
    docs: dict[str, dict[str, Any]] = {}
    pattern = os.path.join(directory, "BENCH_*.json")
    for path in sorted(glob.glob(pattern)):
        stem = os.path.splitext(os.path.basename(path))[0]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                docs[stem] = json.load(handle)
        except (OSError, ValueError):
            continue
    return docs


def build_bench_report(
    directory: str = ".",
    current: dict[str, Any] | None = None,
    baseline_name: str = "BENCH_core",
    tolerance: float = 0.2,
) -> dict[str, Any]:
    """Assemble the dashboard document.

    ``current`` is a freshly measured harness document (or None to
    report only the committed trajectory).  Deltas are computed
    against ``baseline_name`` when present, else the first committed
    file.  A benchmark regresses when its normalized time exceeds the
    baseline by more than ``tolerance``.
    """
    committed = _discover(directory)
    if baseline_name not in committed and committed:
        baseline_name = next(iter(committed))
    baseline = committed.get(baseline_name, {})
    base_bench = baseline.get("benchmarks", {})

    names: list[str] = []
    for doc in [*committed.values(),
                *([current] if current else [])]:
        for name in doc.get("benchmarks", {}):
            if name not in names:
                names.append(name)

    rows: list[dict[str, Any]] = []
    for name in names:
        row: dict[str, Any] = {"benchmark": name, "columns": {}}
        for stem, doc in committed.items():
            record = doc.get("benchmarks", {}).get(name)
            if record is not None:
                row["columns"][stem] = record.get("normalized")
        base = base_bench.get(name, {}).get("normalized")
        row["baseline"] = base
        if current is not None:
            record = current.get("benchmarks", {}).get(name)
            now = record.get("normalized") if record else None
            row["current"] = now
            if base and now is not None:
                row["delta"] = (now - base) / base
                row["status"] = (
                    "REGRESSED" if now > base * (1 + tolerance)
                    else "improved" if now < base * (1 - tolerance)
                    else "ok"
                )
            elif now is not None:
                row["status"] = "new"
            else:
                row["status"] = "removed"
        rows.append(row)

    summary: dict[str, Any] = {
        "files": sorted(committed),
        "baseline": baseline_name,
        "tolerance": tolerance,
        "regressions": [
            r["benchmark"] for r in rows
            if r.get("status") == "REGRESSED"
        ],
    }
    if current is not None:
        ratios = [
            r["current"] / r["baseline"] for r in rows
            if r.get("baseline") and r.get("current") is not None
        ]
        if ratios:
            summary["geomean_ratio"] = geomean(ratios)
    return {
        "schema": REPORT_SCHEMA,
        "rows": rows,
        "summary": summary,
    }


def _fmt_norm(value: Any) -> str:
    return f"{value:.2f}" if isinstance(value, float) else "-"


def render_bench_report(report: dict[str, Any]) -> str:
    """Fixed-width table of the trajectory document."""
    summary = report["summary"]
    files: list[str] = summary["files"]
    has_current = any("current" in r for r in report["rows"])
    headers = ["benchmark", *files]
    if has_current:
        headers += ["current", "delta", "status"]
    rows: list[list[object]] = []
    for row in report["rows"]:
        cells: list[object] = [row["benchmark"]]
        cells += [_fmt_norm(row["columns"].get(f)) for f in files]
        if has_current:
            delta = row.get("delta")
            cells += [
                _fmt_norm(row.get("current")),
                f"{delta:+.1%}" if delta is not None else "-",
                row.get("status", "-"),
            ]
        rows.append(cells)
    lines = [
        format_table(
            headers, rows,
            title="Perf trajectory (CPU cost, calibration units)",
        )
    ]
    lines.append(
        f"baseline: {summary['baseline']}  "
        f"tolerance: {summary['tolerance']:.0%}"
    )
    ratio = summary.get("geomean_ratio")
    if ratio:
        lines.append(
            f"geomean current/baseline: {ratio:.3f} "
            f"({'slower' if ratio > 1 else 'faster'})"
        )
    if summary["regressions"]:
        lines.append(
            "REGRESSED: " + ", ".join(summary["regressions"])
        )
    return "\n".join(lines)

"""Text rendering and small statistics helpers for experiment results."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregate for speedups)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width text table (the harness's figure/table renderer)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def format_cache_report(report) -> str:
    """Render a ``SweepReport`` as a short cache/timing summary.

    Takes the report duck-typed (rather than importing SweepReport) so
    this module stays import-light for the table/figure renderers.
    """
    stats = report.stats
    lines = [
        f"jobs={report.jobs}  tasks={report.num_tasks}  "
        f"wall={report.wall_seconds:.1f}s  "
        f"worker={report.worker_seconds:.1f}s",
        f"trace cache: {stats.memory_hits} memory hits, "
        f"{stats.disk_hits} disk hits, "
        f"{stats.generations} generations, "
        f"{stats.disk_writes} disk writes, "
        f"{stats.sim_reuses} sim reuses, "
        f"{stats.prediction_reuses} prediction reuses",
    ]
    slowest = report.slowest_tasks(3)
    if slowest:
        parts = ", ".join(
            f"{t.benchmark}/{t.kernel}[{t.config_name}] {t.seconds:.1f}s"
            for t in slowest
        )
        lines.append(f"slowest: {parts}")
    return "\n".join(lines)

"""Parent side of a run: repeats in fresh processes, medians, checks.

Each repeat runs in its own process, one at a time, with ``REPRO_*``
variables removed, ``PYTHONHASHSEED=0``, the trace store and temporary
files in a scratch directory under ``benchmarks/toolchain/.work`` (never
the user's ``.repro_cache``) and native thread pools pinned to one
thread.  This module imports nothing from ``repro``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.toolchain.layers import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = (
    "fig14-cold", "fig14-warm-predict", "certify-deep", "fuzz-oracle",
)

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "work_cu": "cu",
    "item_p50_mcu": "mcu",
    "item_p90_mcu": "mcu",
    "peak_rss_mb": "MB",
}

MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """A repeat could not be measured; no result is printed."""


def _child_env(store: Path, scratch: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))),
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=str(store),
        TMPDIR=str(scratch),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _repeat(
    workload: str, seed: int, store: Path, scratch: Path, traced: bool
) -> dict:
    fd, out = tempfile.mkstemp(dir=scratch, suffix=".json")
    os.close(fd)
    cmd = [
        sys.executable, "-m", "benchmarks.toolchain", "repeat", workload,
        str(seed), str(store), "1" if traced else "0", out,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(store, scratch), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise BenchmarkError(
            f"{workload} repeat exited with status {proc.returncode}"
        )
    return json.loads(Path(out).read_text(encoding="utf-8"))


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool
) -> dict:
    """Measure ``workload``: at least :data:`MIN_REPEATS` repeats and
    ``seconds`` of measured CPU, then one traced repeat if asked.

    ``work_cu`` sums each item's median cost over the repeats; the
    item percentiles pool every repeat's items; the other metrics are
    medians over repeats.  ``runs`` keeps the per-repeat values, from
    which :func:`compare` takes the spread.
    """
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        scratch = Path(tmp)

        def fresh_store() -> Path:
            return Path(tempfile.mkdtemp(dir=scratch, prefix="store-"))

        prime = primed = None
        if workload == "fig14-warm-predict":
            # The warm sweep reads the store a cold sweep leaves behind.
            primed = fresh_store()
            prime = _repeat("fig14-cold", seed, primed, scratch, False)
        records = []
        while (len(records) < MIN_REPEATS
               or sum(r["work_cpu_s"] for r in records) < seconds):
            records.append(_repeat(
                workload, seed, primed or fresh_store(), scratch, False
            ))
        traced_record = (
            _repeat(workload, seed, primed or fresh_store(), scratch, True)
            if traced else None
        )

    pooled = [v for r in records for v in r["item_mcu"]]
    runs = {
        "setup_s": [r["setup_s"] for r in records],
        "work_cu": [r["work_cu"] for r in records],
        "item_p50_mcu": [statistics.median(r["item_mcu"]) for r in records],
        "item_p90_mcu": [_p90(r["item_mcu"]) for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }
    values = {name: statistics.median(v) for name, v in runs.items()}
    # Every repeat runs the same items in the same order.  A host burst
    # slows a few items of one repeat; the per-item median drops it,
    # which halves the run-to-run spread of the median repeat total.
    values["work_cu"] = sum(
        statistics.median(costs)
        for costs in zip(*(r["item_mcu"] for r in records))
    ) / 1000
    values["item_p50_mcu"] = statistics.median(pooled)
    values["item_p90_mcu"] = _p90(pooled)
    metrics = {
        name: {"value": values[name], "unit": unit, "runs": runs[name]}
        for name, unit in END_TO_END.items()
    }
    everything = records + ([traced_record] if traced_record else [])
    summary = {
        "item_samples": len(pooled),
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(len(r["failures"]) for r in everything),
        "failures": [f for r in everything for f in r["failures"]][:20],
        "metrics": metrics,
        "records": [
            {k: v for k, v in r.items() if k != "item_mcu"}
            for r in ([prime] if prime else []) + everything
        ],
    }
    if traced_record is not None:
        layers = dict(traced_record["layers"])
        layers["trace_overhead"] = (
            traced_record["work_cu"] / values["work_cu"]
        )
        units = metric_units()
        summary["layers"] = {
            name: {"value": layers[name], "unit": units[name]}
            for name in units
        }
    return summary


def compare(base: dict, new: dict, spec: dict) -> tuple[list[tuple], bool]:
    """One row per (workload, end-to-end metric) of two result files.

    A metric whose run-to-run spread (max - min over median, the wider
    of the two files) exceeds its bound is ``unresolved`` unless every
    new run beats every base run.  Otherwise it is a ``regression``
    when the new median is worse than the base median by more than the
    bound.  Failed items in the new file are a regression too.
    Returns the rows and whether any row is a regression.
    """
    rows = []
    regressed = False
    for workload, new_summary in new["workloads"].items():
        base_summary = base["workloads"].get(workload)
        if base_summary is None:
            continue
        if new_summary["failed"]:
            rows.append((workload, "failed", base_summary["failed"],
                         new_summary["failed"], 0.0, 0.0, 0.0, "regression"))
            regressed = True
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = base_summary["metrics"][name]
            b = new_summary["metrics"][name]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (b["value"] - a["value"]) / a["value"]
            spread = max(
                (max(m["runs"]) - min(m["runs"])) / m["value"]
                for m in (a, b)
            )
            if spread > bound:
                wins = max(sign * v for v in b["runs"]) < min(
                    sign * v for v in a["runs"]
                )
                status = "better" if wins else "unresolved"
            elif worse > bound:
                status = "regression"
                regressed = True
            else:
                status = "ok"
            rows.append((workload, name, a["value"], b["value"], worse,
                         spread, bound, status))
    return rows, regressed

"""One repeat of one workload, run in its own process.

The measured time is process CPU, normalized by a calibration loop
that is re-sampled while the repeat runs: once before the first item
and again after every ``SEGMENT_CPU_S`` of measured CPU, always between
items and never inside the measured time.  Each segment of items is
divided by the mean of the two samples around it, so a host that
speeds up or slows down mid-run is tracked piecewise.  One calibration
unit (cu) is the CPU time of ``CU_ITERS`` loop iterations.

Host speed on a shared machine moves on sub-second time scales.  Over
6 s windows of compile work on a shared 2-vCPU Linux host, raw CPU varied by
5.4% (coefficient of variation); normalizing with a sample every 2 s
left 4.8%, every 0.27 s 2.2%, hence the short segments.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from contextlib import nullcontext
from typing import Any

SEGMENT_CPU_S = 0.25
CU_ITERS = 10_000_000
_SAMPLE_ITERS = 250_000


def calibrate() -> float:
    """CPU seconds of one calibration unit on this host, right now.

    The loop mixes integer arithmetic with dict and list traffic, like
    the interpreter-bound toolchain it normalizes.
    """
    start = time.process_time()
    acc = 0
    data = {}
    seq = []
    for i in range(_SAMPLE_ITERS):
        acc += i & 7
        if i & 1:
            data[i & 255] = acc
        seq.append(acc)
        if len(seq) > 64:
            seq.clear()
    return (time.process_time() - start) * (CU_ITERS / _SAMPLE_ITERS)


def measure(items) -> dict[str, Any]:
    """Run and check every item; return the normalized costs."""
    samples = [calibrate()]
    cuts = [0]
    item_cpu: list[float] = []
    failures: list[str] = []
    wall = 0.0
    segment = 0.0
    for index, item in enumerate(items):
        error = None
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            out = item.run()
        except Exception as exc:  # a failed item is counted, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        cpu = time.process_time() - cpu_start
        wall += time.perf_counter() - wall_start
        item_cpu.append(cpu)
        if error is None:
            error = item.check(out)
        if error:
            failures.append(f"{item.label}: {error}")
        segment += cpu
        if segment >= SEGMENT_CPU_S and index + 1 < len(items):
            samples.append(calibrate())
            cuts.append(index + 1)
            segment = 0.0
    samples.append(calibrate())
    cuts.append(len(items))

    item_cu: list[float] = []
    for seg, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        unit = (samples[seg] + samples[seg + 1]) / 2
        item_cu.extend(cpu / unit for cpu in item_cpu[lo:hi])
    return {
        "attempted": len(items),
        "failures": failures,
        "work_cu": sum(item_cu),
        "work_cpu_s": sum(item_cpu),
        "wall_s": wall,
        "item_mcu": [cu * 1000 for cu in item_cu],
        "calib_s": samples,
        "calib_drift": max(samples) / min(samples),
    }


def repeat(
    workload: str, seed: int, store_dir: str, traced: bool
) -> dict[str, Any]:
    """Set up ``workload``, measure it once, and describe the repeat.

    ``setup_s`` is the CPU from process start until the inputs are
    built (interpreter start, imports, input construction), divided by
    the repeat's median calibration sample and so expressed in seconds
    of a host where one calibration unit takes 1 s.
    """
    from benchmarks.toolchain.layers import Tracer
    from benchmarks.toolchain.workloads import SETUP

    work = SETUP[workload](seed, store_dir)
    setup_cpu = time.process_time()
    tracer = Tracer() if traced else None
    with tracer.installed() if tracer else nullcontext():
        record = measure(work.items)
    record.update(
        workload=workload,
        seed=seed,
        traced=traced,
        setup_cpu_s=setup_cpu,
        setup_s=setup_cpu / statistics.median(record["calib_s"]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        trace_generations=(
            work.cache.stats.generations if work.cache else 0
        ),
    )
    if tracer is not None:
        record["layers"] = tracer.ledger(workload, record)
    return record


def main(argv: list[str]) -> None:
    workload, seed, store_dir, traced, out = argv
    record = repeat(workload, int(seed), store_dir, traced == "1")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)

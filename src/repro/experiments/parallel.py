"""Parallel experiment runner: kernel×config fan-out over a process pool.

Every figure sweep decomposes into independent (kernel, configuration)
timing tasks.  :func:`fan_out` is the one place work crosses a process
boundary — sweeps and ``repro fuzz`` both go through it — and
:func:`run_sweep` gives the figures two properties they rely on:

* **Determinism** — results are assembled by task identity, so
  ``--jobs N`` produces numerically identical figures to ``--jobs 1``.
* **No duplicated work** — tasks are grouped by kernel content digest
  and each group is one fan-out unit, at every job count.  Trace-cache
  keys and result-tier entries start with that digest, so every cell
  that can share a trace or a replay runs in the same process: no two
  workers generate the same trace, and serial and parallel sweeps
  simulate the same distinct (entry, GPU) set.

Job count comes from ``jobs=`` (CLI ``--jobs``), else the
``REPRO_JOBS`` environment variable, else 1 (in-process, no pool).
Workers communicate by task descriptor (benchmark name, scale, kernel
name, config) because kernels hold closure-based image factories that
cannot cross process boundaries; each worker rebuilds its kernels from
the deterministic workload registry and shares traces through the
content-addressed disk store.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from repro.errors import ReproError
from repro.experiments.configs import EvalConfig
from repro.experiments.runner import (
    GLOBAL_CACHE,
    BenchmarkResult,
    CacheStats,
    KernelResult,
    harvest_cache_stats,
    run_kernel,
)
from repro.telemetry.registry import SECONDS_BUCKETS, TELEMETRY
from repro.workloads import get_benchmark
from repro.workloads.base import Benchmark


@dataclass(frozen=True)
class KernelTask:
    """One unit of sweep work: time one kernel under one configuration."""

    benchmark: str
    scale: float
    kernel: str
    config: EvalConfig
    config_index: int
    #: Attach a static performance-model prediction to the result.
    predict: bool = False


@dataclass
class PredictionRow:
    """Predicted-vs-simulated cycles for one sweep row.

    Plain data so it crosses the worker process boundary; every sweep
    run with ``predict=True`` carries one row per (kernel, config) in
    its :class:`SweepReport`, making cached sweeps double as
    calibration samples.
    """

    benchmark: str
    kernel: str
    config_name: str
    predicted_cycles: float
    simulated_cycles: float

    @property
    def error(self) -> float:
        if self.simulated_cycles <= 0:
            return 0.0
        return (
            abs(self.predicted_cycles - self.simulated_cycles)
            / self.simulated_cycles
        )

    def to_json(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "kernel": self.kernel,
            "config": self.config_name,
            "predicted_cycles": round(self.predicted_cycles, 2),
            "simulated_cycles": round(self.simulated_cycles, 2),
            "predicted_error": round(self.error, 4),
        }


@dataclass
class TaskTiming:
    benchmark: str
    kernel: str
    config_name: str
    seconds: float


@dataclass
class SweepReport:
    """Per-sweep execution statistics: timing, cache hit/miss, stalls.

    Stall counters aggregate the chosen simulation (``result.sim``)
    of every sweep row — a specialized variant that lost the opt-in
    is not counted — folded in task order in the parent, so they are
    exact regardless of ``--jobs``, just like the cache counters, which
    each worker measures as a per-task delta for the parent to merge.
    """

    jobs: int = 1
    num_tasks: int = 0
    wall_seconds: float = 0.0
    worker_seconds: float = 0.0
    stats: CacheStats = field(default_factory=CacheStats)
    timings: list[TaskTiming] = field(default_factory=list)
    #: (pipe stage, StallCause) -> stalled warp-cycles over all sims.
    stall_cycles: dict = field(default_factory=dict)
    issued_total: int = 0
    active_warp_cycles: float = 0.0
    #: Predicted-vs-simulated per sweep row (``predict=True`` sweeps).
    prediction_rows: list[PredictionRow] = field(default_factory=list)

    def merge(self, other: "SweepReport") -> None:
        self.jobs = max(self.jobs, other.jobs)
        self.num_tasks += other.num_tasks
        self.wall_seconds += other.wall_seconds
        self.worker_seconds += other.worker_seconds
        self.stats.merge(other.stats)
        self.timings.extend(other.timings)
        for key, cycles in other.stall_cycles.items():
            self.stall_cycles[key] = (
                self.stall_cycles.get(key, 0.0) + cycles
            )
        self.issued_total += other.issued_total
        self.active_warp_cycles += other.active_warp_cycles
        self.prediction_rows.extend(other.prediction_rows)

    def add_sim(self, sim) -> None:
        """Fold one ``SimResult``'s stall attribution into the sweep."""
        for key, cycles in sim.stall_cycles.items():
            self.stall_cycles[key] = (
                self.stall_cycles.get(key, 0.0) + cycles
            )
        self.issued_total += sim.issued_total
        self.active_warp_cycles += sim.active_warp_cycles

    def add_prediction(self, task: "KernelTask", result) -> None:
        """Record the row's predicted-vs-simulated error, if any."""
        prediction = getattr(result, "prediction", None)
        if prediction is None:
            return
        self.prediction_rows.append(PredictionRow(
            benchmark=task.benchmark,
            kernel=task.kernel,
            config_name=task.config.name,
            predicted_cycles=prediction.cycles,
            simulated_cycles=result.cycles,
        ))

    def slowest_tasks(self, count: int = 5) -> list[TaskTiming]:
        return sorted(
            self.timings, key=lambda t: t.seconds, reverse=True
        )[:count]

    @property
    def utilization(self) -> float:
        """Fraction of the pool's wall-clock capacity spent working."""
        capacity = self.wall_seconds * max(1, self.jobs)
        if capacity <= 0:
            return 0.0
        return min(1.0, self.worker_seconds / capacity)

    def to_json(self) -> dict[str, object]:
        """Structured form for sweep/CI artifacts (cache stats
        included so hit/miss behaviour is captured per run)."""
        return {
            "jobs": self.jobs,
            "num_tasks": self.num_tasks,
            "wall_seconds": round(self.wall_seconds, 4),
            "worker_seconds": round(self.worker_seconds, 4),
            "utilization": round(self.utilization, 4),
            "cache": self.stats.to_json(),
            "issued_total": self.issued_total,
            "prediction_rows": len(self.prediction_rows),
        }


class SweepResult:
    """Assembled results of one sweep, indexed like the serial loops."""

    def __init__(
        self,
        benchmarks: dict[str, Benchmark],
        configs: list[EvalConfig],
        results: dict[tuple[str, str, int], KernelResult],
        report: SweepReport,
    ) -> None:
        self._benchmarks = benchmarks
        self._configs = configs
        self._results = results
        self.report = report

    def kernel_result(
        self, benchmark: str, kernel: str, config_index: int
    ) -> KernelResult:
        return self._results[(benchmark, kernel, config_index)]

    def benchmark_result(
        self, benchmark: str, config_index: int
    ) -> BenchmarkResult:
        bench = self._benchmarks[benchmark]
        result = BenchmarkResult(
            benchmark=bench,
            config_name=self._configs[config_index].name,
        )
        for kernel in bench.kernels:
            result.kernels.append(
                self.kernel_result(benchmark, kernel.name, config_index)
            )
        return result

    def total_cycles(self, benchmark: str, config_index: int) -> float:
        return self.benchmark_result(benchmark, config_index).total_cycles


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count: explicit value, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = 1
        else:
            jobs = 1
    return max(1, jobs)


_LAST_REPORT: SweepReport | None = None


def last_report() -> SweepReport | None:
    """The report of the most recent sweep in this process (for the CLI)."""
    return _LAST_REPORT


def _record_report(report: SweepReport) -> None:
    global _LAST_REPORT
    _LAST_REPORT = report


# -- the fan-out ------------------------------------------------------------

Unit = TypeVar("Unit")
Result = TypeVar("Result")


def _worker_init(
    cache_dir: str | None, enabled: bool, telemetry: bool = False
) -> None:
    from repro.experiments.runner import configure_global_cache

    configure_global_cache(cache_dir=cache_dir, enabled=enabled)
    if telemetry:
        TELEMETRY.enable()


def _traced_call(fn, unit):
    """Run one unit in a worker, with this worker's telemetry delta
    (``None`` when telemetry is off — nothing crosses the boundary)."""
    before = TELEMETRY.snapshot() if TELEMETRY.enabled else None
    result = fn(unit)
    if before is None:
        return result, None
    return result, TELEMETRY.snapshot().since(before)


def _past(deadline: float | None) -> bool:
    return deadline is not None and time.perf_counter() > deadline


def _unit_error(label: str, exc: BaseException) -> ReproError:
    return ReproError(f"{label}: {type(exc).__name__}: {exc}")


def fan_out(
    fn: Callable[[Unit], Result],
    units: Iterable[Unit],
    jobs: int,
    deadline: float | None = None,
    name: Callable[[Unit], str] = str,
) -> list[Result]:
    """Run ``fn`` over ``units``; results come back in unit order.

    ``jobs == 1`` runs in-process.  Otherwise ``fn`` (module-level, so
    it pickles by reference) runs in a pool of ``jobs`` workers that
    share the parent's trace store and telemetry switch, and each
    unit's telemetry delta is merged into the parent's registry in unit
    order.  At most ``jobs`` units are in flight, so a unit handed to
    the pool starts at once.

    ``deadline`` is a ``time.perf_counter()`` value: no unit starts
    after it has passed, and every unit already started is awaited and
    returned, so the result is always a prefix of ``units``.

    A unit that raises fails the fan-out with a :class:`ReproError`
    that names it (``name(unit)``) and is chained from the original; a
    dead worker process names every unit that was in flight.
    """
    units = list(units)
    if jobs == 1:
        results = []
        for unit in units:
            if _past(deadline):
                break
            try:
                results.append(fn(unit))
            except Exception as exc:
                raise _unit_error(name(unit), exc) from exc
        return results

    store = GLOBAL_CACHE.store
    index: dict[Future, int] = {}
    finished: dict[int, tuple] = {}
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_worker_init,
        initargs=(
            str(store.cache_dir) if store is not None else None,
            store is not None,
            TELEMETRY.enabled,
        ),
    ) as pool:
        pending: set[Future] = set()
        while True:
            while (len(pending) < jobs and len(index) < len(units)
                   and not _past(deadline)):
                future = pool.submit(_traced_call, fn, units[len(index)])
                index[future] = len(index)
                pending.add(future)
            if not pending:
                break
            in_flight = sorted(pending, key=index.__getitem__)
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=index.__getitem__):
                exc = future.exception()
                if isinstance(exc, BrokenProcessPool):
                    lost = [
                        name(units[index[f]]) for f in in_flight
                        if not f.done() or f.exception() is not None
                    ]
                    raise ReproError(
                        "a worker process died with units in flight: "
                        + "; ".join(lost)
                    ) from exc
                if exc is not None:
                    raise _unit_error(
                        name(units[index[future]]), exc
                    ) from exc
                finished[index[future]] = future.result()
    results = []
    for i in range(len(finished)):
        result, tel = finished[i]
        if tel is not None:
            TELEMETRY.merge_snapshot(tel)
        results.append(result)
    return results


# -- sweeps -----------------------------------------------------------------


def _run_sim_group(tasks: list[KernelTask]):
    """Time every kernel×config of one entry group, in order.

    The cells share trace-cache entries, so they share one process's
    result tier.  Returns kernel-stripped per-cell results.
    """
    cells = []
    for task in tasks:
        start = time.perf_counter()
        before = GLOBAL_CACHE.stats.snapshot()
        kernel = get_benchmark(task.benchmark, task.scale).kernel(
            task.kernel
        )
        result = run_kernel(
            kernel, task.config, GLOBAL_CACHE, predict=task.predict
        )
        # Kernels carry closure-based image factories that cannot be
        # pickled back; the parent reattaches its own Kernel object.
        result.kernel = None
        elapsed = time.perf_counter() - start
        cells.append(
            (task, result, elapsed, GLOBAL_CACHE.stats.since(before))
        )
    return cells


def _group_name(tasks: list[KernelTask]) -> str:
    return "; ".join(
        f"{t.benchmark}/{t.kernel}[{t.config.name}]" for t in tasks
    )


def run_sweep(
    benchmark_names: list[str],
    scale: float,
    configs: list[EvalConfig],
    jobs: int | None = None,
    kernel_names: dict[str, list[str]] | None = None,
    predict: bool = False,
) -> SweepResult:
    """Run every kernel of every benchmark under every configuration.

    ``kernel_names`` optionally restricts each benchmark to a subset of
    kernels (e.g. Figure 3 times a single kernel).  Results are keyed
    by (benchmark, kernel, config index), so configurations may share
    display names (the Figure 18 RFQ sweep reuses ``WASP_GPU``).
    With ``predict=True`` every row also carries the static
    performance model's prediction and its error vs the simulator
    (``report.prediction_rows``).
    """
    jobs = resolve_jobs(jobs)
    benchmarks = {
        name: get_benchmark(name, scale) for name in benchmark_names
    }
    tasks: list[KernelTask] = []
    groups: dict[str, list[KernelTask]] = {}
    for name, bench in benchmarks.items():
        wanted = None if kernel_names is None else kernel_names.get(name)
        for kernel in bench.kernels:
            if wanted is not None and kernel.name not in wanted:
                continue
            for idx, config in enumerate(configs):
                task = KernelTask(
                    benchmark=name,
                    scale=scale,
                    kernel=kernel.name,
                    config=config,
                    config_index=idx,
                    predict=predict,
                )
                tasks.append(task)
                groups.setdefault(kernel.content_digest(), []).append(task)

    start = time.perf_counter()
    report = SweepReport(jobs=jobs, num_tasks=len(tasks))
    # The result tier is sweep-scoped: forked workers must not inherit
    # an earlier sweep's replays, or they would simulate nothing.
    GLOBAL_CACHE.clear_results()
    try:
        outputs = fan_out(
            _run_sim_group, groups.values(), jobs, name=_group_name
        )
    finally:
        GLOBAL_CACHE.clear_results()
    cells = {
        _cell_key(task): (result, elapsed, stats)
        for group in outputs
        for task, result, elapsed, stats in group
    }
    # Fold in task order: float stall sums are then jobs-invariant.
    results: dict[tuple[str, str, int], KernelResult] = {}
    for task in tasks:
        result, elapsed, stats = cells[_cell_key(task)]
        result.kernel = benchmarks[task.benchmark].kernel(task.kernel)
        _record_cell(task, result, elapsed, stats, report, results)
    report.wall_seconds = time.perf_counter() - start
    _harvest_pool(report)
    _record_report(report)
    return SweepResult(benchmarks, configs, results, report)


def _harvest_pool(report: SweepReport) -> None:
    """Fold one sweep's pool statistics into the registry.

    Task counts are deterministic in the task list, hence
    ``invariant=True``; every timing metric is wall clock, so the rest
    is ``invariant=False``.
    """
    if not TELEMETRY.enabled:
        return
    if report.timings:
        TELEMETRY.counter(
            "repro_pool_tasks_total", {"phase": "simulate"},
            help="Sweep tasks completed by phase", invariant=True,
        ).inc(len(report.timings))
        TELEMETRY.counter(
            "repro_pool_worker_seconds_total", {"phase": "simulate"},
            help="Wall-clock seconds spent inside sweep tasks",
            invariant=False,
        ).inc(report.worker_seconds)
    task_seconds = TELEMETRY.histogram(
        "repro_pool_task_seconds", bounds=SECONDS_BUCKETS,
        help="Per-task wall-clock duration", invariant=False,
    )
    for timing in report.timings:
        task_seconds.observe(timing.seconds)
    # Queue wait: pool capacity the sweep paid for but did not use
    # (workers idle between units, stragglers).
    idle = max(
        0.0,
        report.wall_seconds * max(1, report.jobs)
        - report.worker_seconds,
    )
    TELEMETRY.counter(
        "repro_pool_idle_seconds_total",
        help="Pool capacity spent waiting rather than working",
        invariant=False,
    ).inc(idle)
    TELEMETRY.gauge(
        "repro_pool_jobs", help="Worker processes of the last sweep",
    ).set_max(report.jobs)
    TELEMETRY.gauge(
        "repro_pool_utilization",
        help="worker_seconds / (wall_seconds * jobs) of the last sweep",
    ).set_max(report.utilization)
    harvest_cache_stats(report.stats)


def _record_cell(task, result, elapsed, stats, report, results) -> None:
    report.stats.merge(stats)
    report.worker_seconds += elapsed
    report.add_sim(result.sim)
    report.add_prediction(task, result)
    report.timings.append(
        TaskTiming(
            benchmark=task.benchmark,
            kernel=task.kernel,
            config_name=task.config.name,
            seconds=elapsed,
        )
    )
    results[_cell_key(task)] = result


def _cell_key(task: KernelTask) -> tuple[str, str, int]:
    return (task.benchmark, task.kernel, task.config_index)

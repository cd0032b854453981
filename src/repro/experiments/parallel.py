"""Parallel experiment runner: kernel×config fan-out over a process pool.

Every figure sweep decomposes into independent (kernel, configuration)
timing tasks.  This module fans them out over ``concurrent.futures``
worker processes, with two properties the figures rely on:

* **Determinism** — results are assembled by task identity, so
  ``--jobs N`` produces numerically identical figures to ``--jobs 1``.
* **No duplicated trace generation** — when the persistent trace cache
  is enabled, a *warm phase* first generates each unique (kernel,
  compiler-options) trace exactly once across the pool; the simulate
  phase then runs entirely from cache hits.
* **No duplicated replay** — the simulate phase dispatches one pool
  unit per kernel content digest, so every cell that can share a cache
  entry's result tier runs in the same worker, and serial and parallel
  sweeps simulate the same distinct (entry, GPU) set.

Job count comes from ``jobs=`` (CLI ``--jobs``), else the
``REPRO_JOBS`` environment variable, else 1 (serial, no pool).
Workers communicate by task descriptor (benchmark name, scale, kernel
name, config) because kernels hold closure-based image factories that
cannot cross process boundaries; each worker rebuilds its kernels from
the deterministic workload registry and shares traces through the
content-addressed disk store.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.errors import CompilerError
from repro.experiments.configs import EvalConfig
from repro.experiments.runner import (
    GLOBAL_CACHE,
    BenchmarkResult,
    CacheStats,
    KernelResult,
    _compiler_options_for,
    harvest_cache_stats,
    run_kernel,
)
from repro.telemetry.registry import (
    SECONDS_BUCKETS,
    TELEMETRY,
    MetricsSnapshot,
)
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
    phase: str  # 'warm' or 'simulate'
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
        phases: dict[str, int] = {}
        for timing in self.timings:
            phases[timing.phase] = phases.get(timing.phase, 0) + 1
        return {
            "jobs": self.jobs,
            "num_tasks": self.num_tasks,
            "wall_seconds": round(self.wall_seconds, 4),
            "worker_seconds": round(self.worker_seconds, 4),
            "utilization": round(self.utilization, 4),
            "tasks_by_phase": phases,
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


# -- worker side ------------------------------------------------------------


def _worker_init(
    cache_dir: str | None, enabled: bool, telemetry: bool = False
) -> None:
    from repro.experiments.runner import configure_global_cache

    configure_global_cache(cache_dir=cache_dir, enabled=enabled)
    if telemetry:
        TELEMETRY.enable()


def _tel_delta(
    before: MetricsSnapshot | None,
) -> MetricsSnapshot | None:
    """This worker's registry delta since ``before`` (``None`` when
    telemetry is off — nothing crosses the process boundary)."""
    if before is None:
        return None
    return TELEMETRY.snapshot().since(before)


def _tel_before() -> MetricsSnapshot | None:
    return TELEMETRY.snapshot() if TELEMETRY.enabled else None


def _task_kernel(task: KernelTask):
    return get_benchmark(task.benchmark, task.scale).kernel(task.kernel)


def _run_warm_task(spec: tuple[KernelTask, str]):
    """Generate (or load) one functional trace into the shared store."""
    task, mode = spec
    start = time.perf_counter()
    before = GLOBAL_CACHE.stats.snapshot()
    tel_before = _tel_before()
    kernel = _task_kernel(task)
    if mode == "original":
        GLOBAL_CACHE.original(kernel)
    else:
        options = _compiler_options_for(kernel, task.config)
        if options is not None:
            try:
                GLOBAL_CACHE.specialized(kernel, options)
            except CompilerError:
                pass
    elapsed = time.perf_counter() - start
    return (task, elapsed, GLOBAL_CACHE.stats.since(before),
            _tel_delta(tel_before))


def _run_sim_group(tasks: list[KernelTask]):
    """Time every kernel×config of one entry group, in order.

    The cells share trace-cache entries, so they share one worker's
    result tier.  Returns kernel-stripped per-cell results plus the
    group's telemetry delta.
    """
    tel_before = _tel_before()
    cells = []
    for task in tasks:
        start = time.perf_counter()
        before = GLOBAL_CACHE.stats.snapshot()
        kernel = _task_kernel(task)
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
    return cells, _tel_delta(tel_before)


# -- orchestration ----------------------------------------------------------


def _options_key_of(kernel, config: EvalConfig):
    from repro.experiments.runner import _options_key

    return _options_key(_compiler_options_for(kernel, config))


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
    for name, bench in benchmarks.items():
        wanted = None if kernel_names is None else kernel_names.get(name)
        for kernel in bench.kernels:
            if wanted is not None and kernel.name not in wanted:
                continue
            for idx, config in enumerate(configs):
                tasks.append(
                    KernelTask(
                        benchmark=name,
                        scale=scale,
                        kernel=kernel.name,
                        config=config,
                        config_index=idx,
                        predict=predict,
                    )
                )

    start = time.perf_counter()
    report = SweepReport(jobs=jobs, num_tasks=len(tasks))
    results: dict[tuple[str, str, int], KernelResult] = {}
    # The result tier is sweep-scoped: forked workers must not inherit
    # an earlier sweep's replays, or they would simulate nothing.
    GLOBAL_CACHE.clear_results()
    try:
        if jobs == 1:
            _run_serial(tasks, benchmarks, results, report)
        else:
            _run_parallel(tasks, benchmarks, results, report, jobs)
    finally:
        GLOBAL_CACHE.clear_results()
    report.wall_seconds = time.perf_counter() - start
    _harvest_pool(report)
    _record_report(report)
    return SweepResult(benchmarks, configs, results, report)


def _harvest_pool(report: SweepReport) -> None:
    """Fold one sweep's pool statistics into the registry.

    Simulate-task counts are deterministic in the task list, hence
    ``invariant=True``; warm tasks only exist for cache-enabled
    parallel runs, and every timing metric is wall clock, so the rest
    is ``invariant=False``.
    """
    if not TELEMETRY.enabled:
        return
    phases: dict[str, tuple[int, float]] = {}
    for timing in report.timings:
        count, seconds = phases.get(timing.phase, (0, 0.0))
        phases[timing.phase] = (count + 1, seconds + timing.seconds)
    for phase, (count, seconds) in sorted(phases.items()):
        TELEMETRY.counter(
            "repro_pool_tasks_total", {"phase": phase},
            help="Sweep tasks completed by phase",
            invariant=phase == "simulate",
        ).inc(count)
        TELEMETRY.counter(
            "repro_pool_worker_seconds_total", {"phase": phase},
            help="Wall-clock seconds spent inside sweep tasks",
            invariant=False,
        ).inc(seconds)
    task_seconds = TELEMETRY.histogram(
        "repro_pool_task_seconds", bounds=SECONDS_BUCKETS,
        help="Per-task wall-clock duration", invariant=False,
    )
    for timing in report.timings:
        task_seconds.observe(timing.seconds)
    # Queue wait: pool capacity the sweep paid for but did not use
    # (workers idle between tasks, warm-phase barriers, stragglers).
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
            phase="simulate",
            seconds=elapsed,
        )
    )
    results[_cell_key(task)] = result


def _cell_key(task: KernelTask) -> tuple[str, str, int]:
    return (task.benchmark, task.kernel, task.config_index)


def _run_serial(tasks, benchmarks, results, report) -> None:
    for task in tasks:
        kernel = benchmarks[task.benchmark].kernel(task.kernel)
        before = GLOBAL_CACHE.stats.snapshot()
        start = time.perf_counter()
        result = run_kernel(
            kernel, task.config, GLOBAL_CACHE, predict=task.predict
        )
        elapsed = time.perf_counter() - start
        _record_cell(task, result, elapsed,
                     GLOBAL_CACHE.stats.since(before), report, results)


def _run_parallel(tasks, benchmarks, results, report, jobs) -> None:
    store = GLOBAL_CACHE.store
    cache_dir = str(store.cache_dir) if store is not None else None
    enabled = store is not None
    groups: dict[str, list[KernelTask]] = {}
    for task in tasks:
        kernel = benchmarks[task.benchmark].kernel(task.kernel)
        groups.setdefault(kernel.content_digest(), []).append(task)
    cells: dict[tuple[str, str, int], tuple] = {}
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_worker_init,
        initargs=(cache_dir, enabled, TELEMETRY.enabled),
    ) as pool:
        if enabled:
            _warm_phase(pool, tasks, benchmarks, report)
        for group, tel in pool.map(
            _run_sim_group, groups.values(), chunksize=1
        ):
            if tel is not None:
                TELEMETRY.merge_snapshot(tel)
            for task, result, elapsed, stats in group:
                cells[_cell_key(task)] = (result, elapsed, stats)
    # Fold in task order: float stall sums then match a serial sweep's.
    for task in tasks:
        result, elapsed, stats = cells[_cell_key(task)]
        result.kernel = benchmarks[task.benchmark].kernel(task.kernel)
        _record_cell(task, result, elapsed, stats, report, results)


def _warm_phase(pool, tasks, benchmarks, report) -> None:
    """Generate each unique (kernel, options) trace once across the pool.

    Two waves: plain-kernel traces (which every ``run_kernel`` call
    needs) first, then warp-specialized ones.  Each wave is deduplicated
    on (kernel content digest, options key), so no two workers ever
    generate the same trace concurrently.
    """
    originals: dict[str, tuple[KernelTask, str]] = {}
    specialized: dict[tuple, tuple[KernelTask, str]] = {}
    for task in tasks:
        kernel = benchmarks[task.benchmark].kernel(task.kernel)
        digest = kernel.content_digest()
        originals.setdefault(digest, (task, "original"))
        okey = _options_key_of(kernel, task.config)
        if okey is not None:
            specialized.setdefault((digest, okey), (task, "specialized"))
    for wave in (list(originals.values()), list(specialized.values())):
        for task, elapsed, stats, tel in pool.map(
            _run_warm_task, wave, chunksize=1
        ):
            report.stats.merge(stats)
            if tel is not None:
                TELEMETRY.merge_snapshot(tel)
            report.worker_seconds += elapsed
            report.timings.append(
                TaskTiming(
                    benchmark=task.benchmark,
                    kernel=task.kernel,
                    config_name=task.config.name,
                    phase="warm",
                    seconds=elapsed,
                )
            )

"""Kernel and benchmark execution under evaluation configurations.

Functional traces (the expensive part) are cached on what the machine
executes: the program, its launch and its initial memory image.  A
specialized lookup compiles the kernel under the option set (memoized
in memory per (kernel, options)) and then finds or generates the
traces of the compiled program, so option sets that compile to one
program share its traces.  Timing replays and perf-model predictions
are memoized on the cached entry per replay key: the GPU with its
features reduced to those a replay of the entry's traces can observe
(:func:`~repro.sim.gpu.replay_key`).  Configurations whose GPUs a
replay cannot tell apart share it: BASELINE and WASP_GPU replay an
unspecialized kernel once.  Per-kernel opt-in mirrors the paper: the
specialized version is used only where it beats the unspecialized
kernel on the same hardware.

Cache entries are **content-addressed**: the key is a SHA-256 over
:func:`~repro.workloads.base.execution_digest` (the executed program's
:func:`~repro.isa.serialize.program_digest`, the launch geometry and
the initial image) and the trace format, so identical runs share an
entry regardless of object identity or of the option set that
produced the program, and entries persist across processes through
the on-disk :class:`~repro.fexec.trace_store.TraceStore`.  A changed
compiler output is a new key, never a stale hit.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING

from repro.core.compiler import (
    CompileResult,
    WaspCompiler,
    WaspCompilerOptions,
)
from repro.errors import CompilerError, ResourceError, SimulationError
from repro.experiments.configs import EvalConfig
from repro.fexec.launch import LaunchConfig
from repro.fexec.machine import run_kernel as run_functional
from repro.fexec.trace import TRACE_FORMAT_VERSION, KernelTrace
from repro.fexec.trace_store import TraceStore
from repro.isa.program import Program
from repro.sim.config import GPUConfig
from repro.sim.gpu import SimResult, replay_key, simulate_kernel
from repro.telemetry.registry import TELEMETRY
from repro.telemetry.spans import span
from repro.workloads.base import Benchmark, Kernel, execution_digest

if TYPE_CHECKING:  # the perf model imports this module
    from repro.analysis.perfmodel.model import Prediction


def _options_key(options: WaspCompilerOptions | None):
    """Every compiler option that can change the compiled program.

    The post-pass checks (``verify``/``validate``) only accept or
    reject a compile, so they stay out of the key.
    """
    if options is None:
        return None
    fields = options.to_json()
    del fields["verify"], fields["validate"]
    return tuple(sorted(fields.items()))


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`TraceCache`.

    ``generations`` counts *functional trace generations* — the
    expensive operation everything else exists to avoid.  Compiling a
    kernel that turns out not to specialize does not count.
    ``sim_reuses`` and ``prediction_reuses`` count replays and
    perf-model walks the result tier answered without running them.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    generations: int = 0
    disk_writes: int = 0
    sim_reuses: int = 0
    prediction_reuses: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.generations

    def snapshot(self) -> "CacheStats":
        return replace(self)

    def since(self, before: "CacheStats") -> "CacheStats":
        return CacheStats(**{
            f.name: getattr(self, f.name) - getattr(before, f.name)
            for f in fields(self)
        })

    def merge(self, other: "CacheStats") -> None:
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def to_json(self) -> dict[str, int]:
        """Structured form for SweepReport/CI artifacts."""
        return {**asdict(self), "lookups": self.lookups}


def harvest_cache_stats(stats: CacheStats) -> None:
    """Fold trace-cache counters into the metrics registry.

    Tier locality (memory vs disk hit, and with the disk tier off even
    the generation count) depends on process scheduling, so every tier
    is ``invariant=False`` — excluded from the jobs-invariance
    contract.  Result-tier reuses are ``invariant=True``: a sweep
    empties the tier at its start and dispatches each entry group to
    one worker, so serial and parallel sweeps reuse the same results.
    """
    if not TELEMETRY.enabled:
        return
    for tier, value in (
        ("memory_hit", stats.memory_hits),
        ("disk_hit", stats.disk_hits),
        ("generation", stats.generations),
        ("disk_write", stats.disk_writes),
    ):
        TELEMETRY.counter(
            "repro_cache_trace_lookups_total", {"tier": tier},
            help="TraceCache lookups by outcome tier", invariant=False,
        ).inc(value)
    for kind, value in (
        ("sim", stats.sim_reuses),
        ("prediction", stats.prediction_reuses),
    ):
        TELEMETRY.counter(
            "repro_cache_result_reuses_total", {"kind": kind},
            help="Replays and predictions served by the result tier",
        ).inc(value)


@dataclass
class _TraceEntry:
    """The traces of one executed program, with their result tier."""

    traces: list[KernelTrace]
    #: Result tier: replay key (resolved core, reduced GPU) -> replay
    #: of ``traces``.
    sims: dict[tuple, SimResult] = field(default_factory=dict)
    #: Result tier: (replay-key GPU, kernel name) -> perf-model
    #: prediction.
    predictions: dict[tuple, Prediction] = field(default_factory=dict)


class TraceCache:
    """Two-tier (memory + optional disk) functional-trace cache.

    The in-memory tier maps trace keys to live entries within one
    process; the optional :class:`TraceStore` tier shares traces across
    processes and runs.  ``TraceCache()`` with no store is purely
    in-memory (what unit tests want); the shared :data:`GLOBAL_CACHE`
    is backed by the environment-configured store.  Beside them sits
    an in-memory index from (kernel, options) to the compile.

    On top sits a *result tier*: each live entry memoizes its replays
    (:meth:`simulate`) and perf-model predictions (:meth:`predict`) by
    replay key, so configurations sharing one run each once.  Replays
    with a profiler or an explicit occupancy call :func:`simulate_kernel`
    directly and never touch it.
    """

    def __init__(self, store: TraceStore | None = None) -> None:
        self._entries: dict[str, _TraceEntry] = {}
        self._compiles: dict[tuple, CompileResult] = {}
        self.store = store
        self.stats = CacheStats()

    def compile(
        self, kernel: Kernel, options: WaspCompilerOptions
    ) -> CompileResult:
        """``kernel`` compiled under ``options``, once per process.

        A :class:`CompilerError` propagates and is not remembered.
        """
        index = (kernel.content_digest(), _options_key(options))
        result = self._compiles.get(index)
        if result is None:
            result = self._compiles[index] = WaspCompiler(options).compile(
                kernel.program, num_warps=kernel.launch.num_warps
            )
        return result

    def key_for(
        self, kernel: Kernel, options: WaspCompilerOptions | None
    ) -> str | None:
        """The trace key of what (kernel, options) executes, or
        ``None`` when ``options`` do not specialize the kernel."""
        if options is None:
            return _trace_key(kernel.content_digest())
        run = self._compiled_run(kernel, options)
        return None if run is None else _trace_key(run[2])

    def original(self, kernel: Kernel) -> _TraceEntry:
        return self._entry(
            kernel, kernel.program, kernel.launch, kernel.content_digest()
        )

    def specialized(
        self, kernel: Kernel, options: WaspCompilerOptions
    ) -> _TraceEntry | None:
        run = self._compiled_run(kernel, options)
        return None if run is None else self._entry(kernel, *run)

    def simulate(self, entry: _TraceEntry, gpu: GPUConfig) -> SimResult:
        """``simulate_kernel(entry.traces, gpu)``, once per replay key
        (:func:`~repro.sim.gpu.replay_key`)."""
        key = replay_key(gpu, entry.traces)
        sim = entry.sims.get(key)
        if sim is None:
            core, key_gpu = key
            sim = entry.sims[key] = simulate_kernel(
                entry.traces, key_gpu, core=core
            )
        else:
            self.stats.sim_reuses += 1
        return sim

    def predict(
        self, entry: _TraceEntry, gpu: GPUConfig, kernel_name: str
    ) -> Prediction:
        """``predict_traces(entry.traces, gpu, kernel_name)``, once per
        (replay-key GPU, kernel name).  The model runs no SM core."""
        # Imported lazily: the perfmodel depends on this module's cache
        # in the other direction (predict_kernel).
        from repro.analysis.perfmodel.model import predict_traces

        key_gpu = replay_key(gpu, entry.traces)[1]
        key = (key_gpu, kernel_name)
        prediction = entry.predictions.get(key)
        if prediction is None:
            prediction = entry.predictions[key] = predict_traces(
                entry.traces, key_gpu, kernel_name=kernel_name
            )
        else:
            self.stats.prediction_reuses += 1
        return prediction

    def clear_results(self) -> None:
        """Empty the result tier; traces stay cached."""
        for entry in self._entries.values():
            entry.sims.clear()
            entry.predictions.clear()

    def _compiled_run(
        self, kernel: Kernel, options: WaspCompilerOptions
    ) -> tuple[Program, LaunchConfig, str] | None:
        """(program, launch, execution digest) of ``kernel`` compiled
        under ``options``; ``None`` when the compile does not
        specialize."""
        result = self.compile(kernel, options)
        if result.facts is None:  # not specialized
            return None
        launch = replace(
            kernel.launch,
            num_warps=kernel.launch.num_warps * result.num_stages,
        )
        digest = execution_digest(
            result.facts.program_digest, launch, kernel.image_digest()
        )
        return result.program, launch, digest

    def _entry(
        self,
        kernel: Kernel,
        program: Program,
        launch: LaunchConfig,
        digest: str,
    ) -> _TraceEntry:
        """The entry of one run: memory, then disk, then the machine."""
        key = _trace_key(digest)
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.memory_hits += 1
            return entry
        payload = self.store.load(key) if self.store is not None else None
        if payload is not None and payload["traces"]:
            self.stats.disk_hits += 1
            traces = payload["traces"]
        else:
            with span("fexec", "trace"):
                traces = run_functional(
                    program, kernel.image_factory(), launch
                ).traces
            self.stats.generations += 1
            if self.store is not None and self.store.save(key, traces):
                self.stats.disk_writes += 1
        entry = self._entries[key] = _TraceEntry(traces)
        return entry


def _trace_key(digest: str) -> str:
    """Store key of the traces of a run with this
    :func:`~repro.workloads.base.execution_digest`."""
    text = f"{digest}|format={TRACE_FORMAT_VERSION}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_GLOBAL_CACHE = TraceCache(store=TraceStore.from_env())

# Public shared cache: experiment modules, benches and parallel workers
# reuse functional traces across figures and — through the persistent
# store — across processes.
GLOBAL_CACHE = _GLOBAL_CACHE


def configure_global_cache(
    cache_dir: str | None = None, enabled: bool = True
) -> TraceCache:
    """Point :data:`GLOBAL_CACHE` at a different disk tier (or none).

    Used by the CLI's ``--cache-dir`` / ``--no-cache`` flags; parallel
    workers inherit the same configuration through the pool
    initializer.
    """
    if not enabled:
        GLOBAL_CACHE.store = None
    elif cache_dir is not None:
        GLOBAL_CACHE.store = TraceStore(cache_dir)
    else:
        GLOBAL_CACHE.store = TraceStore.from_env()
    return GLOBAL_CACHE


@dataclass
class KernelResult:
    """Timing of one kernel under one configuration."""

    kernel: Kernel
    config_name: str
    cycles: float
    sim: SimResult
    used_specialized: bool
    compile_result: CompileResult | None = None
    fallback_sim: SimResult | None = None
    #: Static performance-model prediction for the *same* traces the
    #: simulator timed (attached when ``run_kernel(..., predict=True)``).
    prediction: Prediction | None = None

    @property
    def predicted_error(self) -> float | None:
        """|predicted - simulated| / simulated, when a prediction rode
        along."""
        if self.prediction is None or self.cycles <= 0:
            return None
        predicted = getattr(self.prediction, "cycles", None)
        if predicted is None:
            return None
        return abs(predicted - self.cycles) / self.cycles


@dataclass
class BenchmarkResult:
    """Weighted benchmark aggregate."""

    benchmark: Benchmark
    config_name: str
    kernels: list[KernelResult] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        return sum(k.kernel.weight * k.cycles for k in self.kernels)


def _compiler_options_for(
    kernel: Kernel, config: EvalConfig
) -> WaspCompilerOptions | None:
    if config.compiler is not None:
        return replace(config.compiler, queue_size=config.gpu.rfq_size)
    if kernel.is_gemm and config.cutlass_gemm:
        # CUTLASS model: tile pipeline on GEMM kernels, even at baseline.
        return WaspCompilerOptions(
            enable_streaming=False, enable_tma_offload=False
        )
    return None


def _gpu_for(kernel: Kernel, config: EvalConfig) -> GPUConfig:
    if (
        kernel.is_gemm
        and config.cutlass_gemm
        and config.compiler is None
    ):
        # Idealized warp mapping for the CUTLASS baseline (Section V-A).
        from repro.experiments.configs import _cutlass_gpu

        return _cutlass_gpu(config.gpu)
    return config.gpu


def run_kernel(
    kernel: Kernel,
    config: EvalConfig,
    cache: TraceCache | None = None,
    predict: bool = False,
) -> KernelResult:
    """Time one kernel under ``config`` (with per-kernel opt-in).

    With ``predict=True`` the static performance model predicts the
    same traces the simulator timed and rides along on the result
    (``result.prediction`` / ``result.predicted_error``), turning every
    sweep row into a calibration sample.
    """
    cache = cache or _GLOBAL_CACHE
    gpu = _gpu_for(kernel, config)
    options = _compiler_options_for(kernel, config)

    plain = cache.original(kernel)
    plain_sim = cache.simulate(plain, gpu)

    entry = None
    if options is not None:
        try:
            entry = cache.specialized(kernel, options)
        except CompilerError:
            entry = None
    spec_sim = None
    if entry is not None:
        try:
            spec_sim = cache.simulate(entry, gpu)
        except ResourceError:
            spec_sim = None

    use_spec = spec_sim is not None and (
        not config.opt_in or spec_sim.cycles < plain_sim.cycles
    )
    sim = spec_sim if use_spec else plain_sim
    result = KernelResult(
        kernel=kernel,
        config_name=config.name,
        cycles=sim.cycles,
        sim=sim,
        used_specialized=use_spec,
        compile_result=cache.compile(kernel, options) if entry else None,
        fallback_sim=None if options is None else plain_sim,
    )
    if predict:
        result.prediction = cache.predict(
            entry if use_spec else plain, gpu, kernel.name
        )
    return result


def profile_kernel(
    kernel: Kernel,
    config: EvalConfig,
    cache: TraceCache | None = None,
    trace_capacity: int | None = None,
) -> tuple[KernelResult, "PipelineProfiler"]:
    """Time one kernel with full pipeline profiling attached.

    Runs the normal (unprofiled) :func:`run_kernel` selection first so
    the specialized-vs-plain opt-in decision is identical to what the
    figures use, then replays the chosen variant's traces once more
    with a :class:`~repro.profiling.PipelineProfiler` recording the
    event trace, queue occupancy and memory mix.  The replay is
    deterministic, so the profiled timing equals the reported one.
    """
    from repro.profiling import PipelineProfiler

    cache = cache or _GLOBAL_CACHE
    result = run_kernel(kernel, config, cache)
    gpu = _gpu_for(kernel, config)
    if result.used_specialized:
        options = _compiler_options_for(kernel, config)
        entry = cache.specialized(kernel, options)
        traces = entry.traces
    else:
        traces = cache.original(kernel).traces
    if trace_capacity is not None:
        profiler = PipelineProfiler(trace_capacity=trace_capacity)
    else:
        profiler = PipelineProfiler()
    sim = simulate_kernel(traces, gpu, profiler=profiler)
    if sim.cycles != result.cycles:
        raise SimulationError(
            f"profiled replay of {kernel.name} under {config.name} "
            f"took {sim.cycles} cycles vs {result.cycles} unprofiled: "
            f"profiling hooks must not perturb timing"
        )
    profiled = replace(result, sim=sim)
    return profiled, profiler


def run_benchmark(
    benchmark: Benchmark,
    config: EvalConfig,
    cache: TraceCache | None = None,
) -> BenchmarkResult:
    """Time every kernel of a benchmark under ``config``."""
    result = BenchmarkResult(benchmark=benchmark, config_name=config.name)
    for kernel in benchmark.kernels:
        result.kernels.append(run_kernel(kernel, config, cache))
    return result

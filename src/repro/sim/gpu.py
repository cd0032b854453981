"""High-level simulation API.

``simulate_program`` runs a kernel functionally (producing traces and
memory side effects) and then replays the traces on the timing model;
``simulate_kernel`` skips the functional step when traces already exist
(e.g. to time the same trace under several GPU configurations).

Both entry points accept an optional :class:`PipelineProfiler`; when
one is attached the timing replay additionally records the event trace,
queue-occupancy samples and memory service mix that feed the Chrome
trace exporter.  Stall-cause attribution is collected unconditionally —
it is interval-based and adds only O(1) work per issue attempt.
"""

from __future__ import annotations

import os
from dataclasses import replace

from repro.core.mapping import map_warps
from repro.errors import SimulationError
from repro.fexec.launch import LaunchConfig
from repro.fexec.machine import run_kernel
from repro.fexec.memory_image import MemoryImage
from repro.fexec.trace import KernelTrace
from repro.isa.program import Program
from repro.profiling import PipelineProfiler
from repro.sim.config import GPUConfig, SchedulingPolicy, WaspFeatures
from repro.sim.occupancy import Occupancy
from repro.sim.results import TIMELINE_BUCKET, SimResult, SMStats
from repro.sim.sm import SMSimulator
from repro.sim.sm_event import EventSMSimulator
from repro.telemetry.registry import TELEMETRY
from repro.telemetry.spans import span

__all__ = [
    "SimResult", "make_simulator", "replay_key", "resolve_core",
    "simulate_kernel", "simulate_program",
]

_CORES = {
    "event": EventSMSimulator,
    "reference": SMSimulator,
}

#: Environment override for the session-wide default core.  An explicit
#: ``core=`` argument (the differential harness comparing both) always
#: wins; otherwise the variable beats ``config.core``, so a whole run
#: (e.g. the nightly fuzz sweep) can be switched without touching
#: configs.
_CORE_ENV = "REPRO_SIM_CORE"


def resolve_core(config: GPUConfig, core: str | None = None) -> str:
    """The SM core a replay of ``config`` runs on: explicit ``core``,
    then ``REPRO_SIM_CORE``, then ``config.core``."""
    return core or os.environ.get(_CORE_ENV) or config.core


def replay_key(
    config: GPUConfig, traces: list[KernelTrace], core: str | None = None,
) -> tuple[str, GPUConfig]:
    """The resolved core and the GPU a replay of ``traces`` under
    ``config`` cannot be told apart from: ``config`` with its features
    reduced to those the replay observes.

    ``explicit_naming`` and ``wasp_tma`` are always reset: neither the
    SM cores nor :func:`~repro.analysis.perfmodel.model.predict_traces`
    reads them.  Every other feature acts through the thread-block
    spec (§III-A: hardware names warps only through it).
    ``group_pipeline_mapping`` acts only through the warp→processing-
    block map :func:`~repro.core.mapping.map_warps` gives the SM cores
    (the perf model never reads it), so it is reset when the slice
    mapping of every trace's spec equals round-robin.  Traces of a
    spec-less program have one stage and no queues, so mapping,
    occupancy and queue code ignore those features, and every policy
    but LRR ranks single-stage, queue-less warps exactly as GTO does:
    such a replay is BASELINE's, unless it runs pipeline scheduling
    under LRR.  For the same reason ``rfq_size`` is reset to the
    default on spec-less traces: it sizes only RFQ channels and their
    register-file share (§III-C), and such traces have neither.
    """
    features = config.features
    if any(trace.tb_spec is not None for trace in traces):
        reduced = replace(features, explicit_naming=False, wasp_tma=False)
        blocks = config.processing_blocks
        if features.group_pipeline_mapping and all(
            map_warps(t.tb_spec, t.num_warps, blocks, True)
            == map_warps(t.tb_spec, t.num_warps, blocks, False)
            for t in traces
        ):
            reduced = replace(reduced, group_pipeline_mapping=False)
        return resolve_core(config, core), replace(config, features=reduced)
    if (
        features.pipeline_scheduling
        and features.scheduling_policy is SchedulingPolicy.LRR
    ):
        reduced = WaspFeatures(
            pipeline_scheduling=True,
            scheduling_policy=SchedulingPolicy.LRR,
        )
    else:
        reduced = WaspFeatures()
    return resolve_core(config, core), replace(
        config, features=reduced, rfq_size=GPUConfig.rfq_size
    )


def make_simulator(
    config: GPUConfig,
    traces: list[KernelTrace],
    occupancy: Occupancy | None = None,
    profiler: PipelineProfiler | None = None,
    core: str | None = None,
) -> SMSimulator:
    """Instantiate the configured SM core loop for ``traces``."""
    name = resolve_core(config, core)
    cls = _CORES.get(name)
    if cls is None:
        raise SimulationError(
            f"unknown simulator core {name!r}: expected one of "
            f"{sorted(_CORES)}"
        )
    return cls(config, traces, occupancy=occupancy, profiler=profiler)


def simulate_kernel(
    traces: list[KernelTrace],
    config: GPUConfig,
    occupancy: Occupancy | None = None,
    profiler: PipelineProfiler | None = None,
    core: str | None = None,
) -> SimResult:
    """Replay traces on the timing model and summarize."""
    sim = make_simulator(config, traces, occupancy=occupancy,
                         profiler=profiler, core=core)
    with span("sim", "replay"):
        stats = sim.run()
    return _summarize(sim, stats, profiler)


def simulate_program(
    program: Program,
    memory: MemoryImage,
    launch: LaunchConfig,
    config: GPUConfig,
    profiler: PipelineProfiler | None = None,
) -> SimResult:
    """Functionally execute then time ``program``."""
    result = run_kernel(program, memory, launch, sanitize=config.sanitize)
    if config.sanitize and result.races and TELEMETRY.enabled:
        TELEMETRY.counter(
            "sanitizer_races_total",
            help="Races observed by the dynamic SMEM sanitizer.",
        ).inc(len(result.races))
    sim = simulate_kernel(result.traces, config, profiler=profiler)
    sim.sanitizer_races = list(result.races)
    return sim


def _summarize(
    sim: SMSimulator,
    stats: SMStats,
    profiler: PipelineProfiler | None = None,
) -> SimResult:
    elapsed = max(1.0, stats.cycles)
    timeline = []
    # Cover the whole run, including trailing buckets where nothing
    # issued but memory traffic was still draining — and buckets up to
    # the final cycle count (which waits for the memory drain), so the
    # timeline's time axis matches ``cycles``.
    last_bucket = max(
        max(stats.timeline, default=0),
        (int(elapsed) - 1) // TIMELINE_BUCKET,
    )
    empty = None
    for bucket_index in range(last_bucket + 1):
        bucket = stats.timeline.get(bucket_index)
        if bucket is None:
            if empty is None:
                from repro.sim.results import TimelineBucket

                empty = TimelineBucket()
            bucket = empty
        time = bucket_index * TIMELINE_BUCKET
        compute_util = bucket.tensor_fp_issued / TIMELINE_BUCKET
        mem_util = min(
            1.0,
            bucket.sectors
            / (sim.config.l2_sectors_per_cycle * TIMELINE_BUCKET),
        )
        timeline.append((time, compute_util, mem_util))
    return SimResult(
        kernel_name=sim.traces[0].kernel_name,
        cycles=stats.cycles,
        issued_total=stats.issued_total,
        issued_by_category=dict(stats.issued_by_category),
        issued_by_stage=dict(stats.issued_by_stage),
        queue_overhead_instrs=stats.queue_overhead_instrs,
        l2_utilization=sim.memory.l2_utilization(elapsed),
        dram_utilization=sim.memory.dram_utilization(elapsed),
        smem_utilization=sim.memory.smem_utilization(elapsed),
        l1_hit_rate=sim.memory.l1.hit_rate(),
        occupancy=sim.occupancy,
        timeline=timeline,
        tbs_completed=stats.tbs_completed,
        stall_cycles=dict(stats.stall_cycles),
        active_warp_cycles=stats.active_warp_cycles,
        queue_profiles=(
            profiler.queue_profiles() if profiler is not None else []
        ),
        stall_spans=stats.stall_spans,
    )

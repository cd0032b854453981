"""The model's public face: predictions with explanations.

``predict_traces`` runs the coupled-dataflow walk plus the closed-form
bound report and assembles a :class:`Prediction`: predicted cycles and
steady-state throughput, the bottleneck stage, a human-readable
explanation chain walked over the stage→queue digraph, and a stall mix
in the PR 2 profiler's taxonomy.  ``predict_kernel`` adds the
WASP-vs-baseline view: it predicts both the unspecialized program on
the same hardware and the configured pipeline, yielding a predicted
speedup without a single simulated cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.perfmodel.bounds import (
    BoundReport,
    MemoryLevelMix,
    compute_bounds,
    queue_digraph,
)
from repro.analysis.perfmodel.dataflow import DataflowWalk
from repro.fexec.trace import KernelTrace
from repro.profiling.stalls import (
    StallCause,
    dominant_cause,
    dominant_stage,
    stall_mix,
)
from repro.sim.config import GPUConfig
from repro.sim.occupancy import Occupancy
from repro.telemetry.spans import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.configs import EvalConfig
    from repro.experiments.runner import TraceCache
    from repro.workloads.base import Kernel

#: Schema tag stamped into every serialized prediction.
PREDICTION_SCHEMA = "repro-perfmodel-prediction-v1"


@dataclass
class Prediction:
    """Execution-free performance estimate for one kernel+config."""

    kernel_name: str
    cycles: float
    #: Predicted instructions per cycle at steady state.
    throughput: float
    bottleneck_stage: int | None
    bottleneck_cause: str | None
    #: Explanation chain, outermost constraint first.
    explanation: list[str] = field(default_factory=list)
    #: Cause -> share of predicted stalled time (PR 2 taxonomy).
    stall_mix: dict[str, float] = field(default_factory=dict)
    #: (stage, cause name) -> predicted stalled cycles.
    stage_stalls: dict[tuple[int, str], float] = field(
        default_factory=dict
    )
    bounds: BoundReport = field(default_factory=BoundReport)
    #: Raw (stage, StallCause) stalls for mix comparison helpers.
    raw_stalls: dict[tuple[int, StallCause], float] = field(
        default_factory=dict
    )

    def to_json(self) -> dict[str, object]:
        return {
            "schema": PREDICTION_SCHEMA,
            "kernel": self.kernel_name,
            "cycles": round(self.cycles, 2),
            "throughput": round(self.throughput, 4),
            "bottleneck_stage": self.bottleneck_stage,
            "bottleneck_cause": self.bottleneck_cause,
            "explanation": list(self.explanation),
            "stall_mix": {
                cause: round(share, 4)
                for cause, share in sorted(self.stall_mix.items())
            },
            "bounds": self.bounds.to_json(),
        }


@dataclass
class KernelPrediction:
    """Baseline and pipelined predictions plus the predicted speedup."""

    kernel_name: str
    config_name: str
    predicted: Prediction
    baseline: Prediction
    used_specialized: bool

    @property
    def predicted_speedup(self) -> float:
        if self.predicted.cycles <= 0:
            return 1.0
        return self.baseline.cycles / self.predicted.cycles

    def to_json(self) -> dict[str, object]:
        return {
            "kernel": self.kernel_name,
            "config": self.config_name,
            "specialized": self.used_specialized,
            "predicted": self.predicted.to_json(),
            "baseline": self.baseline.to_json(),
            "predicted_speedup": round(self.predicted_speedup, 4),
        }


def predict_traces(
    traces: list[KernelTrace],
    gpu: GPUConfig,
    occupancy: Occupancy | None = None,
    kernel_name: str = "",
) -> Prediction:
    """Run the model over functional traces; no simulation involved."""
    with span("perfmodel", "dataflow_walk"):
        walk = DataflowWalk(gpu, traces, occupancy=occupancy)
        cycles = walk.run()

    stats = walk.memory.stats
    mix = MemoryLevelMix(
        l1_hits=stats.l1_hits,
        l2_hits=stats.l2_hits,
        dram_accesses=stats.dram_accesses,
    )
    traffic = walk.channel_stats()
    residency = {
        qid: agg.mean_residency for qid, agg in traffic.items()
    }
    channels = {qid: agg.channels for qid, agg in traffic.items()}
    with span("perfmodel", "bounds"):
        bounds = compute_bounds(
            walk.stage_work,
            gpu.service_rates(),
            walk.spec,
            level_mix=mix,
            queue_residency=residency,
            queue_channels=channels,
        )

    stage = dominant_stage(walk.stalls)
    cause = dominant_cause(walk.stalls, stage)
    total_issues = sum(w.issue_slots for w in walk.stage_work.values())
    throughput = total_issues / cycles if cycles > 0 else 0.0

    explanation = _explain(walk, bounds, stage, cause, cycles)

    return Prediction(
        kernel_name=kernel_name or traces[0].kernel_name,
        cycles=cycles,
        throughput=throughput,
        bottleneck_stage=stage,
        bottleneck_cause=cause.value if cause is not None else None,
        explanation=explanation,
        stall_mix={
            c.value: share for c, share in stall_mix(walk.stalls).items()
        },
        stage_stalls={
            (s, c.value): v for (s, c), v in walk.stalls.items()
        },
        bounds=bounds,
        raw_stalls=dict(walk.stalls),
    )


def _explain(
    walk: DataflowWalk,
    bounds: BoundReport,
    stage: int | None,
    cause: StallCause | None,
    cycles: float,
) -> list[str]:
    """Build the explanation chain over the stage→queue digraph."""
    chain: list[str] = []
    binding = bounds.binding()
    if binding is not None:
        tightness = binding.cycles / cycles if cycles > 0 else 0.0
        chain.append(
            f"tightest closed-form bound: {binding.name} at "
            f"{binding.cycles:.0f} cycles ({binding.detail}); "
            f"model predicts {cycles:.0f}, so the bound accounts for "
            f"{tightness:.0%} of predicted time"
        )
    if stage is None or cause is None:
        chain.append(
            "no predicted stalls: the kernel issues back-to-back "
            "(issue-bound)"
        )
        return chain

    per_stage: dict[int, float] = {}
    for (s, _c), v in walk.stalls.items():
        per_stage[s] = per_stage.get(s, 0.0) + v
    stage_total = per_stage.get(stage, 0.0)
    chain.append(
        f"bottleneck stage {stage}: {stage_total:.0f} predicted stall "
        f"cycles, dominated by {cause.value}"
    )

    edges = queue_digraph(walk.spec)
    visited = {stage}
    current: int | None = stage
    current_cause: StallCause | None = cause
    for _hop in range(8):
        if current is None or current_cause is None:
            break
        if current_cause is StallCause.QUEUE_EMPTY:
            feeders = [
                (qid, src) for qid, src, dst in edges if dst == current
            ]
            if not feeders:
                chain.append(
                    f"stage {current} starves on queue data with no "
                    "producer edge in the spec"
                )
                break
            qid, producer = feeders[0]
            chain.append(
                f"stage {current} starves on queue {qid}; producer is "
                f"stage {producer}"
            )
            if producer in visited:
                chain.append(
                    "producer/consumer coupling is cyclic; stopping"
                )
                break
            visited.add(producer)
            current = producer
            current_cause = dominant_cause(walk.stalls, producer)
            if current_cause is None:
                chain.append(
                    f"stage {producer} has no predicted stalls: it is "
                    "issue/throughput-limited at the source"
                )
                break
        elif current_cause is StallCause.QUEUE_FULL:
            drains = [
                (qid, dst) for qid, src, dst in edges if src == current
            ]
            if not drains:
                chain.append(
                    f"stage {current} back-pressures on a queue with "
                    "no consumer edge in the spec"
                )
                break
            qid, consumer = drains[0]
            chain.append(
                f"stage {current} is back-pressured by queue {qid}; "
                f"consumer is stage {consumer}"
            )
            if consumer in visited:
                chain.append(
                    "producer/consumer coupling is cyclic; stopping"
                )
                break
            visited.add(consumer)
            current = consumer
            current_cause = dominant_cause(walk.stalls, consumer)
            if current_cause is None:
                chain.append(
                    f"stage {consumer} has no predicted stalls: it "
                    "drains as fast as it issues"
                )
                break
        elif current_cause is StallCause.SCOREBOARD:
            chain.append(_memory_story(walk, current))
            break
        elif current_cause is StallCause.MSHR:
            chain.append(
                f"stage {current} exhausts the per-warp "
                "outstanding-load limit "
                f"({walk.gpu.max_outstanding_loads_per_warp}): memory "
                "level parallelism, not bandwidth, is the cap"
            )
            break
        elif current_cause is StallCause.BARRIER_WAIT:
            chain.append(
                f"stage {current} waits on barrier arrivals "
                "(arrive/wait or thread-block sync coupling)"
            )
            break
        else:
            chain.append(
                f"stage {current} dominated by {current_cause.value}"
            )
            break
    return chain


def _memory_story(walk: DataflowWalk, stage: int) -> str:
    stats = walk.memory.stats
    total = stats.total_sectors
    if total <= 0:
        return (
            f"stage {stage} stalls on scoreboard dependences with no "
            "global traffic (compute chain latency)"
        )
    dram_frac = stats.dram_accesses / total
    elapsed = max(1.0, walk.cycles)
    dram_util = walk.memory.dram_utilization(elapsed)
    if dram_util >= 0.85:
        return (
            f"stage {stage} waits on loads; DRAM is "
            f"{dram_util:.0%} busy — bandwidth-bound "
            f"({stats.dram_accesses} of {total} sectors go to DRAM)"
        )
    level = "DRAM" if dram_frac > 0.05 else (
        "L2" if stats.l2_hits > 0 else "L1"
    )
    return (
        f"stage {stage} waits on loads; DRAM only {dram_util:.0%} "
        f"busy — exposed {level} latency, not bandwidth "
        f"({stats.l1_hits} L1 hits / {stats.l2_hits} L2 / "
        f"{stats.dram_accesses} DRAM)"
    )


def predict_kernel(
    kernel: "Kernel",
    config: "EvalConfig",
    cache: "TraceCache | None" = None,
) -> KernelPrediction:
    """Predict a kernel under an evaluation config, plus its baseline.

    Mirrors :func:`repro.experiments.runner.run_kernel`'s compile/trace
    choices (content-addressed cache, per-kernel opt-in) but decides
    specialization by *predicted* cycles — no simulation runs.
    """
    # Imported here: experiments imports sim/compiler; the perfmodel
    # must stay importable without the experiments layer.
    from repro.errors import CompilerError, ResourceError
    from repro.experiments.runner import (
        GLOBAL_CACHE,
        _compiler_options_for,
        _gpu_for,
    )

    store = cache if cache is not None else GLOBAL_CACHE
    gpu = _gpu_for(kernel, config)
    original = store.original(kernel)
    baseline = predict_traces(
        original.traces, gpu, kernel_name=kernel.name
    )

    predicted = baseline
    used_specialized = False
    options = _compiler_options_for(kernel, config)
    if config.compiler is not None and options is not None:
        try:
            compiled = store.specialized(kernel, options)
        except CompilerError:
            compiled = None
        if compiled is not None:
            try:
                specialized = predict_traces(
                    compiled.traces, gpu, kernel_name=kernel.name
                )
            except ResourceError:
                specialized = None
            if (
                specialized is not None
                and specialized.cycles < baseline.cycles
            ):
                predicted = specialized
                used_specialized = True

    return KernelPrediction(
        kernel_name=kernel.name,
        config_name=config.name,
        predicted=predicted,
        baseline=baseline,
        used_specialized=used_specialized,
    )

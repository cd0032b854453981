"""Reference-vs-event SM core differential: the exactness contract.

The event-skipping core (:mod:`repro.sim.sm_event`) claims *bit
identity* with the reference loop, not statistical agreement.  This
module is the claim's enforcement: it runs both cores over the same
traces and compares every observable — cycle count, issue totals by
category and stage, queue-overhead instructions, thread blocks
completed, the full ``(stage, cause) -> cycles`` stall mix, the stall
*span* count (a core that merged or split attribution intervals could
still match the totals), active warp-cycles, the per-bucket activity
timeline, the memory system's service counters (L1/L2/DRAM hits,
sectors, SMEM words) and the TMA engine's vector/job counts.

Consumers:

* ``tests/test_core_differential.py`` — tier-1 coverage on small
  programs and a registry sample.
* ``repro corediff`` (the CLI, declared here as :data:`COREDIFF`) —
  the full fuzz corpus plus the kernel registry; CI's
  ``core-differential`` job gates on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import CompilerError, ReproError, ResourceError
from repro.fexec.trace import KernelTrace
from repro.sim.config import GPUConfig, baseline_a100, wasp_gpu
from repro.sim.gpu import make_simulator
from repro.sweeps import Sweep, standard_configs_axis

__all__ = [
    "COREDIFF",
    "CoreDiff",
    "CoreDiffReport",
    "diff_registry_kernel",
    "diff_spec",
    "diff_traces",
    "differential_gpus",
]


@dataclass
class CoreDiff:
    """Outcome of one reference-vs-event comparison.

    Beyond the pass/fail verdict, each diff carries per-core wall
    time and issue/event counts so ``repro corediff`` doubles as a
    per-kernel performance comparison of the two cores.
    """

    label: str
    ref_cycles: float = 0.0
    event_cycles: float = 0.0
    ref_wall_s: float = 0.0
    event_wall_s: float = 0.0
    ref_issued: int = 0
    event_issued: int = 0
    #: Event-core bookkeeping volume: heap pops + list wakes (0 for
    #: runs that failed before completing).
    event_events: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def speedup(self) -> float:
        """Reference wall time over event wall time (>1: event wins)."""
        if self.event_wall_s <= 0:
            return 0.0
        return self.ref_wall_s / self.event_wall_s

    def to_json(self) -> dict[str, object]:
        return {
            "label": self.label,
            "ok": self.ok,
            "ref_cycles": self.ref_cycles,
            "event_cycles": self.event_cycles,
            "ref_wall_s": round(self.ref_wall_s, 6),
            "event_wall_s": round(self.event_wall_s, 6),
            "speedup": round(self.speedup, 3),
            "ref_issued": self.ref_issued,
            "event_issued": self.event_issued,
            "event_events": self.event_events,
            "mismatches": list(self.mismatches),
        }


@dataclass
class CoreDiffReport:
    """Every comparison of one ``repro corediff`` run."""

    comparisons: list[CoreDiff]
    num_warnings = 0

    @property
    def clean(self) -> bool:
        return all(d.ok for d in self.comparisons)

    def walls(self) -> tuple[float, float]:
        """Total reference and event-core wall seconds."""
        return (sum(d.ref_wall_s for d in self.comparisons),
                sum(d.event_wall_s for d in self.comparisons))

    def to_text(self, verbose: bool = False) -> str:
        """Each mismatch, then the slowest event-core comparisons with
        their speedup over the reference core."""
        from repro.experiments.reporting import format_table

        lines: list[str] = []
        for diff in self.comparisons:
            if not diff.ok:
                lines.append(f"MISMATCH {diff.label}")
                lines.extend(f"  {line}" for line in diff.mismatches)
        slowest = sorted(
            self.comparisons, key=lambda d: d.event_wall_s, reverse=True
        )[:10]
        lines.append(format_table(
            ["comparison", "ref ms", "event ms", "speedup", "issued",
             "events"],
            [[d.label, f"{d.ref_wall_s * 1e3:.1f}",
              f"{d.event_wall_s * 1e3:.1f}", f"{d.speedup:.2f}x",
              d.event_issued, d.event_events] for d in slowest],
            title="Per-core wall time (slowest 10 comparisons)",
        ))
        return "\n".join(lines)

    def summary_line(self, elapsed: float) -> str:
        (ref, event), n = self.walls(), len(self.comparisons)
        ok = sum(1 for d in self.comparisons if d.ok)
        return (
            f"corediff: {ok}/{n} comparisons bit-identical "
            f"({elapsed:.1f}s; reference {ref:.2f}s vs event "
            f"{event:.2f}s"
            + (f", event {ref / event:.2f}x faster overall)"
               if event > 0 else ")")
        )

    def to_json(self) -> dict[str, object]:
        ref, event = self.walls()
        return {
            "comparisons": [d.to_json() for d in self.comparisons],
            "ref_wall_s": round(ref, 4),
            "event_wall_s": round(event, 4),
            "overall_speedup": round(ref / event, 3) if event > 0 else 0.0,
        }


def differential_gpus(config: GPUConfig | None = None) -> list[GPUConfig]:
    """A GPU matrix that exercises every event class.

    Baseline (SMEM queues, GTO), the full WASP GPU (RFQ queues,
    pipeline scheduling, TMA), a queue-starved WASP GPU (constant
    QUEUE_FULL/QUEUE_EMPTY blocking -> the wake registries), and a
    bandwidth-starved one (long memory waits -> the wakeup heap).
    """
    if config is not None:
        return [config]
    return [
        baseline_a100(),
        wasp_gpu(),
        wasp_gpu(rfq_size=2),
        wasp_gpu().scale_bandwidth(0.25),
    ]


def diff_traces(
    traces: list[KernelTrace],
    config: GPUConfig,
    label: str,
) -> CoreDiff:
    """Run both cores over ``traces`` and compare every observable."""
    diff = CoreDiff(label=label)

    def one(core: str):
        start = time.perf_counter()
        try:
            sim = make_simulator(config, traces, core=core)
            stats = sim.run()
        except ReproError as exc:
            outcome = (type(exc).__name__, str(exc)[:200])
            return None, outcome, time.perf_counter() - start
        return sim, stats, time.perf_counter() - start

    ref_sim, ref, diff.ref_wall_s = one("reference")
    event_sim, event, diff.event_wall_s = one("event")

    if ref_sim is None or event_sim is None:
        # Both must fail identically (same error, same cycle in the
        # message) — deadlock parity is part of the contract.
        if ref != event:
            diff.mismatches.append(
                f"{label}: outcome: reference={ref!r} event={event!r}"
            )
        return diff

    diff.ref_cycles = ref.cycles
    diff.event_cycles = event.cycles
    diff.ref_issued = ref.issued_total
    diff.event_issued = event.issued_total
    diff.event_events = int(
        event_sim._heap.pops + getattr(event_sim, "_tel_wakes", 0)
    )

    def cmp(name: str, a, b) -> None:
        if a != b:
            diff.mismatches.append(
                f"{label}: {name}: reference={a!r} event={b!r}"
            )

    cmp("cycles", ref.cycles, event.cycles)
    cmp("issued_total", ref.issued_total, event.issued_total)
    cmp("issued_by_category", ref.issued_by_category,
        event.issued_by_category)
    cmp("issued_by_stage", ref.issued_by_stage, event.issued_by_stage)
    cmp("queue_overhead_instrs", ref.queue_overhead_instrs,
        event.queue_overhead_instrs)
    cmp("tbs_completed", ref.tbs_completed, event.tbs_completed)
    cmp("stall_cycles", ref.stall_cycles, event.stall_cycles)
    cmp("stall_spans", ref.stall_spans, event.stall_spans)
    cmp("active_warp_cycles", ref.active_warp_cycles,
        event.active_warp_cycles)
    cmp("timeline", ref.timeline, event.timeline)
    rm, em = ref_sim.memory.stats, event_sim.memory.stats
    cmp("memory.l1_hits", rm.l1_hits, em.l1_hits)
    cmp("memory.l2_hits", rm.l2_hits, em.l2_hits)
    cmp("memory.dram_accesses", rm.dram_accesses, em.dram_accesses)
    cmp("memory.total_sectors", rm.total_sectors, em.total_sectors)
    cmp("memory.smem_words", rm.smem_words, em.smem_words)
    cmp("memory.drain_time", ref_sim.memory.drain_time(),
        event_sim.memory.drain_time())
    cmp("tma.vectors_issued", ref_sim.tma.vectors_issued,
        event_sim.tma.vectors_issued)
    cmp("tma.jobs_started", ref_sim.tma.jobs_started,
        event_sim.tma.jobs_started)
    return diff


def diff_spec(spec, config: GPUConfig | None = None) -> list[CoreDiff]:
    """Differential for one fuzz spec: the reference program's traces
    plus every OPTION_SETS specialization, each timed under the
    differential GPU matrix (functional memory effects are shared by
    construction — both cores replay the same traces — so the oracle's
    bit-identical-memory check rides on the fuzz gate, while this
    compares every timing observable)."""
    from dataclasses import replace

    from repro.core.compiler import WaspCompiler
    from repro.fexec.machine import run_kernel
    from repro.fuzz.generator import build_kernel
    from repro.fuzz.oracle import OPTION_SETS

    kernel = build_kernel(spec)
    variants: list[tuple[str, list[KernelTrace]]] = []
    ref_result = run_kernel(
        kernel.program, kernel.image_factory(), kernel.launch
    )
    variants.append(("plain", ref_result.traces))
    for name, options in OPTION_SETS:
        try:
            compiled = WaspCompiler(options).compile(
                kernel.program, num_warps=kernel.launch.num_warps
            )
        except (CompilerError, ReproError):
            continue
        if not compiled.specialized:
            continue
        launch = replace(
            kernel.launch,
            num_warps=kernel.launch.num_warps * compiled.num_stages,
        )
        try:
            result = run_kernel(
                compiled.program, kernel.image_factory(), launch
            )
        except ReproError:
            continue  # oracle territory (deadlock checks), not ours
        variants.append((name, result.traces))

    diffs = []
    for name, traces in variants:
        for gpu in differential_gpus(config):
            label = (
                f"seed{spec.seed}:{name}:"
                f"{gpu.features.queue_impl.value}-rfq{gpu.rfq_size}"
                f"-bw{gpu.l2_sectors_per_cycle:g}"
            )
            diffs.append(diff_traces(traces, gpu, label))
    return diffs


def diff_registry_kernel(kernel, eval_config, cache=None) -> list[CoreDiff]:
    """Differential for one registry kernel under one sweep config.

    Uses the shared trace cache, so sweeps that already ran pay no
    extra trace generation; both the plain and (when the compiler
    specializes) the specialized trace sets are compared under the
    config's GPU.
    """
    from repro.experiments.runner import (
        _GLOBAL_CACHE, _compiler_options_for, _gpu_for,
    )

    cache = cache or _GLOBAL_CACHE
    gpu = _gpu_for(kernel, eval_config)
    diffs = [diff_traces(
        cache.original(kernel).traces, gpu,
        f"{kernel.name}:{eval_config.name}:plain",
    )]
    options = _compiler_options_for(kernel, eval_config)
    if options is not None:
        try:
            entry = cache.specialized(kernel, options)
        except (CompilerError, ResourceError):
            entry = None
        if entry is not None:
            diffs.append(diff_traces(
                entry.traces, gpu,
                f"{kernel.name}:{eval_config.name}:specialized",
            ))
    return diffs


#: ``repro corediff``: corpus specs, fresh seeds, and registry kernels
#: under the standard configs at each ring depth, through both cores.
COREDIFF: Sweep[CoreDiff, CoreDiffReport] = Sweep(
    label="corediff",
    checks={
        "corpus": lambda entry, args: diff_spec(entry.spec),
        "seeds": lambda spec, args: diff_spec(spec),
        "registry": lambda cell, args: diff_registry_kernel(
            cell.kernel, cell.config()
        ),
    },
    default_sources=("corpus", "registry"),
    report=lambda scale, diffs: CoreDiffReport(diffs),
    footer=CoreDiffReport.summary_line,
    axis=standard_configs_axis,
    tally="entries",
)

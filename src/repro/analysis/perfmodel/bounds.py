"""Closed-form per-stage bounds: issue, memory, and queue coupling.

Three families of lower bounds on kernel cycles, all derived from the
same :class:`repro.sim.config.ServiceRates` the simulator runs on:

* **Issue roofline** — a stage that must place ``n`` instructions
  (plus SMEM-queue bookkeeping slots) through ``P`` issue slots needs
  at least ``n / P`` cycles; the kernel needs at least the total over
  stages (stages share the slots).
* **Memory rooflines** — token-bucket bandwidth servers are
  deterministic queues, so traffic ``T`` through a server of rate
  ``r`` needs at least ``T / r`` cycles.  One roofline per server
  (L2 sectors, DRAM sectors, SMEM words, TMA vectors).  The traffic
  split across cache levels comes from the dataflow walk's replay of
  the real caches (or worst-case all-DRAM when no walk is available).
* **Queue-coupling bound (Little's law)** — a queue channel holding at
  most ``C`` entries, each resident ``W`` cycles on average between
  push and pop, sustains at most ``C / W`` items per cycle; moving
  ``N`` items therefore needs at least ``N·W / C`` cycles.  ``W`` is
  measured by the walk (production-to-consumption residency); the
  bound names the queue edge in the stage→queue digraph so the
  explanation chain can point from a starved consumer to its producer.

The kernel-level prediction is the dataflow walk itself; these bounds
exist to *explain* it — the binding bound (largest lower bound) names
the resource the kernel is up against, and per-stage bounds localise
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.specs import ThreadBlockSpec
from repro.sim.config import ServiceRates


@dataclass
class StageWork:
    """Work one pipeline stage executed, over all TBs and warps.

    Counted by :class:`~repro.analysis.perfmodel.dataflow.DataflowWalk`
    as it executes each record, with the simulator's record semantics:
    ``issue_slots`` equals the SM cores' ``issued_by_stage``.
    """

    stage: int
    issue_slots: int = 0  # instructions + SMEM-queue bookkeeping
    global_sectors: int = 0
    smem_words: int = 0
    tma_vectors: int = 0
    queue_pushes: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Bound:
    """One named lower bound on kernel cycles, with its derivation."""

    name: str
    cycles: float
    detail: str

    def to_json(self) -> dict[str, object]:
        return {
            "name": self.name,
            "cycles": round(self.cycles, 2),
            "detail": self.detail,
        }


@dataclass
class StageBounds:
    """The bound set of one pipeline stage."""

    stage: int
    issue: Bound
    memory: list[Bound] = field(default_factory=list)
    queues: list[Bound] = field(default_factory=list)

    def binding(self) -> Bound:
        """The largest lower bound — what this stage is up against."""
        candidates = [self.issue, *self.memory, *self.queues]
        return max(candidates, key=lambda b: b.cycles)

    def to_json(self) -> dict[str, object]:
        return {
            "stage": self.stage,
            "issue": self.issue.to_json(),
            "memory": [b.to_json() for b in self.memory],
            "queues": [b.to_json() for b in self.queues],
            "binding": self.binding().to_json(),
        }


@dataclass
class BoundReport:
    """All bounds for one kernel under one configuration."""

    stages: dict[int, StageBounds] = field(default_factory=dict)
    kernel: list[Bound] = field(default_factory=list)

    def binding(self) -> Bound | None:
        if not self.kernel:
            return None
        return max(self.kernel, key=lambda b: b.cycles)

    def to_json(self) -> dict[str, object]:
        binding = self.binding()
        return {
            "stages": [
                self.stages[s].to_json() for s in sorted(self.stages)
            ],
            "kernel": [b.to_json() for b in self.kernel],
            "binding": binding.to_json() if binding else None,
        }


@dataclass(frozen=True)
class MemoryLevelMix:
    """Observed (or assumed) split of global sectors across levels."""

    l1_hits: int
    l2_hits: int
    dram_accesses: int

    @property
    def total(self) -> int:
        return self.l1_hits + self.l2_hits + self.dram_accesses


def queue_digraph(
    spec: ThreadBlockSpec | None,
) -> list[tuple[int, int, int]]:
    """The stage→queue digraph: ``(queue_id, src_stage, dst_stage)``.

    The same edges the deadlock pass cycles-checks; re-derived from the
    spec here because the analysis passes work on programs while the
    model works on traces.
    """
    if spec is None:
        return []
    return [
        (q.queue_id, q.src_stage, q.dst_stage) for q in spec.queues
    ]


def compute_bounds(
    work: dict[int, StageWork],
    rates: ServiceRates,
    spec: ThreadBlockSpec | None,
    level_mix: MemoryLevelMix | None = None,
    queue_residency: dict[int, float] | None = None,
    queue_channels: dict[int, int] | None = None,
) -> BoundReport:
    """Derive the full bound report from static work and service rates.

    ``level_mix`` splits global-sector traffic across L1/L2/DRAM (from
    the walk's cache replay; all-DRAM worst case when absent) and is
    applied proportionally to each stage's sector count.
    ``queue_residency`` maps queue id to mean entry residency W in
    cycles (walk-measured; one int-op latency as the static floor),
    ``queue_channels`` to the number of parallel per-slice channels.
    """
    report = BoundReport()
    l2_frac = 1.0
    dram_frac = 1.0
    if level_mix is not None and level_mix.total > 0:
        past_l1 = level_mix.l2_hits + level_mix.dram_accesses
        l2_frac = past_l1 / level_mix.total
        dram_frac = level_mix.dram_accesses / level_mix.total

    edges = queue_digraph(spec)
    consumers = {qid: dst for qid, _src, dst in edges}

    kernel_issue_slots = 0.0
    kernel_l2 = 0.0
    kernel_dram = 0.0
    kernel_smem = 0.0
    kernel_tma = 0.0

    for stage_id in sorted(work):
        stage = work[stage_id]
        issue_cycles = stage.issue_slots / rates.issue_slots
        issue = Bound(
            name=f"issue[stage {stage_id}]",
            cycles=issue_cycles,
            detail=(
                f"{stage.issue_slots:.0f} issue slots / "
                f"{rates.issue_slots} per cycle"
            ),
        )
        kernel_issue_slots += stage.issue_slots

        memory: list[Bound] = []
        l2_sectors = stage.global_sectors * l2_frac
        dram_sectors = stage.global_sectors * dram_frac
        kernel_l2 += l2_sectors
        kernel_dram += dram_sectors
        if l2_sectors > 0:
            memory.append(Bound(
                name=f"l2-bandwidth[stage {stage_id}]",
                cycles=l2_sectors / rates.l2_sectors_per_cycle,
                detail=(
                    f"{l2_sectors:.0f} post-L1 sectors / "
                    f"{rates.l2_sectors_per_cycle} per cycle"
                ),
            ))
        if dram_sectors > 0:
            memory.append(Bound(
                name=f"dram-bandwidth[stage {stage_id}]",
                cycles=dram_sectors / rates.dram_sectors_per_cycle,
                detail=(
                    f"{dram_sectors:.0f} DRAM sectors / "
                    f"{rates.dram_sectors_per_cycle} per cycle"
                ),
            ))
        if stage.smem_words > 0:
            kernel_smem += stage.smem_words
            memory.append(Bound(
                name=f"smem-bandwidth[stage {stage_id}]",
                cycles=stage.smem_words / rates.smem_words_per_cycle,
                detail=(
                    f"{stage.smem_words} SMEM words / "
                    f"{rates.smem_words_per_cycle:.0f} per cycle"
                ),
            ))
        if stage.tma_vectors > 0:
            kernel_tma += stage.tma_vectors
            memory.append(Bound(
                name=f"tma-issue[stage {stage_id}]",
                cycles=stage.tma_vectors / rates.tma_vectors_per_cycle,
                detail=(
                    f"{stage.tma_vectors} TMA vectors / "
                    f"{rates.tma_vectors_per_cycle} per cycle"
                ),
            ))

        queues: list[Bound] = []
        for queue_id, pushes in sorted(stage.queue_pushes.items()):
            residency = float(rates.int_latency)
            if queue_residency and queue_id in queue_residency:
                residency = max(residency, queue_residency[queue_id])
            channels = 1
            if queue_channels and queue_id in queue_channels:
                channels = max(1, queue_channels[queue_id])
            per_channel = pushes / channels
            cycles = per_channel * residency / rates.rfq_size
            consumer = consumers.get(queue_id)
            queues.append(Bound(
                name=f"queue-coupling[q{queue_id}]",
                cycles=cycles,
                detail=(
                    f"Little's law: {per_channel:.0f} items/channel x "
                    f"{residency:.0f}-cycle residency / "
                    f"{rates.rfq_size} entries"
                    + (
                        f" (feeds stage {consumer})"
                        if consumer is not None
                        else ""
                    )
                ),
            ))

        report.stages[stage_id] = StageBounds(
            stage=stage_id, issue=issue, memory=memory, queues=queues
        )

    report.kernel.append(Bound(
        name="issue",
        cycles=kernel_issue_slots / rates.issue_slots,
        detail=(
            f"{kernel_issue_slots:.0f} issue slots / "
            f"{rates.issue_slots} per cycle"
        ),
    ))
    if kernel_l2 > 0:
        report.kernel.append(Bound(
            name="l2-bandwidth",
            cycles=kernel_l2 / rates.l2_sectors_per_cycle,
            detail=(
                f"{kernel_l2:.0f} post-L1 sectors / "
                f"{rates.l2_sectors_per_cycle} per cycle"
            ),
        ))
    if kernel_dram > 0:
        report.kernel.append(Bound(
            name="dram-bandwidth",
            cycles=kernel_dram / rates.dram_sectors_per_cycle,
            detail=(
                f"{kernel_dram:.0f} DRAM sectors / "
                f"{rates.dram_sectors_per_cycle} per cycle"
            ),
        ))
    if kernel_smem > 0:
        report.kernel.append(Bound(
            name="smem-bandwidth",
            cycles=kernel_smem / rates.smem_words_per_cycle,
            detail=(
                f"{kernel_smem:.0f} SMEM words / "
                f"{rates.smem_words_per_cycle:.0f} per cycle"
            ),
        ))
    if kernel_tma > 0:
        report.kernel.append(Bound(
            name="tma-issue",
            cycles=kernel_tma / rates.tma_vectors_per_cycle,
            detail=(
                f"{kernel_tma:.0f} TMA vectors / "
                f"{rates.tma_vectors_per_cycle} per cycle"
            ),
        ))
    return report

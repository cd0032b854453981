"""Simulation result containers.

Everything here is plain data: results cross process boundaries in the
parallel experiment runner (pickled back from pool workers), so the
containers hold only builtins, enums and other dataclasses — no live
simulator state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import InstrCategory
from repro.profiling.stalls import (
    TIMELINE_BUCKET,
    QueueChannelProfile,
    StallCause,
)
from repro.sim.occupancy import Occupancy

__all__ = [
    "TIMELINE_BUCKET",
    "QueueChannelProfile",
    "SMStats",
    "SimResult",
    "StallCause",
    "TimelineBucket",
]


@dataclass
class TimelineBucket:
    """Activity within one timeline bucket."""

    issued: int = 0
    tensor_fp_issued: int = 0
    sectors: int = 0


@dataclass
class SMStats:
    """Counters of one SM core run.

    The core loop counts into int-indexed lists and fills these fields
    once, when the run ends (``SMSimulator._harvest_stats``).
    """

    cycles: float = 0.0
    issued_total: int = 0
    issued_by_category: dict[InstrCategory, int] = field(default_factory=dict)
    issued_by_stage: dict[int, int] = field(default_factory=dict)
    queue_overhead_instrs: int = 0
    timeline: dict[int, TimelineBucket] = field(default_factory=dict)
    tbs_completed: int = 0
    #: (pipe stage, cause) -> cycles a warp of that stage spent stalled.
    stall_cycles: dict[tuple[int, StallCause], float] = field(
        default_factory=dict
    )
    #: Total accounted warp-cycles: issues plus attributed stalls.
    active_warp_cycles: float = 0.0
    #: Number of closed stall intervals (spans).  Stall attribution is
    #: interval-based in both SM cores; the span count is part of the
    #: reference/event differential contract — a core that merged or
    #: split intervals could still match ``stall_cycles`` totals, but
    #: not this.
    stall_spans: int = 0


@dataclass
class SimResult:
    """Outcome of timing one kernel on one GPU configuration."""

    kernel_name: str
    cycles: float
    issued_total: int
    issued_by_category: dict[InstrCategory, int]
    issued_by_stage: dict[int, int]
    queue_overhead_instrs: int
    l2_utilization: float
    dram_utilization: float
    smem_utilization: float
    l1_hit_rate: float
    occupancy: Occupancy
    timeline: list[tuple[float, float, float]] = field(default_factory=list)
    tbs_completed: int = 0
    #: (pipe stage, cause) -> stalled warp-cycles (always collected).
    stall_cycles: dict[tuple[int, StallCause], float] = field(
        default_factory=dict
    )
    #: issued_total + sum(stall_cycles.values()); the profiler invariant
    #: is ``active_warp_cycles == issued_total + stall total``.
    active_warp_cycles: float = 0.0
    #: Queue occupancy profiles; populated only when a profiler was
    #: attached to the simulation.
    queue_profiles: list[QueueChannelProfile] = field(default_factory=list)
    #: Closed stall intervals (see :attr:`SMStats.stall_spans`).
    stall_spans: int = 0
    #: Races observed by the opt-in SMEM sanitizer
    #: (``GPUConfig(sanitize=True)``); empty when disabled.
    sanitizer_races: list = field(default_factory=list)

    @property
    def dynamic_instructions(self) -> int:
        return self.issued_total

    def category_fraction(self, category: InstrCategory) -> float:
        if not self.issued_total:
            return 0.0
        return self.issued_by_category.get(category, 0) / self.issued_total

    # -- stall-attribution views ----------------------------------------

    @property
    def stall_total(self) -> float:
        return sum(self.stall_cycles.values())

    def stall_by_cause(self) -> dict[StallCause, float]:
        """Stalled warp-cycles rolled up over pipeline stages."""
        rollup: dict[StallCause, float] = {}
        for (_stage, cause), cycles in self.stall_cycles.items():
            rollup[cause] = rollup.get(cause, 0.0) + cycles
        return rollup

    def stall_by_stage(self) -> dict[int, dict[StallCause, float]]:
        """Stalled warp-cycles per pipeline stage, per cause."""
        rollup: dict[int, dict[StallCause, float]] = {}
        for (stage, cause), cycles in self.stall_cycles.items():
            per_stage = rollup.setdefault(stage, {})
            per_stage[cause] = per_stage.get(cause, 0.0) + cycles
        return rollup

    def stall_fraction(self, cause: StallCause) -> float:
        """Share of active warp-cycles lost to ``cause``."""
        if self.active_warp_cycles <= 0:
            return 0.0
        return self.stall_by_cause().get(cause, 0.0) / self.active_warp_cycles

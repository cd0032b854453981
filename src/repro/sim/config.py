"""GPU configuration (paper Table III: NVArchSim A100+).

All bandwidths are expressed *per SM*: the chip's L2 and DRAM bandwidth
divided by the SM count, which is how a single-SM model sees the shared
memory system when every SM is active.  A100 reference points: ~5 TB/s
L2 and ~1.56 TB/s HBM2 at 1.41 GHz over 108 SMs give roughly 1.0 and
0.35 32-byte sectors per cycle per SM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import SimulationError


# SchedulingPolicy lives with the policy implementations in
# repro.core.scheduling; re-exported here because it is part of the GPU
# configuration surface.
from repro.core.scheduling import SchedulingPolicy  # noqa: E402


class QueueImpl(enum.Enum):
    """Where inter-stage queues live."""

    RFQ = "rfq"    # WASP register-file queues (III-C)
    SMEM = "smem"  # software queues in shared memory (compiler-only mode)


@dataclass(frozen=True)
class WaspFeatures:
    """Which WASP hardware features the simulated GPU provides."""

    explicit_naming: bool = False       # III-A (prerequisite for the rest)
    group_pipeline_mapping: bool = False  # III-B warp mapping
    per_stage_registers: bool = False   # III-B register allocation
    queue_impl: QueueImpl = QueueImpl.SMEM  # III-C
    pipeline_scheduling: bool = False   # III-D
    wasp_tma: bool = False              # III-E
    scheduling_policy: SchedulingPolicy = SchedulingPolicy.GTO

    @staticmethod
    def baseline() -> "WaspFeatures":
        """Modern GPU: no WASP hardware; queues fall back to SMEM."""
        return WaspFeatures()

    @staticmethod
    def full() -> "WaspFeatures":
        """The complete WASP GPU of the paper's headline configuration."""
        return WaspFeatures(
            explicit_naming=True,
            group_pipeline_mapping=True,
            per_stage_registers=True,
            queue_impl=QueueImpl.RFQ,
            pipeline_scheduling=True,
            wasp_tma=True,
            scheduling_policy=SchedulingPolicy.FULL_READY_PRODUCER,
        )


@dataclass(frozen=True)
class ServiceRates:
    """The service constants the timing model is built from.

    One flat, read-only view of every latency and token-bucket rate the
    simulator's memory system, TMA engine, and issue logic use — the
    static performance model (``repro.analysis.perfmodel``) derives its
    bounds from this same structure, so the two can never disagree on
    what the machine is.  Latencies are cycles; bandwidths are
    sectors/words/vectors per cycle per SM.
    """

    # Issue
    issue_slots: int          # processing blocks = peak instrs/cycle
    int_latency: int
    fp_latency: int
    tensor_latency: int
    # Memory hierarchy
    smem_latency: int
    l1_latency: int
    l2_latency: int
    dram_latency: int
    l2_sectors_per_cycle: float
    dram_sectors_per_cycle: float
    smem_words_per_cycle: float
    # Offload engine
    tma_vectors_per_cycle: float
    # Structural limits that bound concurrency
    max_outstanding_loads_per_warp: int
    rfq_size: int


@dataclass(frozen=True)
class GPUConfig:
    """One SM plus its share of the chip-level memory system."""

    # SM organization (Table III)
    processing_blocks: int = 4
    warp_slots_per_pb: int = 16          # 64 warps per SM
    registers_per_sm: int = 65536        # 256 KB of 4-byte registers
    smem_capacity_words: int = 41984     # 164 KB usable SMEM
    max_resident_tbs: int = 32

    # Latencies (cycles)
    int_latency: int = 4
    fp_latency: int = 4
    tensor_latency: int = 16
    smem_latency: int = 25
    l1_latency: int = 32
    l2_latency: int = 200
    dram_latency: int = 400

    # Bandwidth, per SM
    l2_sectors_per_cycle: float = 1.0    # ~5 TB/s chip L2
    dram_sectors_per_cycle: float = 0.35  # ~1.56 TB/s HBM2
    smem_words_per_cycle: int = 32       # 128 B/cycle

    # Caches (sectors of 32 B)
    l1_sectors: int = 4096               # 128 KB L1 data
    l1_assoc: int = 4
    l2_sectors: int = 12288              # ~384 KB L2 slice per SM
    l2_assoc: int = 8

    # Miscellaneous structural limits
    max_outstanding_loads_per_warp: int = 12
    tma_vectors_per_cycle: float = 1.0   # offload engine issue rate
    rfq_size: int = 32                   # entries per warp channel (Fig 18)

    features: WaspFeatures = field(default_factory=WaspFeatures.baseline)

    # Which SM core loop times the traces.  "event" is the
    # event-skipping core (repro.sim.sm_event): cycle-exact with the
    # reference, but only awake warps pay per cycle.  "reference" keeps
    # the original cycle-stepped loop (repro.sim.sm) as an escape hatch
    # and differential pair; both produce bit-identical results (the
    # contract enforced by repro.sim.differential and CI).
    core: str = "event"

    # Opt-in vector-clock SMEM race sanitizer: the functional run
    # shadows every shared-memory access and reports cross-stage pairs
    # no barrier/queue edge ordered (repro.fexec.sanitizer).  Races
    # land on SimResult.sanitizer_races; ``repro racediff``
    # cross-checks them against the static happens-before engine.
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.processing_blocks <= 0 or self.warp_slots_per_pb <= 0:
            raise SimulationError("SM must have processing blocks and slots")
        if self.l2_sectors_per_cycle <= 0 or self.dram_sectors_per_cycle <= 0:
            raise SimulationError("bandwidths must be positive")
        if self.core not in ("event", "reference"):
            raise SimulationError(
                f"unknown simulator core {self.core!r}: "
                "expected 'event' or 'reference'"
            )

    # -- convenience constructors ----------------------------------------

    def with_features(self, features: WaspFeatures) -> "GPUConfig":
        return replace(self, features=features)

    def scale_bandwidth(self, factor: float) -> "GPUConfig":
        """The Figure 20 knob: scale L2 and DRAM bandwidth together."""
        return replace(
            self,
            l2_sectors_per_cycle=self.l2_sectors_per_cycle * factor,
            dram_sectors_per_cycle=self.dram_sectors_per_cycle * factor,
        )

    def service_rates(self) -> ServiceRates:
        """The flat latency/bandwidth view (see :class:`ServiceRates`)."""
        return ServiceRates(
            issue_slots=self.processing_blocks,
            int_latency=self.int_latency,
            fp_latency=self.fp_latency,
            tensor_latency=self.tensor_latency,
            smem_latency=self.smem_latency,
            l1_latency=self.l1_latency,
            l2_latency=self.l2_latency,
            dram_latency=self.dram_latency,
            l2_sectors_per_cycle=self.l2_sectors_per_cycle,
            dram_sectors_per_cycle=self.dram_sectors_per_cycle,
            smem_words_per_cycle=float(self.smem_words_per_cycle),
            tma_vectors_per_cycle=self.tma_vectors_per_cycle,
            max_outstanding_loads_per_warp=(
                self.max_outstanding_loads_per_warp
            ),
            rfq_size=self.rfq_size,
        )

    @property
    def warps_per_sm(self) -> int:
        return self.processing_blocks * self.warp_slots_per_pb


def baseline_a100() -> GPUConfig:
    """The paper's baseline: A100+ with CUTLASS-style warp specialization."""
    return GPUConfig()


def wasp_gpu(rfq_size: int = 32) -> GPUConfig:
    """The full WASP GPU configuration."""
    return replace(GPUConfig(), features=WaspFeatures.full(), rfq_size=rfq_size)

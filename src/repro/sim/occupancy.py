"""SM occupancy: how many thread blocks fit at once.

Occupancy is limited by the register file, shared memory, and warp
slots.  WASP's per-stage register allocation (Section III-B) shrinks the
register footprint of specialized blocks, and the choice of queue
implementation moves queue storage between the register file (RFQ) and
SMEM (software queues) — both directly change this calculation, which is
how register savings turn into performance (Figure 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.mapping import register_footprint, rfq_register_words
from repro.core.specs import ThreadBlockSpec
from repro.errors import ResourceError
from repro.sim.config import GPUConfig, QueueImpl

if TYPE_CHECKING:
    from repro.fexec.trace import KernelTrace


@dataclass(frozen=True)
class Occupancy:
    """Resolved residency for one kernel on one SM."""

    max_resident_tbs: int
    register_words_per_tb: int
    smem_words_per_tb: int
    limited_by: str


def compute_occupancy(
    config: GPUConfig,
    spec: ThreadBlockSpec | None,
    num_warps: int,
    program_registers: int,
    smem_words: int,
    warp_width: int,
) -> Occupancy:
    """Maximum resident thread blocks for a kernel."""
    per_stage = config.features.per_stage_registers and spec is not None
    reg_words = register_footprint(
        spec,
        num_warps=num_warps,
        program_registers=program_registers,
        threads_per_warp=warp_width,
        per_stage=per_stage,
    )
    smem_total = smem_words
    if spec is not None and spec.queues:
        queue_words = rfq_register_words(spec, config.rfq_size, warp_width)
        if config.features.queue_impl is QueueImpl.RFQ:
            reg_words += queue_words
        else:
            smem_total += queue_words

    limits: dict[str, int] = {}
    if reg_words > 0:
        limits["registers"] = config.registers_per_sm // reg_words
    limits["warp_slots"] = config.warps_per_sm // max(1, num_warps)
    if smem_total > 0:
        limits["smem"] = config.smem_capacity_words // smem_total
    limits["tb_slots"] = config.max_resident_tbs

    limiter = min(limits, key=limits.get)
    resident = limits[limiter]
    if resident < 1:
        raise ResourceError(
            f"thread block does not fit on the SM: {limiter} "
            f"(registers={reg_words} words, smem={smem_total} words, "
            f"warps={num_warps})"
        )
    return Occupancy(
        max_resident_tbs=resident,
        register_words_per_tb=reg_words,
        smem_words_per_tb=smem_total,
        limited_by=limiter,
    )


def trace_occupancy(config: GPUConfig, traces: list[KernelTrace]) -> Occupancy:
    """The occupancy a replay of ``traces`` on ``config`` runs at when
    none is pinned: :func:`compute_occupancy` of the first trace."""
    first = traces[0]
    return compute_occupancy(
        config,
        first.tb_spec,
        num_warps=first.num_warps,
        program_registers=first.program_registers,
        smem_words=first.smem_words,
        warp_width=first.warp_width,
    )

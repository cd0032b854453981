"""Site collection: where queues, barriers and SMEM are touched.

One linear walk over the reachable blocks of each stage section gathers
everything the protocol passes need: queue push/pop sites (including
bulk pushes by WASP-TMA configuration instructions, whose entry count is
data-dependent), barrier arrive/wait/sync sites (including the implicit
arrive a ``TMA.TILE`` performs on completion via ``attrs['barrier']``),
and shared-memory accesses with their target buffer resolved statically
where possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import ProgramView
from repro.core.specs import ThreadBlockSpec
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Immediate, QueueRef

_TMA_OPCODES = (Opcode.TMA_TILE, Opcode.TMA_STREAM, Opcode.TMA_GATHER)
_BARRIER_OPCODES = (Opcode.BAR_ARRIVE, Opcode.BAR_WAIT, Opcode.BAR_SYNC)

#: Source-operand position of the SMEM address per opcode.
_SMEM_ADDR_POS = {
    Opcode.LDS: 0,
    Opcode.STS: 0,
    Opcode.LDGSTS: 1,
    Opcode.TMA_TILE: 1,
}


@dataclass(frozen=True)
class QueueSite:
    """One static queue push or pop."""

    stage: int
    block: str
    instr: Instruction
    bulk: bool  # TMA configuration: pushes a data-dependent entry count


@dataclass(frozen=True)
class BarrierSite:
    """One static barrier operation (or implicit TMA completion arrive)."""

    stage: int
    block: str
    instr: Instruction


@dataclass(frozen=True)
class SmemAccess:
    """One static shared-memory access with its resolved target."""

    stage: int
    block: str
    instr: Instruction
    is_write: bool
    buffer: str | None       # resolved buffer name, None if unresolvable
    address: int | None      # statically known word address, if immediate


@dataclass
class QueueSites:
    """One queue's push and pop sites, in walk order."""

    pushes: list[QueueSite] = field(default_factory=list)
    pops: list[QueueSite] = field(default_factory=list)


@dataclass
class BarrierSites:
    """One barrier id's arrive, wait and ``BAR.SYNC`` sites, in walk order."""

    arrives: list[BarrierSite] = field(default_factory=list)
    waits: list[BarrierSite] = field(default_factory=list)
    syncs: list[BarrierSite] = field(default_factory=list)


@dataclass
class PipelineSites:
    """Everything the protocol passes consume, from one walk.

    Queue sites are indexed by queue id and barrier sites by barrier
    id; every list keeps walk order (stage section, then layout).
    """

    queues: dict[int, QueueSites] = field(default_factory=dict)
    barriers: dict[str, BarrierSites] = field(default_factory=dict)
    smem_accesses: list[SmemAccess] = field(default_factory=list)


def collect_sites(view: ProgramView) -> PipelineSites:
    """Walk every reachable block once and gather all protocol sites."""
    sites = PipelineSites()
    buffers = view.program.smem_buffers
    for stage in view.sections:
        for block in view.reachable_blocks(stage):
            for instr in block.instructions:
                _collect_queue_ops(sites, stage, block.label, instr)
                _collect_barrier_ops(sites, stage, block.label, instr)
                _collect_smem_access(
                    sites, stage, block.label, instr, buffers
                )
    return sites


def _collect_queue_ops(
    sites: PipelineSites, stage: int, block: str, instr: Instruction
) -> None:
    bulk = instr.opcode in _TMA_OPCODES
    site = QueueSite(stage, block, instr, bulk)
    if isinstance(instr.dst, QueueRef):
        queue_id = instr.dst.queue_id
        sites.queues.setdefault(queue_id, QueueSites()).pushes.append(site)
    for ref in instr.queue_pops():
        sites.queues.setdefault(ref.queue_id, QueueSites()).pops.append(site)


def _collect_barrier_ops(
    sites: PipelineSites, stage: int, block: str, instr: Instruction
) -> None:
    opcode = instr.opcode
    barrier_id = instr.barrier_id
    if opcode not in _BARRIER_OPCODES:
        # TMA transfers arrive a barrier on completion (machine model).
        tma_barrier = instr.attrs.get("barrier")
        if opcode not in _TMA_OPCODES or not tma_barrier:
            return
        barrier_id = str(tma_barrier)
    assert barrier_id is not None
    barrier = sites.barriers.setdefault(barrier_id, BarrierSites())
    site = BarrierSite(stage, block, instr)
    if opcode is Opcode.BAR_WAIT:
        barrier.waits.append(site)
    elif opcode is Opcode.BAR_SYNC:
        barrier.syncs.append(site)
    else:
        barrier.arrives.append(site)


def arrivals_per_iteration(
    spec: ThreadBlockSpec, arrives: list[BarrierSite]
) -> int | None:
    """Warp arrivals one execution of every arrive site contributes.

    Each site arrives once per warp of its stage, so a stage with two
    arrive sites on one barrier counts twice.  ``None`` when a site's
    stage has no slot in the spec.
    """
    total = 0
    for site in arrives:
        if not 0 <= site.stage < len(spec.warps_per_stage):
            return None
        total += len(spec.warps_per_stage[site.stage])
    return total


def _collect_smem_access(
    sites: PipelineSites,
    stage: int,
    block: str,
    instr: Instruction,
    buffers: dict[str, tuple[int, int]],
) -> None:
    pos = _SMEM_ADDR_POS.get(instr.opcode)
    if pos is None:
        return
    info = instr.info
    is_write = info.writes_shared
    if not is_write and not info.reads_shared:
        return
    address: int | None = None
    operand = instr.srcs[pos] if pos < len(instr.srcs) else None
    if isinstance(operand, Immediate) and isinstance(operand.value, int):
        address = operand.value
    buffer = _resolve_buffer(instr, address, buffers)
    sites.smem_accesses.append(
        SmemAccess(stage, block, instr, is_write, buffer, address)
    )


def _resolve_buffer(
    instr: Instruction,
    address: int | None,
    buffers: dict[str, tuple[int, int]],
) -> str | None:
    """Which declared buffer an access targets, or ``None`` if unknown.

    Resolution order: the builder/compiler's ``smem_buffer`` attribute
    (survives double buffering — copy-B accesses keep their original
    buffer name, which conservatively groups both copies under one
    name), then an immediate address inside a declared buffer's range.
    Programs with SMEM but no declared buffers fall into a single
    anonymous region so cross-stage analysis still applies.
    """
    tagged = instr.attrs.get("smem_buffer")
    if isinstance(tagged, str) and tagged in buffers:
        return tagged
    if address is not None:
        for name, (base, words) in buffers.items():
            if base <= address < base + words:
                return name
        if not buffers:
            return "__smem__"
        return None
    if not buffers:
        return "__smem__"
    return None

"""Per-stage program construction (pipeline finalization, Section IV-B).

Each pipeline stage receives a copy of the working program rewritten for
its role:

* extracted streaming loads become queue pushes in their producer stage,
  queue pops (``MOV rd, Q``) in their single consumer stage, and vanish
  elsewhere;
* LDGSTS tile transfers stay only in their producer stage;
* all other side-effecting instructions (global/shared stores) stay only
  in the compute stage;
* tagged ``BAR.SYNC`` instructions are rewritten positionally into
  arrive/wait barriers.  With circular buffering the consumer arrives
  the *previous* ring slot's empty barrier at each section start
  (signalling it finished that slot's data), and every slot except the
  last receives an initial empty credit — this is the generation
  protocol that lets the producer fill up to ``depth`` slots ahead of
  the consumer's compute;
* dead code is eliminated (everything not reaching a side effect,
  branch, barrier or queue operation), which realizes the paper's
  "minimum instructions" phase-2 result;
* ``WARP_ID``/``NUM_WARPS`` special registers are rewritten to their
  per-stage equivalents so each stage's warps cover the original work
  distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.compiler.buffering import PHASE_SUFFIXES, phase_suffix
from repro.core.compiler.extraction import ExtractionPlan, LoadPlan
from repro.core.compiler.pdg import PDG, build_pdg
from repro.isa.instruction import Instruction
from repro.isa.opcodes import FuncUnit, InstrCategory, Opcode, opcode_info
from repro.isa.operands import (
    QueueRef,
    Register,
    SpecialReg,
    SpecialRegister,
)
from repro.isa.program import Program

KEY_ATTR = "key"  # original-uid tag surviving Program.clone()


def tag_keys(program: Program) -> None:
    """Stamp every instruction with its uid so clones stay traceable."""
    for instr in program.instructions():
        instr.attrs[KEY_ATTR] = instr.uid


@dataclass
class StageProgram:
    """One pipeline stage's program plus bookkeeping."""

    stage: int
    program: Program
    is_compute: bool
    tile_keys: set[str] = field(default_factory=set)  # produced tiles
    queue_pushes: set[int] = field(default_factory=set)
    queue_pops: set[int] = field(default_factory=set)
    #: Dependence graph of ``program`` as stage splitting left it, for
    #: the passes up to TMA offloading, which clears it on a rewrite.
    pdg: PDG | None = None


def tile_ring(key: str) -> tuple[str, int] | None:
    """``(base, phase)`` of a ring-suffixed tile key, else ``None``.

    Ring keys are ``<base>_<letter>`` with the letter drawn from
    :data:`~repro.core.compiler.buffering.PHASE_SUFFIXES`; anything
    else is a single-buffered key with no ring identity.
    """
    if len(key) >= 3 and key[-2] == "_" and key[-1] in PHASE_SUFFIXES:
        return key[:-2], PHASE_SUFFIXES.index(key[-1])
    return None


def phase_key(base: str, phase: int) -> str:
    """Tile key of ring slot ``phase`` in ring ``base``."""
    return f"{base}{phase_suffix(phase)}"


def ring_depth(key: str, keys: "Iterable[str]") -> int:
    """Ring size of ``key``'s buffer family within ``keys``.

    Counts the phase-suffixed siblings sharing ``key``'s base; a
    single-buffered key (no ring suffix) has depth 1.
    """
    ring = tile_ring(key)
    if ring is None:
        return 1
    base = ring[0]
    depth = 0
    for other in keys:
        other_ring = tile_ring(other)
        if other_ring is not None and other_ring[0] == base:
            depth += 1
    return max(1, depth)


def partner_tile_key(key: str, depth: int = 2) -> str:
    """The *previous* ring slot's tile key (modulo the ring depth).

    This is the slot a consumer vacated right before entering ``key``'s
    section, so the consumer's section-entry arrival credits it.  For
    ``depth=2`` this is the classic A<->B double-buffer swap.
    """
    ring = tile_ring(key)
    if ring is None:
        return key
    base, phase = ring
    return phase_key(base, (phase - 1) % max(1, depth))


def build_stage_programs(
    work: Program, plan: ExtractionPlan
) -> list[StageProgram]:
    """Split the tagged working program into per-stage programs."""
    load_plans: dict[int, LoadPlan] = {p.load.uid: p for p in plan.loads}
    tile_producers = _tile_producer_stages(plan)
    stages: list[StageProgram] = []
    for stage in range(plan.num_stages):
        stages.append(
            _build_one_stage(work, plan, load_plans, tile_producers, stage)
        )
    return stages


def _tile_producer_stages(plan: ExtractionPlan) -> dict[str, set[int]]:
    producers: dict[str, set[int]] = {}
    for load_plan in plan.loads:
        if not load_plan.is_tile:
            continue
        key = load_plan.load.attrs.get("tile_key")
        if key is not None:
            producers.setdefault(key, set()).add(load_plan.stage)
    return producers


def _build_one_stage(
    work: Program,
    plan: ExtractionPlan,
    load_plans: dict[int, LoadPlan],
    tile_producers: dict[str, set[int]],
    stage: int,
) -> StageProgram:
    is_compute = stage == plan.compute_stage
    program = work.clone()
    program.name = f"{work.name}/s{stage}"
    result = StageProgram(stage=stage, program=program, is_compute=is_compute)

    for block in program.blocks:
        new_instrs: list[Instruction] = []
        for instr in block.instructions:
            rewritten = _rewrite_instr(
                instr, stage, is_compute, load_plans, tile_producers, result
            )
            new_instrs.extend(rewritten)
        block.instructions = new_instrs

    _rewrite_special_regs(program)
    result.pdg = _eliminate_dead_code(program)
    _annotate_categories(program, result.pdg, plan)
    return result


def _rewrite_instr(
    instr: Instruction,
    stage: int,
    is_compute: bool,
    load_plans: dict[int, LoadPlan],
    tile_producers: dict[str, set[int]],
    result: StageProgram,
) -> list[Instruction]:
    key = instr.attrs.get(KEY_ATTR)
    load_plan = load_plans.get(key)

    if load_plan is not None and load_plan.is_tile:
        if load_plan.stage != stage:
            return []
        tile_key = instr.attrs.get("tile_key")
        if tile_key is not None:
            result.tile_keys.add(tile_key)
        return [instr]

    if load_plan is not None:
        if load_plan.stage == stage:
            # Producer: decoupled load pushing into the named queue.
            instr.dst = QueueRef(load_plan.queue_id)
            result.queue_pushes.add(load_plan.queue_id)
            return [instr]
        if load_plan.consumer_stage == stage:
            pop = Instruction(
                Opcode.MOV,
                dst=instr.dst,
                srcs=[QueueRef(load_plan.queue_id)],
                guard=instr.guard,
                guard_negated=instr.guard_negated,
                category=InstrCategory.QUEUE,
                attrs={KEY_ATTR: key},
            )
            result.queue_pops.add(load_plan.queue_id)
            return [pop]
        return []

    if instr.opcode is Opcode.BAR_SYNC and instr.attrs.get("tile_roles"):
        return _rewrite_tile_sync(instr, stage, tile_producers)

    info = opcode_info(instr.opcode)
    if (info.writes_global or info.writes_shared) and not is_compute:
        # Unextracted stores belong to the final (compute) stage only.
        return []
    return [instr]


def _rewrite_tile_sync(
    instr: Instruction, stage: int, tile_producers: dict[str, set[int]]
) -> list[Instruction]:
    arrives: list[Instruction] = []
    waits: list[Instruction] = []
    untransformed = False
    for role, key in instr.attrs["tile_roles"]:
        producers = tile_producers.get(key, set())
        if not producers:
            untransformed = True
            continue
        is_producer = stage in producers
        if role == "pre":
            if is_producer:
                waits.append(_barrier(Opcode.BAR_WAIT, f"{key}_empty", instr))
            else:
                depth = ring_depth(key, tile_producers)
                arrives.append(
                    _barrier(
                        Opcode.BAR_ARRIVE,
                        f"{partner_tile_key(key, depth)}_empty",
                        instr,
                    )
                )
        else:  # post
            if is_producer:
                arrives.append(
                    _barrier(Opcode.BAR_ARRIVE, f"{key}_filled", instr)
                )
            else:
                waits.append(_barrier(Opcode.BAR_WAIT, f"{key}_filled", instr))
    if untransformed and not arrives and not waits:
        return [instr]
    # Arrivals first so cross-stage waits cannot deadlock.
    return arrives + waits


def _barrier(opcode: Opcode, barrier_id: str, origin: Instruction) -> Instruction:
    return Instruction(
        opcode,
        barrier_id=barrier_id,
        category=InstrCategory.SYNC,
        attrs={KEY_ATTR: origin.attrs.get(KEY_ATTR)},
    )


_SPECIAL_REWRITES = {
    SpecialReg.WARP_ID: SpecialReg.STAGE_WARP_ID,
    SpecialReg.NUM_WARPS: SpecialReg.NUM_STAGE_WARPS,
}


def _rewrite_special_regs(program: Program) -> None:
    for instr in program.instructions():
        for pos, src in enumerate(instr.srcs):
            if isinstance(src, SpecialRegister):
                target = _SPECIAL_REWRITES.get(src.which)
                if target is not None:
                    instr.srcs[pos] = SpecialRegister(target)


def _eliminate_dead_code(program: Program) -> PDG:
    """Drop instructions whose results cannot reach a root.

    Roots: stores, queue operations, branches, barriers, TMA configs,
    EXIT.  Pure instructions (including loads) whose values are dead in
    this stage disappear — this is what leaves each memory stage with
    just its address chains plus the control skeleton.

    Returns the dependence graph of the program it leaves: the input's
    graph minus the dead instructions.  A dead definition reaches no
    live use, so no survivor loses or gains a data predecessor.
    """
    pdg = build_pdg(program)
    live: set[int] = set()
    stack: list[int] = []
    for instr in program.instructions():
        info = opcode_info(instr.opcode)
        is_root = (
            info.writes_global
            or info.writes_shared
            or info.is_branch
            or info.is_barrier
            or instr.opcode is Opcode.EXIT
            or instr.opcode in (Opcode.TMA_TILE, Opcode.TMA_STREAM,
                                Opcode.TMA_GATHER)
            or instr.queue_pushes()
            or instr.queue_pops()
        )
        if is_root:
            live.add(instr.uid)
            stack.append(instr.uid)
    while stack:
        uid = stack.pop()
        for pred in pdg.data_preds.get(uid, ()):
            if pred not in live:
                live.add(pred)
                stack.append(pred)
    for block in program.blocks:
        block.instructions = [
            i for i in block.instructions if i.uid in live
        ]
    for uid in [uid for uid in pdg.instr_by_uid if uid not in live]:
        for pred in pdg.data_preds.pop(uid):
            if pred in live:
                pdg.data_succs[pred].discard(uid)
        del pdg.data_succs[uid], pdg.instr_by_uid[uid], pdg.block_of[uid]
    return pdg


_ADDR_OPERAND_POS = {
    Opcode.LDG: (0,),
    Opcode.STG: (0,),
    Opcode.LDS: (0,),
    Opcode.STS: (0,),
    Opcode.LDGSTS: (0, 1),
}


def _annotate_categories(
    program: Program, pdg: PDG, plan: ExtractionPlan
) -> None:
    """Tag address-generation instructions for the Figure 19 breakdown.

    Integer-pipe instructions in the data backslice of any memory
    address operand are ADDRGEN; control-skeleton arithmetic keeps the
    CONTROL tag.
    """
    addr_roots: set[int] = set()
    for instr in program.instructions():
        positions = _ADDR_OPERAND_POS.get(instr.opcode)
        if positions is None:
            continue
        for pos in positions:
            operand = instr.srcs[pos]
            if isinstance(operand, Register):
                for pred in pdg.data_preds.get(instr.uid, ()):
                    pred_instr = pdg.instr_by_uid[pred]
                    if operand in pred_instr.defined_registers():
                        addr_roots.add(pred)
    addr_slice: set[int] = set()
    stack = list(addr_roots)
    while stack:
        uid = stack.pop()
        if uid in addr_slice:
            continue
        addr_slice.add(uid)
        stack.extend(pdg.data_preds.get(uid, ()))
    skeleton_keys = plan.skeleton
    for instr in program.instructions():
        if instr.attrs.get(KEY_ATTR) in skeleton_keys:
            if instr.opcode not in (Opcode.BAR_SYNC,):
                if instr.info.unit in (FuncUnit.INT, FuncUnit.FP):
                    instr.category = InstrCategory.CONTROL
            continue
        if (
            instr.uid in addr_slice
            and instr.info.unit is FuncUnit.INT
            and instr.category is InstrCategory.COMPUTE
        ):
            instr.category = InstrCategory.ADDRGEN

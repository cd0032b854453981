"""WASP-TMA loop offloading (Sections III-E and IV-A).

After stage splitting, memory-access stages often consist of a single
self-loop issuing one decoupled load per iteration with affine address
arithmetic.  This pass recognizes those loops and replaces them with one
WASP-TMA configuration instruction, eliminating the per-iteration
address-generation and control instructions (the dynamic-instruction
reduction of Figure 19):

* **stream**: ``for i: LDG Q, [base + c*i]`` becomes
  ``TMA.STREAM Q, [addr0, count, stride]``;
* **gather**: a stream stage feeding a stage of shape
  ``for i: t = pop(Qa); LDG Qb, [t + data_base]`` is fused into a single
  ``TMA.GATHER Qb, [idx0, data_base, count, stride]`` in the earlier
  stage, emptying the middle stage (Figure 8c).

Detection is conservative: any instruction the linear model cannot
prove affine, any guarded load, or any loop value live after the loop
aborts the offload and the stage keeps its software loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compiler.pdg import PDG, build_pdg
from repro.core.compiler.stagesplit import KEY_ATTR, StageProgram
from repro.isa.instruction import Instruction
from repro.isa.opcodes import FuncUnit, InstrCategory, Opcode
from repro.isa.operands import (
    Immediate,
    Operand,
    QueueRef,
    Register,
    SpecialRegister,
)
from repro.isa.program import BasicBlock, Program

# A linear expression: {'const': c, 'ind': coeff, ('inv', key): coeff}.
_Lin = dict[object, float]


def _lin_const(value: float) -> _Lin:
    return {"const": float(value)}


def _lin_add(a: _Lin, b: _Lin) -> _Lin:
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out.get(key, 0.0) + coeff
    return {k: v for k, v in out.items() if v != 0.0 or k == "const"}


def _lin_scale(a: _Lin, factor: float) -> _Lin:
    return {k: v * factor for k, v in a.items()}


def _is_const(a: _Lin) -> bool:
    return all(k == "const" for k in a)


def _const_of(a: _Lin) -> float:
    return a.get("const", 0.0)


@dataclass
class _LoopShape:
    """A recognized affine self-loop."""

    block: BasicBlock
    block_idx: int
    load: Instruction
    induction: Register
    step_operand: Operand  # Immediate or loop-invariant Register
    step_update: Instruction
    cmp: Instruction  # the ISETP guarding the backedge
    bound_operand: Operand
    cmp_kind: str  # 'lt' or 'le'
    addr_coeff: int  # coefficient of the induction var in the address
    addr_chain: list[Instruction]  # in-block backslice of the address
    pop: Instruction | None = None  # gather middle stage: the queue pop
    pop_coeff: int = 0  # coefficient of the popped value in the address


@dataclass
class OffloadReport:
    """What the offload pass did to one pipeline."""

    streams: int = 0
    gathers: int = 0
    dropped_stages: list[int] = None

    def __post_init__(self) -> None:
        if self.dropped_stages is None:
            self.dropped_stages = []


def offload_pipeline(stages: list[StageProgram]) -> OffloadReport:
    """Apply WASP-TMA offloading to every memory stage of a pipeline.

    Mutates the stage programs in place.  Stage dropping (after gather
    fusion empties a middle stage) is the caller's responsibility — this
    function only rewrites programs; use
    :func:`repro.core.compiler.pipeline.drop_empty_stages`.
    """
    report = OffloadReport()
    shapes: dict[int, list[_LoopShape]] = {}
    for stage_prog in stages:
        if stage_prog.is_compute:
            continue
        shapes[stage_prog.stage] = _find_affine_loops(stage_prog)

    # Gather fusion first: a middle-stage indexed loop plus its feeding
    # stream loop collapse into one TMA.GATHER in the feeding stage.
    for stage_prog in stages:
        for shape in list(shapes.get(stage_prog.stage, ())):
            if shape.pop is None:
                continue
            feeder = _find_feeder(stages, shapes, shape)
            if feeder is None:
                continue
            feeder_prog, feeder_shape = feeder
            if _fuse_gather(feeder_prog, feeder_shape, stage_prog, shape):
                feeder_prog.pdg = stage_prog.pdg = None
                shapes[feeder_prog.stage].remove(feeder_shape)
                shapes[stage_prog.stage].remove(shape)
                report.gathers += 1

    # Remaining plain stream loops.
    for stage_prog in stages:
        for shape in shapes.get(stage_prog.stage, ()):
            if shape.pop is not None:
                continue
            if _offload_stream(stage_prog.program, shape):
                stage_prog.pdg = None
                report.streams += 1
    return report


# -- loop recognition -----------------------------------------------------


def _find_affine_loops(stage_prog: StageProgram) -> list[_LoopShape]:
    shapes = []
    for idx, block in enumerate(stage_prog.program.blocks):
        shape = _match_loop(stage_prog, block, idx)
        if shape is not None:
            shapes.append(shape)
    return shapes


def _match_loop(
    stage_prog: StageProgram, block: BasicBlock, block_idx: int
) -> _LoopShape | None:
    term = block.terminator
    if (
        term is None
        or term.opcode is not Opcode.BRA
        or term.target != block.label
        or term.guard is None
        or term.guard_negated
    ):
        return None
    loads = []
    pops = []
    cmp = None
    for instr in block.instructions:
        if instr.opcode is Opcode.LDG and isinstance(instr.dst, QueueRef):
            loads.append(instr)
        elif instr.queue_pops():
            pops.append(instr)
        elif instr.opcode is Opcode.ISETP:
            if instr.dst == term.guard:
                cmp = instr
        elif instr.opcode is Opcode.BRA:
            pass
        elif instr.info.unit is not FuncUnit.INT or instr.guard is not None:
            return None  # only pure, unguarded integer arithmetic allowed
        elif instr.opcode is Opcode.ISETP:
            return None
    if len(loads) != 1 or len(pops) > 1 or cmp is None:
        return None
    load = loads[0]
    if load.guard is not None:
        return None
    if cmp.attrs.get("cmp") not in ("lt", "le"):
        return None
    pop = pops[0] if pops else None
    if pop is not None and (
        pop.opcode is not Opcode.MOV or not isinstance(pop.dst, Register)
    ):
        return None

    induction = _find_induction(block)
    if induction is None:
        return None
    ind_reg, step_operand, step_update = induction

    values = _linear_eval(block, ind_reg, pop)
    addr = _operand_lin(load.srcs[0], values, block)
    if addr is None:
        return None
    addr_coeff = addr.get("ind", 0.0)
    pop_coeff = addr.get("pop", 0.0)
    if addr_coeff != int(addr_coeff) or pop_coeff != int(pop_coeff):
        return None
    if pop is None and (addr_coeff == 0 or pop_coeff != 0):
        return None
    if pop is not None and (pop_coeff != 1 or addr_coeff != 0):
        return None  # gather address must be exactly pop + invariants
    bound = _match_bound(cmp, ind_reg, values, block)
    if bound is None:
        return None
    if _defs_live_outside(stage_prog.pdg, block):
        return None
    stop_uids = {step_update.uid}
    if pop is not None:
        stop_uids.add(pop.uid)
    addr_chain = _in_block_backslice(block, load.srcs[0], stop_uids)
    if addr_chain is None:
        return None
    return _LoopShape(
        block=block,
        block_idx=block_idx,
        load=load,
        induction=ind_reg,
        step_operand=step_operand,
        step_update=step_update,
        cmp=cmp,
        bound_operand=bound,
        cmp_kind=cmp.attrs["cmp"],
        addr_coeff=int(addr_coeff),
        addr_chain=addr_chain,
        pop=pop,
        pop_coeff=int(pop_coeff),
    )


def _find_induction(
    block: BasicBlock,
) -> tuple[Register, Operand, Instruction] | None:
    """The single ``i = IADD i, step`` self-update in the block."""
    candidates = []
    defs: dict[Register, int] = {}
    for instr in block.instructions:
        for reg in instr.defined_registers():
            defs[reg] = defs.get(reg, 0) + 1
    for instr in block.instructions:
        if instr.opcode is not Opcode.IADD:
            continue
        dst = instr.dst
        if not isinstance(dst, Register) or defs.get(dst, 0) != 1:
            continue
        a, b = instr.srcs
        if a == dst and _is_invariant_operand(b, block, exclude=instr):
            candidates.append((dst, b, instr))
        elif b == dst and _is_invariant_operand(a, block, exclude=instr):
            candidates.append((dst, a, instr))
    if len(candidates) != 1:
        return None
    return candidates[0]


def _is_invariant_operand(
    op: Operand, block: BasicBlock, exclude: Instruction
) -> bool:
    if isinstance(op, (Immediate, SpecialRegister)):
        return True
    if not isinstance(op, Register):
        return False
    for instr in block.instructions:
        if instr is exclude:
            continue
        if op in instr.defined_registers():
            return False
    return True


def _linear_eval(
    block: BasicBlock, induction: Register, pop: Instruction | None
) -> dict[Register, _Lin]:
    """Linear model of every register defined in the block.

    The model is relative to the *entry* value of the induction variable
    ('ind') and, for gather loops, the popped queue value ('pop').
    Non-linear definitions are simply absent from the map.
    """
    values: dict[Register, _Lin] = {induction: {"ind": 1.0}}
    if pop is not None:
        values[pop.dst] = {"pop": 1.0}

    def operand_lin(op: Operand) -> _Lin | None:
        if isinstance(op, Immediate):
            return _lin_const(op.value)
        if isinstance(op, SpecialRegister):
            return {("inv", repr(op)): 1.0}
        if isinstance(op, Register):
            if op in values:
                return values[op]
            if _defined_in_block(op, block):
                return None  # defined later or non-linear
            return {("inv", repr(op)): 1.0}
        return None

    for instr in block.instructions:
        dst = instr.dst
        if not isinstance(dst, Register) or instr is pop:
            continue
        if dst == induction:
            continue
        lin = None
        ops = [operand_lin(s) for s in instr.srcs]
        if instr.opcode in (Opcode.IADD,) and None not in ops:
            lin = _lin_add(ops[0], ops[1])
        elif instr.opcode is Opcode.IMUL and None not in ops:
            if _is_const(ops[0]):
                lin = _lin_scale(ops[1], _const_of(ops[0]))
            elif _is_const(ops[1]):
                lin = _lin_scale(ops[0], _const_of(ops[1]))
        elif instr.opcode is Opcode.IMAD and None not in ops:
            if _is_const(ops[0]):
                lin = _lin_add(_lin_scale(ops[1], _const_of(ops[0])), ops[2])
            elif _is_const(ops[1]):
                lin = _lin_add(_lin_scale(ops[0], _const_of(ops[1])), ops[2])
        elif instr.opcode is Opcode.SHL and None not in ops:
            if _is_const(ops[1]):
                lin = _lin_scale(ops[0], 2.0 ** _const_of(ops[1]))
        elif instr.opcode is Opcode.MOV and ops[0] is not None:
            lin = ops[0]
        if lin is not None:
            values[dst] = lin
    return values


def _defined_in_block(reg: Register, block: BasicBlock) -> bool:
    return any(reg in i.defined_registers() for i in block.instructions)


def _operand_lin(
    op: Operand, values: dict[Register, _Lin], block: BasicBlock
) -> _Lin | None:
    if isinstance(op, Immediate):
        return _lin_const(op.value)
    if isinstance(op, SpecialRegister):
        return {("inv", repr(op)): 1.0}
    if isinstance(op, Register):
        if op in values:
            return values[op]
        if _defined_in_block(op, block):
            return None
        return {("inv", repr(op)): 1.0}
    return None


def _match_bound(
    cmp: Instruction,
    induction: Register,
    values: dict[Register, _Lin],
    block: BasicBlock,
) -> Operand | None:
    """The loop bound operand for ``@(i cmp N) BRA loop`` shapes.

    The comparison's left side must be exactly the (updated) induction
    variable; the right side must be loop-invariant.
    """
    a, b = cmp.srcs
    if a != induction:
        return None
    lin = _operand_lin(b, values, block)
    if lin is None or "ind" in lin or "pop" in lin:
        return None
    if isinstance(b, Register) and _defined_in_block(b, block):
        return None
    return b


def _defs_live_outside(pdg: PDG, block: BasicBlock) -> bool:
    block_uids = {i.uid for i in block.instructions}
    for instr in block.instructions:
        for succ in pdg.data_succs.get(instr.uid, ()):
            if succ not in block_uids:
                return True
    return False


def _in_block_backslice(
    block: BasicBlock, addr: Operand, stop_uids: set[int]
) -> list[Instruction] | None:
    """In-block instructions computing ``addr``, in program order.

    Returns ``None`` if the chain touches the induction update or any
    non-arithmetic instruction (those cannot be hoisted to a preheader).
    """
    if not isinstance(addr, Register):
        return []
    needed: set[int] = set()
    defs: dict[Register, Instruction] = {}
    for instr in block.instructions:
        for reg in instr.defined_registers():
            defs[reg] = instr  # last def wins; loop bodies define once
    work = [addr]
    seen_regs: set[Register] = set()
    while work:
        reg = work.pop()
        if reg in seen_regs:
            continue
        seen_regs.add(reg)
        instr = defs.get(reg)
        if instr is None:
            continue  # loop-invariant: defined in the preheader
        if instr.uid in stop_uids:
            continue  # the induction variable itself; read entry value
        if instr.info.unit is not FuncUnit.INT or instr.queue_pops():
            return None
        needed.add(instr.uid)
        work.extend(instr.used_registers())
    return [i for i in block.instructions if i.uid in needed]


# -- code generation ------------------------------------------------------


def _emit_count(
    out: list[Instruction],
    shape: _LoopShape,
    fresh: "_RegAllocator",
) -> Register:
    """Emit preheader code computing the loop trip count.

    trips = max(1, ceil((N - i0 [+1 for le]) / step)), reading the
    induction variable's entry value ``i0`` directly (the preheader runs
    before the loop would have).
    """
    diff = fresh.reg()
    out.append(
        Instruction(
            Opcode.IMAD,
            dst=diff,
            srcs=[shape.induction, Immediate(-1), shape.bound_operand],
        )
    )
    if shape.cmp_kind == "le":
        bumped = fresh.reg()
        out.append(
            Instruction(Opcode.IADD, dst=bumped, srcs=[diff, Immediate(1)])
        )
        diff = bumped
    if isinstance(shape.step_operand, Immediate):
        rounded = fresh.reg()
        out.append(
            Instruction(
                Opcode.IADD,
                dst=rounded,
                srcs=[diff, Immediate(shape.step_operand.value - 1)],
            )
        )
    else:
        plus_step = fresh.reg()
        out.append(
            Instruction(
                Opcode.IADD, dst=plus_step, srcs=[diff, shape.step_operand]
            )
        )
        rounded = fresh.reg()
        out.append(
            Instruction(
                Opcode.IADD, dst=rounded, srcs=[plus_step, Immediate(-1)]
            )
        )
    quotient = fresh.reg()
    out.append(
        Instruction(
            Opcode.IDIV, dst=quotient, srcs=[rounded, shape.step_operand]
        )
    )
    count = fresh.reg()
    out.append(
        Instruction(Opcode.MAX, dst=count, srcs=[quotient, Immediate(1)])
    )
    return count


class _RegAllocator:
    """Fresh registers beyond a program's current maximum."""

    def __init__(self, program: Program) -> None:
        self._next = program.max_register_index() + 1

    def reg(self) -> Register:
        reg = Register(self._next)
        self._next += 1
        return reg


def _emit_stride(
    out: list[Instruction], shape: _LoopShape, coeff: int, fresh: _RegAllocator
) -> Operand:
    if isinstance(shape.step_operand, Immediate):
        return Immediate(int(shape.step_operand.value) * coeff)
    if coeff == 1:
        return shape.step_operand
    stride = fresh.reg()
    out.append(
        Instruction(
            Opcode.IMUL,
            dst=stride,
            srcs=[shape.step_operand, Immediate(coeff)],
        )
    )
    return stride


def _hoist_addr_chain(
    out: list[Instruction], shape: _LoopShape, fresh: _RegAllocator
) -> Operand:
    """Copy the address chain to the preheader; returns the base operand.

    The copies read the entry values of the induction variable and loop
    invariants, computing the first iteration's address vector.
    """
    rename: dict[Register, Register] = {}
    for instr in shape.addr_chain:
        clone = instr.clone()
        clone.srcs = [rename.get(s, s) if isinstance(s, Register) else s
                      for s in clone.srcs]
        assert isinstance(clone.dst, Register)
        new_dst = fresh.reg()
        rename[clone.dst] = new_dst
        clone.dst = new_dst
        clone.category = InstrCategory.TMA
        out.append(clone)
    addr = shape.load.srcs[0]
    if isinstance(addr, Register):
        return rename.get(addr, addr)
    return addr


def _offload_stream(program: Program, shape: _LoopShape) -> bool:
    """Replace a stream loop with a TMA.STREAM configuration."""
    fresh = _RegAllocator(program)
    preheader: list[Instruction] = []
    base = _hoist_addr_chain(preheader, shape, fresh)
    count = _emit_count(preheader, shape, fresh)
    stride = _emit_stride(preheader, shape, shape.addr_coeff, fresh)
    preheader.append(
        Instruction(
            Opcode.TMA_STREAM,
            dst=shape.load.dst,
            srcs=[base, count, stride],
            category=InstrCategory.TMA,
            attrs={KEY_ATTR: shape.load.attrs.get(KEY_ATTR)},
        )
    )
    shape.block.instructions = preheader
    return True


def _find_feeder(
    stages: list[StageProgram],
    shapes: dict[int, list[_LoopShape]],
    gather: _LoopShape,
) -> tuple[StageProgram, _LoopShape] | None:
    """The stream loop pushing the queue the gather loop pops."""
    assert gather.pop is not None
    queue_id = gather.pop.queue_pops()[0].queue_id
    for stage_prog in stages:
        for shape in shapes.get(stage_prog.stage, ()):
            if shape.pop is not None:
                continue
            dst = shape.load.dst
            if isinstance(dst, QueueRef) and dst.queue_id == queue_id:
                return stage_prog, shape
    return None


def _invariant_chain(
    stage_prog: StageProgram, operand: Operand
) -> list[Instruction] | None:
    """Pure integer chain defining a loop-invariant operand, or None.

    Used to re-materialize the gather's ``data_base`` in the feeding
    stage; only immediates, special registers and integer arithmetic are
    copyable across stages.
    """
    if isinstance(operand, (Immediate, SpecialRegister)):
        return []
    if not isinstance(operand, Register):
        return None
    pdg = stage_prog.pdg or build_pdg(stage_prog.program)
    defs: dict[int, Instruction] = {}
    for instr in stage_prog.program.instructions():
        if operand in instr.defined_registers():
            defs[instr.uid] = instr
    if len(defs) != 1:
        return None
    chain: list[Instruction] = []
    seen: set[int] = set()

    def visit(instr: Instruction) -> bool:
        if instr.uid in seen:
            return True
        seen.add(instr.uid)
        if instr.info.unit is not FuncUnit.INT or instr.queue_pops():
            return False
        if instr.guard is not None:
            return False
        for pred_uid in pdg.data_preds.get(instr.uid, ()):
            if not visit(pdg.instr_by_uid[pred_uid]):
                return False
        chain.append(instr)
        return True

    if not visit(next(iter(defs.values()))):
        return None
    return chain


def _fuse_gather(
    feeder_prog: StageProgram,
    feeder_shape: _LoopShape,
    middle_prog: StageProgram,
    gather_shape: _LoopShape,
) -> bool:
    """Fuse a stream stage and an indexed-load stage into TMA.GATHER."""
    assert gather_shape.pop is not None
    # data_base = gather address minus the popped index: re-materialize
    # its defining chain in the feeder stage.
    data_base_op = _gather_data_base(gather_shape)
    if data_base_op is None:
        return False
    chain = _invariant_chain(middle_prog, data_base_op)
    if chain is None:
        return False

    fresh = _RegAllocator(feeder_prog.program)
    preheader: list[Instruction] = []
    base = _hoist_addr_chain(preheader, feeder_shape, fresh)
    count = _emit_count(preheader, feeder_shape, fresh)
    stride = _emit_stride(
        preheader, feeder_shape, feeder_shape.addr_coeff, fresh
    )
    rename: dict[Register, Register] = {}
    for instr in chain:
        clone = instr.clone()
        clone.srcs = [rename.get(s, s) if isinstance(s, Register) else s
                      for s in clone.srcs]
        assert isinstance(clone.dst, Register)
        new_dst = fresh.reg()
        rename[clone.dst] = new_dst
        clone.dst = new_dst
        clone.category = InstrCategory.TMA
        preheader.append(clone)
    if isinstance(data_base_op, Register):
        data_base_op = rename.get(data_base_op, data_base_op)

    preheader.append(
        Instruction(
            Opcode.TMA_GATHER,
            dst=gather_shape.load.dst,
            srcs=[base, data_base_op, count, stride],
            category=InstrCategory.TMA,
            attrs={
                KEY_ATTR: gather_shape.load.attrs.get(KEY_ATTR),
                "dest": "rfq",
            },
        )
    )
    feeder_shape.block.instructions = preheader
    if isinstance(feeder_shape.load.dst, QueueRef):
        feeder_prog.queue_pushes.discard(feeder_shape.load.dst.queue_id)
    gather_queue = gather_shape.load.dst
    if isinstance(gather_queue, QueueRef):
        feeder_prog.queue_pushes.add(gather_queue.queue_id)
        middle_prog.queue_pushes.discard(gather_queue.queue_id)
    pop_queue = gather_shape.pop.queue_pops()[0].queue_id
    middle_prog.queue_pops.discard(pop_queue)
    # Empty the middle stage's loop: keep nothing (the loop and its
    # contents move into the feeder's TMA).
    gather_shape.block.instructions = []
    return True


def _gather_data_base(shape: _LoopShape) -> Operand | None:
    """The invariant term of ``addr = pop + data_base``.

    The loop matcher guaranteed coefficient 1 on the popped value; here
    we additionally require the address to be a single IADD of the
    popped register and one invariant operand, so the operand can be
    re-materialized cheaply.
    """
    assert shape.pop is not None
    addr = shape.load.srcs[0]
    if not isinstance(addr, Register):
        return None
    addr_def = None
    for instr in shape.block.instructions:
        if addr in instr.defined_registers():
            addr_def = instr
    if addr_def is None or addr_def.opcode is not Opcode.IADD:
        return None
    a, b = addr_def.srcs
    pop_dst = shape.pop.dst
    if a == pop_dst:
        return b
    if b == pop_dst:
        return a
    return None

"""The cooperative functional machine.

Warps of a thread block are interpreted round-robin; each warp executes
until it blocks on a queue pop with no data, a barrier wait that cannot
pass yet, or finishes with ``EXIT``.  Register values are warp-wide
float64 vectors, so gather indices and coalescing behaviour are computed
from real per-lane values.

Each :func:`run_kernel` call validates and decodes the program once
(:class:`_Code`): every static instruction becomes an :class:`_Op`
holding its trace-record fields, the queues it pops, one reader per
operand and its opcode handler.  All thread blocks of the launch share
that table, so executing an instruction does its semantics and nothing
else — no operand type dispatch, no opcode ``if``-chain, no record
rebuilding.

The machine emits :class:`~repro.fexec.trace.DynamicInstr` records that
the timing simulator replays (:mod:`repro.sim`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.specs import slice_of
from repro.errors import DeadlockError, ExecutionError
from repro.fexec.barriers import INFINITY, BarrierFile
from repro.fexec.launch import LaunchConfig
from repro.fexec.memory_image import MemoryImage, sectors_of
from repro.fexec.queues import FunctionalQueue
from repro.fexec.sanitizer import SanitizerRace, SmemSanitizer
from repro.fexec.trace import (
    PRED_BASE,
    DynamicInstr,
    KernelTrace,
    TmaJob,
    WarpTrace,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import (
    Immediate,
    Operand,
    Predicate,
    QueueRef,
    Register,
    SpecialReg,
    SpecialRegister,
)
from repro.isa.program import Program

_MAX_DYNAMIC_INSTRS = 5_000_000

_CMP_FUNCS = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}

Vec = np.ndarray
Reader = Callable[["FunctionalMachine", "_WarpState"], Vec]
Alu = Callable[[list[Vec]], "Vec | None"]


def _flat_reg(op: Register | Predicate) -> int:
    if isinstance(op, Predicate):
        return PRED_BASE + op.index
    return op.index


def _frozen(array: Vec) -> Vec:
    """``array`` made read-only: it is shared, so writes must raise."""
    array.flags.writeable = False
    return array


def _divide(v: list[Vec]) -> Vec:
    return np.floor(v[0] / np.where(v[1] != 0, v[1], 1.0))


def _reciprocal(v: list[Vec]) -> Vec:
    with np.errstate(divide="ignore"):
        return np.where(v[0] != 0, 1.0 / v[0], 0.0)


_ALU: dict[Opcode, Alu] = {
    Opcode.IADD: lambda v: v[0] + v[1],
    Opcode.FADD: lambda v: v[0] + v[1],
    Opcode.IMUL: lambda v: v[0] * v[1],
    Opcode.FMUL: lambda v: v[0] * v[1],
    Opcode.IDIV: _divide,
    Opcode.IMAD: lambda v: v[0] * v[1] + v[2],
    Opcode.FFMA: lambda v: v[0] * v[1] + v[2],
    Opcode.HMMA: lambda v: v[0] * v[1] + v[2],
    Opcode.SHL: lambda v: np.floor(v[0]) * (2.0 ** np.floor(v[1])),
    Opcode.SHR: lambda v: np.floor(
        np.floor(v[0]) / (2.0 ** np.floor(v[1]))
    ),
    Opcode.AND: lambda v: (
        v[0].astype(np.int64) & v[1].astype(np.int64)
    ).astype(np.float64),
    Opcode.OR: lambda v: (
        v[0].astype(np.int64) | v[1].astype(np.int64)
    ).astype(np.float64),
    Opcode.MIN: lambda v: np.minimum(v[0], v[1]),
    Opcode.MAX: lambda v: np.maximum(v[0], v[1]),
    Opcode.MOV: lambda v: v[0].copy(),
    Opcode.SEL: lambda v: np.where(v[0].astype(bool), v[1], v[2]),
    Opcode.FRCP: _reciprocal,
    Opcode.NOP: lambda v: None,
}


def _alu(instr: Instruction, width: int) -> Alu | None:
    """The lane-wise function of an ALU instruction (``None``: not ALU)."""
    if instr.opcode is Opcode.REDUX:
        return lambda v: np.full(width, float(v[0].sum()))
    return _lane_function(instr.opcode, instr.attrs.get("cmp"))


def _lane_function(opcode: Opcode, cmp: str | None) -> Alu | None:
    if opcode is Opcode.ISETP:
        compare = _CMP_FUNCS[cmp]
        return lambda v: compare(v[0], v[1]).astype(np.float64)
    return _ALU.get(opcode)


def fold_lane(
    opcode: Opcode, values: list[float], cmp: str | None = None
) -> float:
    """One lane of ``opcode`` over constant operands, computed by the
    machine's own lane function (``cmp`` names an ISETP comparison).

    Translation validation folds constants with it, so a fold cannot
    disagree with execution: float64 throughout, so a shift by 1024 or
    more gives ±inf and a bitwise op casts a non-finite operand as
    numpy does, where Python's ``2.0 ** n`` and ``int()`` would raise.
    """
    lanes = [np.array([value], dtype=np.float64) for value in values]
    with np.errstate(all="ignore"):
        return float(_lane_function(opcode, cmp)(lanes)[0])


# -- decoding -------------------------------------------------------------


def _reader(op: Operand, code: "_Code") -> Reader:
    """A function evaluating ``op`` for one warp."""
    if isinstance(op, (Register, Predicate)):
        flat, zeros = _flat_reg(op), code.zeros

        def read_reg(m: FunctionalMachine, warp: _WarpState) -> Vec:
            return warp.regs.get(flat, zeros)

        return read_reg
    if isinstance(op, Immediate):
        value = _frozen(np.full(code.width, float(op.value)))
        return lambda m, warp: value
    if isinstance(op, SpecialRegister):
        if op.which is SpecialReg.LANE_ID:
            lanes = code.lanes
            return lambda m, warp: lanes
        which = op.which
        return lambda m, warp: warp.specials[which]
    if isinstance(op, QueueRef):
        # Caller must have checked can_pop; popping here keeps
        # evaluation order identical to operand order.
        queue_id = op.queue_id
        return lambda m, warp: m._pop(warp, queue_id)

    def unreadable(m: FunctionalMachine, warp: _WarpState) -> Vec:
        raise ExecutionError(f"cannot evaluate operand {op!r}")

    return unreadable


class _Op:
    """One decoded static instruction.

    ``run`` executes it for one warp and returns its trace record.
    ``record`` carries the static trace fields.  Instructions whose
    record has no dynamic field (no sectors, SMEM words, store flag or
    TMA job) append ``record`` itself for every execution; the others
    copy its static fields into a fresh record.
    """

    __slots__ = (
        "instr", "opcode", "run", "reads", "guard", "negated", "pops",
        "push", "dst", "alu", "barrier", "record", "next", "target",
        "falls_through",
    )

    def __init__(
        self,
        instr: Instruction,
        code: "_Code",
        next_pos: tuple[int, int] | None,
    ) -> None:
        self.instr = instr
        self.opcode = instr.opcode
        self.run = _HANDLERS[instr.opcode]
        self.reads = tuple(_reader(s, code) for s in instr.srcs)
        self.guard = (
            None if instr.guard is None else _reader(instr.guard, code)
        )
        self.negated = instr.guard_negated
        self.pops = tuple(ref.queue_id for ref in instr.queue_pops())
        dst = instr.dst
        self.push = dst.queue_id if isinstance(dst, QueueRef) else None
        self.dst = (
            _flat_reg(dst) if isinstance(dst, (Register, Predicate)) else None
        )
        self.alu = _alu(instr, code.width)
        # Instruction.__post_init__ guarantees barrier ids on BAR.* and
        # targets on BRA; validation guarantees the target resolves.
        self.barrier = instr.barrier_id or ""
        self.next = next_pos
        # BRA and EXIT place the warp themselves; every other opcode
        # falls through to ``next`` once its handler returns.
        self.falls_through = instr.opcode not in (Opcode.BRA, Opcode.EXIT)
        self.target = (
            code.label_to_idx[instr.target or ""]
            if instr.opcode is Opcode.BRA else -1
        )
        src_regs = tuple(
            _flat_reg(op)
            for op in instr.srcs
            if isinstance(op, (Register, Predicate))
        )
        if instr.guard is not None:
            src_regs += (_flat_reg(instr.guard),)
        assert instr.category is not None  # set by Instruction.__post_init__
        self.record = DynamicInstr(
            opcode=instr.opcode,
            unit=instr.info.unit,
            category=instr.category,
            dst_regs=() if self.dst is None else (self.dst,),
            src_regs=src_regs,
            queue_push=self.push,
            queue_pop=self.pops[0] if self.pops else None,
            barrier_id=instr.barrier_id,
        )

    def record_with(
        self,
        sectors: tuple[int, ...] = (),
        is_store: bool = False,
        smem_words: int = 0,
        tma_job: TmaJob | None = None,
    ) -> DynamicInstr:
        r = self.record
        return DynamicInstr(
            r.opcode, r.unit, r.category, r.dst_regs, r.src_regs,
            r.queue_push, r.queue_pop, r.barrier_id,
            sectors, is_store, smem_words, tma_job,
        )


class _Code:
    """A validated program decoded for one launch's warp width.

    ``blocks[b][i]`` decodes ``program.blocks[b].instructions[i]``;
    ``block_next[b]`` is where a warp lands after falling off the end
    of block ``b`` (``None``: off the end of the program).
    """

    def __init__(self, program: Program, width: int) -> None:
        program.validate()
        self.width = width
        self.ones = _frozen(np.ones(width, dtype=bool))
        self.zeros = _frozen(np.zeros(width))
        self.lanes = _frozen(np.arange(width, dtype=np.float64))
        self.register_count = program.register_count()
        blocks = program.blocks
        self.label_to_idx = {b.label: i for i, b in enumerate(blocks)}
        self.block_next: list[tuple[int, int] | None] = [None] * len(blocks)
        landing: tuple[int, int] | None = None
        for b in reversed(range(len(blocks))):
            self.block_next[b] = landing
            if blocks[b].instructions:
                landing = (b, 0)
        self.blocks: list[list[_Op]] = []
        for b, block in enumerate(blocks):
            end = self.block_next[b]
            last = len(block.instructions) - 1
            self.blocks.append([
                _Op(instr, self, end if i == last else (b, i + 1))
                for i, instr in enumerate(block.instructions)
            ])


@dataclass
class _WarpState:
    """Mutable per-warp interpreter state."""

    warp_id: int
    pipe_stage_id: int
    stage_warp_id: int
    num_stage_warps: int
    specials: dict[SpecialReg, Vec] = field(default_factory=dict)
    block_idx: int = 0
    instr_idx: int = 0
    done: bool = False
    regs: dict[int, Vec] = field(default_factory=dict)
    trace: WarpTrace | None = None
    blocked_reason: str = ""


class FunctionalMachine:
    """Interprets one thread block of a program.

    Use :func:`run_kernel` for the common case of running every thread
    block of a launch; it decodes the program once and passes the
    result as ``code``.
    """

    def __init__(
        self,
        program: Program,
        memory: MemoryImage,
        launch: LaunchConfig,
        tb_id: int = 0,
        collect_trace: bool = True,
        sanitize: bool = False,
        code: _Code | None = None,
    ) -> None:
        if code is None:
            code = _Code(program, launch.warp_width)
        self._code = code
        self.program = program
        self.memory = memory
        self.launch = launch
        self.tb_id = tb_id
        self.collect_trace = collect_trace
        self.smem = np.zeros(max(1, program.smem_words), dtype=np.float64)
        # Queues are per pipeline slice: warp k of stage S communicates
        # with warp k of stage S+1 (the paper's TB0_W<k>_QS0S1 naming),
        # so the channel key is (queue_id, slice index).
        self._queues: dict[tuple[int, int], FunctionalQueue] = {}
        # Every arrival lands at time 0: a wait passes exactly when its
        # pass time is finite.
        spec = program.tb_spec
        self._barriers = BarrierFile(
            launch.num_warps,
            spec.barrier_expected if spec is not None else {},
            spec.barrier_initial if spec is not None else {},
        )
        self._warps = [self._make_warp(w) for w in range(launch.num_warps)]
        self._dynamic_count = 0
        self._san: SmemSanitizer | None = None
        if sanitize:
            self._san = SmemSanitizer(program, launch.num_warps, tb_id)

    # -- setup ------------------------------------------------------------

    def _spec(self):
        return self.program.tb_spec

    def _make_warp(self, warp_id: int) -> _WarpState:
        spec = self._spec()
        if spec is not None:
            stage = spec.stage_of_warp(warp_id)
            num_stage_warps = len(spec.warps_in_stage(stage))
        else:
            stage, num_stage_warps = 0, self.launch.num_warps
        stage_warp_id = slice_of(spec, warp_id)
        values = {
            SpecialReg.WARP_ID: warp_id,
            SpecialReg.TB_ID: self.tb_id,
            SpecialReg.NUM_WARPS: self.launch.num_warps,
            SpecialReg.PIPE_STAGE_ID: stage,
            SpecialReg.STAGE_WARP_ID: stage_warp_id,
            SpecialReg.NUM_STAGE_WARPS: num_stage_warps,
        }
        warp = _WarpState(
            warp_id=warp_id,
            pipe_stage_id=stage,
            stage_warp_id=stage_warp_id,
            num_stage_warps=num_stage_warps,
            specials={
                which: _frozen(np.full(self.launch.warp_width, float(v)))
                for which, v in values.items()
            },
        )
        if self.collect_trace:
            warp.trace = WarpTrace(warp_id=warp_id, pipe_stage_id=stage)
        return warp

    def _queue(self, queue_id: int, slice_id: int) -> FunctionalQueue:
        key = (queue_id, slice_id)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = FunctionalQueue(queue_id)
        return queue

    def _arrive(self, warp: _WarpState, barrier_id: str) -> None:
        self._barriers.arrive_wait(barrier_id).arrive(0.0)
        if self._san is not None:
            self._san.on_arrive(warp.warp_id, barrier_id)

    # -- value evaluation ---------------------------------------------------

    def _pop(self, warp: _WarpState, queue_id: int) -> Vec:
        value = self._queue(queue_id, warp.stage_warp_id).pop()
        if self._san is not None:
            self._san.on_pop(warp.warp_id, queue_id, warp.stage_warp_id)
        return value

    def _push(self, warp: _WarpState, queue_id: int, value: Vec) -> None:
        self._queue(queue_id, warp.stage_warp_id).push(value)
        if self._san is not None:
            self._san.on_push(warp.warp_id, queue_id, warp.stage_warp_id)

    def _uniform_int(self, warp: _WarpState, op: _Op, k: int) -> int:
        vec = op.reads[k](self, warp)
        first = vec.flat[0]
        if not np.all(vec == first):
            raise ExecutionError(
                f"operand {op.instr.srcs[k]!r} must be warp-uniform"
            )
        return int(first)

    def _mask(self, warp: _WarpState, op: _Op) -> Vec:
        if op.guard is None:
            return self._code.ones
        mask = op.guard(self, warp).astype(bool)
        return ~mask if op.negated else mask

    # -- execution ----------------------------------------------------------

    def run(self) -> KernelTrace:
        """Run the thread block to completion; returns the trace."""
        while True:
            progressed = False
            all_done = True
            for warp in self._warps:
                if warp.done:
                    continue
                all_done = False
                if self._run_warp_slice(warp):
                    progressed = True
            if all_done:
                break
            if not progressed:
                reasons = {
                    w.warp_id: w.blocked_reason
                    for w in self._warps
                    if not w.done
                }
                raise DeadlockError(
                    f"kernel {self.program.name!r} deadlocked: {reasons}"
                )
        return self._build_trace()

    def _run_warp_slice(self, warp: _WarpState, max_steps: int = 256) -> bool:
        """Step ``warp`` until it blocks/finishes; True if it progressed."""
        progressed = False
        for _ in range(max_steps):
            if warp.done or not self._step(warp):
                break
            progressed = True
        return progressed

    def _step(self, warp: _WarpState) -> bool:
        """Execute one instruction; False if blocked."""
        ops = self._code.blocks[warp.block_idx]
        if warp.instr_idx >= len(ops):
            self._goto(warp, self._code.block_next[warp.block_idx])
            return True
        op = ops[warp.instr_idx]
        # Blocking checks first (no side effects before we commit).
        for queue_id in op.pops:
            if not self._queue(queue_id, warp.stage_warp_id).can_pop():
                warp.blocked_reason = f"queue {queue_id} empty"
                return False
        opcode = op.opcode
        if opcode is Opcode.BAR_WAIT:
            barrier = self._barriers.arrive_wait(op.barrier)
            if barrier.wait_pass_time(warp.warp_id) == INFINITY:
                warp.blocked_reason = f"wait {op.barrier}"
                return False
        elif opcode is Opcode.BAR_SYNC:
            sync = self._barriers.sync(op.barrier)
            sync.arrive(warp.warp_id, 0.0)
            if sync.pass_time(warp.warp_id) == INFINITY:
                warp.blocked_reason = f"sync {op.barrier}"
                return False
        self._dynamic_count += 1
        if self._dynamic_count > _MAX_DYNAMIC_INSTRS:
            raise ExecutionError(
                f"kernel {self.program.name!r} exceeded the dynamic "
                f"instruction cap ({_MAX_DYNAMIC_INSTRS})"
            )
        record = op.run(self, warp, op)
        if warp.trace is not None:
            warp.trace.instrs.append(record)
        if op.falls_through:
            self._goto(warp, op.next)
        return True

    def _goto(self, warp: _WarpState, pos: tuple[int, int] | None) -> None:
        """Fall through to ``pos`` (``None``: off the program's end)."""
        if pos is None:
            raise ExecutionError(
                f"warp {warp.warp_id} fell off program "
                f"{self.program.name!r}"
            )
        warp.block_idx, warp.instr_idx = pos

    # -- per-opcode semantics -------------------------------------------

    def _exec_alu(self, warp: _WarpState, op: _Op) -> DynamicInstr:
        mask = self._mask(warp, op)
        assert op.alu is not None
        result = op.alu([read(self, warp) for read in op.reads])
        if result is not None:
            self._writeback(warp, op, result, mask)
        return op.record

    def _exec_branch(self, warp: _WarpState, op: _Op) -> DynamicInstr:
        mask = self._mask(warp, op)
        if mask.all():
            warp.block_idx, warp.instr_idx = op.target, 0
        elif not mask.any():
            self._goto(warp, op.next)
        else:
            raise ExecutionError(
                f"divergent branch in {self.program.name!r} "
                f"(warp {warp.warp_id}); kernels must keep branches "
                "warp-uniform"
            )
        return op.record

    def _exec_exit(self, warp: _WarpState, op: _Op) -> DynamicInstr:
        warp.done = True
        return op.record

    def _exec_arrive(self, warp: _WarpState, op: _Op) -> DynamicInstr:
        self._arrive(warp, op.barrier)
        return op.record

    def _exec_wait(self, warp: _WarpState, op: _Op) -> DynamicInstr:
        barrier = self._barriers.arrive_wait(op.barrier)
        if self._san is not None:
            self._san.on_wait_pass(
                warp.warp_id, op.barrier, barrier.threshold(warp.warp_id)
            )
        barrier.record_wait(warp.warp_id)
        return op.record

    def _exec_sync(self, warp: _WarpState, op: _Op) -> DynamicInstr:
        # Arrival was already marked by the blocking check in _step.
        sync = self._barriers.sync(op.barrier)
        phase = sync.warp_phase.get(warp.warp_id, 0)
        sync.record_pass(warp.warp_id)
        if self._san is not None:
            self._san.on_sync_pass(warp.warp_id, op.barrier, phase)
        return op.record

    def _exec_ldg(self, warp: _WarpState, op: _Op) -> DynamicInstr:
        mask = self._mask(warp, op)
        addrs = op.reads[0](self, warp).astype(np.int64)
        active = addrs[mask]
        result = np.zeros(self.launch.warp_width)
        sectors: tuple[int, ...] = ()
        if active.size:
            result[mask] = self.memory.load(active)
            sectors = sectors_of(active)
        self._writeback(warp, op, result, mask)
        return op.record_with(sectors=sectors)

    def _exec_stg(self, warp: _WarpState, op: _Op) -> DynamicInstr:
        mask = self._mask(warp, op)
        addrs = op.reads[0](self, warp).astype(np.int64)
        values = op.reads[1](self, warp)
        sectors: tuple[int, ...] = ()
        if mask.any():
            self.memory.store(addrs[mask], values[mask])
            sectors = sectors_of(addrs[mask])
        return op.record_with(sectors=sectors, is_store=True)

    def _exec_lds(self, warp: _WarpState, op: _Op) -> DynamicInstr:
        mask = self._mask(warp, op)
        addrs = op.reads[0](self, warp).astype(np.int64)
        result = np.zeros(self.launch.warp_width)
        if mask.any():
            result[mask] = self._smem_load(addrs[mask], warp)
        self._writeback(warp, op, result, mask)
        return op.record_with(smem_words=int(mask.sum()))

    def _exec_sts(self, warp: _WarpState, op: _Op) -> DynamicInstr:
        mask = self._mask(warp, op)
        addrs = op.reads[0](self, warp).astype(np.int64)
        values = op.reads[1](self, warp)
        if mask.any():
            self._smem_store(addrs[mask], values[mask], warp)
        return op.record_with(is_store=True, smem_words=int(mask.sum()))

    def _exec_ldgsts(self, warp: _WarpState, op: _Op) -> DynamicInstr:
        mask = self._mask(warp, op)
        gaddrs = op.reads[0](self, warp).astype(np.int64)
        saddrs = op.reads[1](self, warp).astype(np.int64)
        sectors: tuple[int, ...] = ()
        if mask.any():
            self._smem_store(
                saddrs[mask], self.memory.load(gaddrs[mask]), warp
            )
            sectors = sectors_of(gaddrs[mask])
        return op.record_with(
            sectors=sectors, is_store=True, smem_words=int(mask.sum())
        )

    def _writeback(
        self, warp: _WarpState, op: _Op, result: Vec, mask: Vec
    ) -> None:
        if op.push is not None:
            self._push(warp, op.push, result)
        elif op.dst is not None:
            if op.guard is None or mask.all():
                warp.regs[op.dst] = np.asarray(result, dtype=np.float64)
            else:
                old = warp.regs.get(op.dst, self._code.zeros)
                warp.regs[op.dst] = np.where(mask, result, old)

    # -- shared memory ------------------------------------------------------

    def _smem_load(self, addrs: Vec, warp: _WarpState) -> Vec:
        if addrs.min(initial=0) < 0 or addrs.max(initial=0) >= len(self.smem):
            raise ExecutionError(
                f"SMEM load out of bounds in {self.program.name!r}: "
                f"{addrs.min()}..{addrs.max()} (smem={len(self.smem)})"
            )
        if self._san is not None:
            self._san.on_read(
                warp.warp_id, self._san.block_stage[warp.block_idx], addrs
            )
        return self.smem[addrs]

    def _smem_store(self, addrs: Vec, values: Vec, warp: _WarpState) -> None:
        if addrs.min(initial=0) < 0 or addrs.max(initial=0) >= len(self.smem):
            raise ExecutionError(
                f"SMEM store out of bounds in {self.program.name!r}: "
                f"{addrs.min()}..{addrs.max()} (smem={len(self.smem)})"
            )
        if self._san is not None:
            self._san.on_write(
                warp.warp_id, self._san.block_stage[warp.block_idx], addrs
            )
        self.smem[addrs] = values

    # -- TMA offload --------------------------------------------------------

    def _exec_tma_tile(self, warp: _WarpState, op: _Op) -> DynamicInstr:
        gbase = self._uniform_int(warp, op, 0)
        sbase = self._uniform_int(warp, op, 1)
        count = self._uniform_int(warp, op, 2)
        addrs = np.arange(gbase, gbase + count, dtype=np.int64)
        self._smem_store(
            np.arange(sbase, sbase + count, dtype=np.int64),
            self.memory.load(addrs),
            warp,
        )
        barrier_id = op.instr.attrs.get("barrier")
        if barrier_id:
            self._arrive(warp, barrier_id)
        width = self.launch.warp_width
        return op.record_with(tma_job=TmaJob(
            mode="tile",
            queue=None,
            barrier=barrier_id,
            vector_sectors=tuple(
                sectors_of(addrs[k : k + width])
                for k in range(0, count, width)
            ),
            data_vector_sectors=None,
            smem_words=count,
        ))

    def _exec_tma_stream(self, warp: _WarpState, op: _Op) -> DynamicInstr:
        if op.push is None:
            raise ExecutionError("TMA.STREAM requires a queue destination")
        base_vec = op.reads[0](self, warp).astype(np.int64)
        count = self._uniform_int(warp, op, 1)
        if len(op.reads) > 2:
            vec_stride = self._uniform_int(warp, op, 2)
        else:
            vec_stride = int(
                op.instr.attrs.get("vec_stride", self.launch.warp_width)
            )
        # Created before the first push, even for zero vectors: queue
        # creation order fixes the trace's queue_lengths order.
        self._queue(op.push, warp.stage_warp_id)
        vector_sectors = []
        for k in range(count):
            addrs = base_vec + k * vec_stride
            self._push(warp, op.push, self.memory.load(addrs))
            vector_sectors.append(sectors_of(addrs))
        return op.record_with(tma_job=TmaJob(
            mode="stream",
            queue=op.push,
            barrier=None,
            vector_sectors=tuple(vector_sectors),
            data_vector_sectors=None,
            smem_words=0,
        ))

    def _exec_tma_gather(self, warp: _WarpState, op: _Op) -> DynamicInstr:
        idx_base = op.reads[0](self, warp).astype(np.int64)
        data_base = op.reads[1](self, warp).astype(np.int64)
        count = self._uniform_int(warp, op, 2)
        attrs = op.instr.attrs
        width = self.launch.warp_width
        if len(op.reads) > 3:
            idx_stride = self._uniform_int(warp, op, 3)
        else:
            idx_stride = int(attrs.get("idx_stride", width))
        queue_id = None
        if attrs.get("dest", "rfq") == "rfq":
            if op.push is None:
                raise ExecutionError("TMA.GATHER dest=rfq needs a queue dst")
            queue_id = op.push
            self._queue(queue_id, warp.stage_warp_id)  # as in TMA.STREAM
        lanes = np.arange(width, dtype=np.int64)
        sbase = int(attrs.get("sbase", 0))
        vector_sectors = []
        data_vector_sectors = []
        smem_words = 0
        for k in range(count):
            idx_addrs = idx_base + k * idx_stride
            indices = self.memory.load(idx_addrs).astype(np.int64)
            data_addrs = data_base + indices
            data = self.memory.load(data_addrs)
            if queue_id is not None:
                self._push(warp, queue_id, data)
            else:
                self._smem_store(sbase + k * width + lanes, data, warp)
                smem_words += width
            # Both phases consume memory bandwidth: index fetch, then the
            # dependent data fetch (kept separate for two-phase timing).
            vector_sectors.append(sectors_of(idx_addrs))
            data_vector_sectors.append(sectors_of(data_addrs))
        return op.record_with(tma_job=TmaJob(
            mode="gather",
            queue=queue_id,
            barrier=attrs.get("barrier"),
            vector_sectors=tuple(vector_sectors),
            data_vector_sectors=tuple(data_vector_sectors),
            smem_words=smem_words,
        ))

    # -- trace assembly -------------------------------------------------

    def _aggregate_queue_lengths(self) -> dict[int, int]:
        totals: dict[int, int] = {}
        for (qid, _slice), queue in self._queues.items():
            totals[qid] = totals.get(qid, 0) + queue.total_pushed
        return totals

    def _build_trace(self) -> KernelTrace:
        return KernelTrace(
            kernel_name=self.program.name,
            num_warps=self.launch.num_warps,
            warp_width=self.launch.warp_width,
            warps=[w.trace for w in self._warps if w.trace is not None],
            queue_lengths=self._aggregate_queue_lengths(),
            barrier_arrivals=self._barriers.arrival_counts(),
            tb_spec=self.program.tb_spec,
            program_registers=self._code.register_count,
            smem_words=self.program.smem_words,
        )


_M = FunctionalMachine
_HANDLERS: dict[
    Opcode, Callable[[FunctionalMachine, _WarpState, _Op], DynamicInstr]
]
_HANDLERS = {
    **{opcode: _M._exec_alu for opcode in (*_ALU, Opcode.ISETP, Opcode.REDUX)},
    Opcode.BRA: _M._exec_branch,
    Opcode.EXIT: _M._exec_exit,
    Opcode.BAR_ARRIVE: _M._exec_arrive,
    Opcode.BAR_WAIT: _M._exec_wait,
    Opcode.BAR_SYNC: _M._exec_sync,
    Opcode.LDG: _M._exec_ldg,
    Opcode.STG: _M._exec_stg,
    Opcode.LDS: _M._exec_lds,
    Opcode.STS: _M._exec_sts,
    Opcode.LDGSTS: _M._exec_ldgsts,
    Opcode.TMA_TILE: _M._exec_tma_tile,
    Opcode.TMA_STREAM: _M._exec_tma_stream,
    Opcode.TMA_GATHER: _M._exec_tma_gather,
}


@dataclass
class ExecutionResult:
    """Traces (one per thread block) plus the mutated memory image."""

    traces: list[KernelTrace]
    memory: MemoryImage
    races: list[SanitizerRace] = field(default_factory=list)


def run_kernel(
    program: Program,
    memory: MemoryImage,
    launch: LaunchConfig,
    collect_trace: bool = True,
    sanitize: bool = False,
) -> ExecutionResult:
    """Functionally execute every thread block of a launch (serially)."""
    code = _Code(program, launch.warp_width)
    traces = []
    races: list[SanitizerRace] = []
    for tb_id in range(launch.num_thread_blocks):
        machine = FunctionalMachine(
            program,
            memory,
            launch,
            tb_id=tb_id,
            collect_trace=collect_trace,
            sanitize=sanitize,
            code=code,
        )
        traces.append(machine.run())
        if machine._san is not None:
            races.extend(machine._san.races)
    return ExecutionResult(traces=traces, memory=memory, races=races)

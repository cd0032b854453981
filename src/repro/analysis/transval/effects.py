"""Symbolic memory-effect summaries for translation validation.

One walker serves both sides of the equivalence check: the source
kernel is walked as a single section, the warp-specialized program as
one section per pipeline stage (ascending, sharing one environment so
queue-carried and SMEM-staged values thread from producers to
consumers along the same FIFO edges the happens-before engine models).

Loops are summarized, not unrolled.  Each natural loop is walked twice:
a classification pass binds every written register to a fresh marker
and sorts the writes into *invariant*, *affine* (``init + step * i``)
and genuine *recurrences*; the summary pass then rebinds affine values
to closed forms over ``LoopIdx`` and recurrences to ``RecPhi`` slots,
recording per-loop recurrence systems (inits, per-copy deltas, continue
conditions) in the summary's loop table.

Circular-buffer rings are recognized from the compiler's own labelling
(``__db<k>`` copy suffixes, :func:`repro.core.compiler.buffering`): the
loop body partitions into ``depth`` copies and each copy ``k`` is
walked with the iteration expression ``depth * i + k`` baked into
affine values, so one symbolic walk covers every slot residue for any
``pipeline_depth`` without enumerating dynamic iterations.

Anything outside the walker's fragment raises :class:`AbstainError`,
which the validator reports as WASP-T004 — a distinct "unproven"
verdict, never a silent pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.analysis.cfg import DISPATCH, strip_stage_prefix
from repro.analysis.facts import PipelineFacts
from repro.core.compiler.buffering import copy_suffix
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
from repro.isa.program import BasicBlock, Program

from repro.analysis.transval.expr import (
    Const,
    Expr,
    GLoad,
    LoopIdx,
    Marker,
    Op,
    RecExit,
    RecPhi,
    SLoad,
    Sym,
    Trip,
    Unknown,
    add,
    cmp,
    contains_marker,
    ite,
    leaves,
    mul,
    negate,
    op2,
    unary,
    warpsum,
)

__all__ = [
    "AbstainError",
    "RingCtx",
    "StoreEffect",
    "LoopInfo",
    "Summary",
    "SharedEnv",
    "summarize_program",
]

_COPY_SUFFIX = re.compile(r"__db(\d*)$")


class AbstainError(Exception):
    """The program left the validator's fragment (reported as T004)."""

    def __init__(self, reason: str, block: str | None = None,
                 stage: int | None = None) -> None:
        super().__init__(reason)
        self.reason = reason
        self.block = block
        self.stage = stage


@dataclass(frozen=True)
class RingCtx:
    """One enclosing unrolled ring: which loop, its depth, this copy."""

    loop: str
    depth: int
    copy: int


@dataclass(frozen=True)
class StoreEffect:
    """One symbolic global store."""

    addr: Expr
    value: Expr
    guard: Expr | None
    path: tuple[str, ...]  # enclosing loop base ids, outer -> inner
    ring: tuple[RingCtx, ...]  # the unrolled subset of ``path``
    stage: int
    block: str
    instr: str
    seq: int


@dataclass
class LoopInfo:
    """Per-loop summary: recurrence system and trip structure."""

    key: str
    base: str
    path: tuple[str, ...]  # enclosing loop bases (not including self)
    ctx: tuple[RingCtx, ...]  # enclosing ring copies
    depth: int  # number of ring copies (1 = not unrolled)
    stage: int
    rec_inits: tuple[Expr, ...] = ()
    #: [copy][slot] -> exit value in terms of this loop's RecPhi nodes.
    rec_deltas: tuple[tuple[Expr, ...], ...] = ()
    #: [copy] -> condition under which the walk continues past the copy.
    cont_conds: tuple[Expr, ...] = ()


@dataclass
class QueueIssue:
    """A push/pop pairing problem found while threading queue values."""

    queue_id: int
    message: str
    stage: int
    block: str


@dataclass
class Summary:
    """Everything the matcher needs from one program walk."""

    kernel: str
    side: str  # "source" | "specialized"
    effects: list[StoreEffect] = field(default_factory=list)
    loops: dict[str, LoopInfo] = field(default_factory=dict)
    abstentions: list[AbstainError] = field(default_factory=list)
    queue_issues: list[QueueIssue] = field(default_factory=list)
    env: "SharedEnv | None" = None


# ``Scope`` identifies "the same dynamic iteration" across stage walks:
# the loop base path plus the ring-copy index at each level.  Producer
# and consumer stages inherit the same stripped loop labels from the
# source, so their scopes align by construction.
Scope = tuple[tuple[str, ...], tuple[int, ...]]


class _QueueState:
    def __init__(self) -> None:
        self.kind = "list"
        self.pushes: dict[Scope, list[tuple[Expr, Expr | None]]] = {}
        self.pops: dict[Scope, int] = {}
        self.flat_pops = 0
        #: For TMA-fed queues: the scope the TMA config executes in ->
        #: its symbolic parameters.  One TMA execution pushes a whole
        #: batch; consumers index into it with the iteration expression
        #: of their first loop below the configuring scope.
        self.tma_by_scope: dict[Scope, tuple[Expr, ...]] = {}


class SharedEnv:
    """Queue and SMEM state threaded across one program's stage walks."""

    def __init__(self) -> None:
        self.queues: dict[int, _QueueState] = {}
        #: (scope, buffer family) -> ordered (canonical addr, value).
        self.smem: dict[tuple[Scope, str], list[tuple[Expr, Expr]]] = {}
        #: Buffer families whose values the proof threads through SMEM.
        self.threaded_families: set[str] = set()

    def queue(self, qid: int) -> _QueueState:
        return self.queues.setdefault(qid, _QueueState())


_SOURCE_SREGS = {
    SpecialReg.LANE_ID: "LANE",
    SpecialReg.WARP_ID: "WARP",
    SpecialReg.TB_ID: "TB",
    SpecialReg.NUM_WARPS: "NWARPS",
}
# Stage splitting rewrites WARP_ID -> STAGE_WARP_ID (and NUM_WARPS ->
# NUM_STAGE_WARPS): each stage's warps renumber from zero exactly like
# the source block's warps do, so the inverse mapping restores the
# source's symbols.
_SPEC_SREGS = {
    SpecialReg.LANE_ID: "LANE",
    SpecialReg.TB_ID: "TB",
    SpecialReg.STAGE_WARP_ID: "WARP",
    SpecialReg.NUM_STAGE_WARPS: "NWARPS",
}


@dataclass
class _Frame:
    base: str
    key: str
    depth: int
    copy: int
    iter_expr: Expr


def _copy_index(label: str) -> int:
    m = _COPY_SUFFIX.search(label)
    if m is None:
        return 0
    return 1 if m.group(1) == "" else int(m.group(1))


def _base_label(label: str) -> str:
    return _COPY_SUFFIX.sub("", strip_stage_prefix(label))


def summarize_program(
    program: Program,
    *,
    side: str,
    env: SharedEnv | None = None,
    facts: PipelineFacts | None = None,
) -> Summary:
    """Walk ``program`` and build its effect summary.

    ``side`` is ``"source"`` or ``"specialized"``.  A specialized
    program is walked stage by stage in ascending order (the queue DAG
    is forward-directed, so producers are summarized before their
    consumers); the jump-table dispatch section is skipped.  ``facts``
    are the program's shared facts; without them a private view is
    built.
    """
    facts = facts or PipelineFacts(program)
    view = facts.view
    env = env if env is not None else SharedEnv()
    summary = Summary(kernel=program.name, side=side, env=env)
    if side == "source":
        stages = [DISPATCH]
    else:
        stages = view.stages
        if not stages:
            # Not actually stage-partitioned: treat as one section.
            stages = [DISPATCH]
    for stage in stages:
        walker = _SectionWalker(facts, stage, side, env, summary)
        try:
            walker.run()
        except AbstainError as exc:
            if exc.stage is None:
                exc.stage = stage
            summary.abstentions.append(exc)
    _finish_queues(env, summary)
    return summary


def _finish_queues(env: SharedEnv, summary: Summary) -> None:
    if summary.side != "specialized":
        return
    for qid, qs in env.queues.items():
        if qs.kind != "list":
            continue
        for scope, plist in qs.pushes.items():
            popped = qs.pops.get(scope, 0)
            if popped < len(plist):
                summary.queue_issues.append(QueueIssue(
                    queue_id=qid,
                    message=(
                        f"queue {qid}: {len(plist) - popped} push(es) per "
                        f"iteration of scope {scope[0] or ('<entry>',)} "
                        "never popped"
                    ),
                    stage=-1,
                    block="",
                ))


class _SectionWalker:
    """Symbolic walk of one stage section (or the whole source)."""

    def __init__(
        self,
        facts: PipelineFacts,
        stage: int,
        side: str,
        env: SharedEnv,
        summary: Summary,
    ) -> None:
        view = facts.view
        self.program = view.program
        self.stage = stage
        self.side = side
        self.env = env
        self.summary = summary
        self.blocks: list[BasicBlock] = view.sections[stage].blocks
        self.label_to_idx = {b.label: i for i, b in enumerate(self.blocks)}
        self.loop_ranges: list[tuple[int, int]] = []
        for loop in facts.loops(stage):
            head = self.label_to_idx[loop.head]
            tail = self.label_to_idx[loop.body[-1]]
            self.loop_ranges.append((head, tail))
        self.state: dict[Operand, Expr] = {}
        self.loop_stack: list[_Frame] = []
        self.recording = True
        #: Loop key -> marker tags its recurrence system depends on.
        #: RecPhi/RecExit are leaves, so classification of an enclosing
        #: loop looks dependencies up here instead of in the expr tree.
        self._loop_tags: dict[str, set[str]] = {}
        #: Marker tags read anywhere during the current pass-1 walk: an
        #: operand whose *entry* value is observed (even if its final
        #: value does not depend on it) carries state across iterations
        #: and must be treated as a recurrence.
        self._p1_reads: set[str] = set()
        self.sregs = _SOURCE_SREGS if side == "source" else _SPEC_SREGS
        self._marker_n = 0
        self._opaque_n = 0
        self._seq = 0
        self._block_label = ""

    # -- control flow ----------------------------------------------------

    def run(self) -> None:
        if not self.blocks:
            return
        self._walk_range(0, len(self.blocks) - 1)

    def _abstain(self, reason: str) -> AbstainError:
        return AbstainError(reason, block=self._block_label,
                            stage=self.stage)

    def _loop_at(self, i: int, hi: int) -> tuple[int, int] | None:
        best: tuple[int, int] | None = None
        for head, tail in self.loop_ranges:
            if head == i and tail <= hi:
                if best is None or tail > best[1]:
                    best = (head, tail)
        return best

    def _walk_range(self, lo: int, hi: int) -> None:
        i = lo
        while i <= hi:
            loop = self._loop_at(i, hi)
            if loop is not None:
                self._handle_loop(loop[0], loop[1])
                i = loop[1] + 1
                continue
            i = self._walk_block(i, hi)

    def _walk_block(self, i: int, hi: int, allow_jump_to: int = -1) -> int:
        block = self.blocks[i]
        self._block_label = block.label
        term = block.terminator
        body = block.instructions[:-1] if term is not None \
            else block.instructions
        for instr in body:
            self._exec(instr)
        if term is None:
            return i + 1
        if term.opcode is Opcode.EXIT:
            return hi + 1
        # BRA
        if term.guard is not None:
            raise self._abstain(
                "conditional branch outside recognized loop structure"
            )
        target = term.target
        j = self.label_to_idx.get(target or "")
        if j is None:
            raise self._abstain(f"branch target {target!r} leaves section")
        if j <= i:
            raise self._abstain("backedge outside recognized loop structure")
        if j > hi and j != allow_jump_to:
            raise self._abstain("branch jumps out of the current loop body")
        return j

    # -- loop handling ---------------------------------------------------

    def _partition_copies(
        self, head: int, tail: int
    ) -> list[tuple[int, int]]:
        ks = [_copy_index(self.blocks[i].label) for i in range(head, tail + 1)]
        if len(set(ks)) == 1:
            return [(head, tail)]
        groups: list[tuple[int, int, int]] = []  # (k, lo, hi)
        for off, k in enumerate(ks):
            i = head + off
            if groups and groups[-1][0] == k:
                groups[-1] = (k, groups[-1][1], i)
            else:
                groups.append((k, i, i))
        expected = list(range(len(groups)))
        if [g[0] for g in groups] != expected:
            raise self._abstain(
                "ring copy suffixes are not contiguous ascending"
            )
        shape0 = [_base_label(self.blocks[i].label)
                  for i in range(groups[0][1], groups[0][2] + 1)]
        for _, lo, hi in groups[1:]:
            shape = [_base_label(self.blocks[i].label)
                     for i in range(lo, hi + 1)]
            if shape != shape0:
                raise self._abstain("ring copies have divergent block shapes")
        return [(lo, hi) for _, lo, hi in groups]

    def _loop_key(self, base: str) -> str:
        parts = []
        if self.side != "source":
            parts.append(f"s{self.stage}")
        parts.append(base)
        for f in self.loop_stack:
            if f.depth > 1:
                parts.append(f"{f.base}.{f.copy}")
        return "|".join(parts)

    def _written_operands(self, head: int, tail: int) -> list[Operand]:
        seen: dict[Operand, None] = {}
        for i in range(head, tail + 1):
            for instr in self.blocks[i].instructions:
                if isinstance(instr.dst, (Register, Predicate)):
                    seen.setdefault(instr.dst, None)

        def sort_key(op: Operand) -> tuple[int, int]:
            if isinstance(op, Register):
                return (0, op.index)
            assert isinstance(op, Predicate)
            return (1, op.index)

        return sorted(seen, key=sort_key)

    def _handle_loop(self, head: int, tail: int) -> None:
        base = _base_label(self.blocks[head].label)
        copies = self._partition_copies(head, tail)
        depth = len(copies)
        key = self._loop_key(base)
        written = self._written_operands(head, tail)
        outer = dict(self.state)

        # Pass 1: classification.  Entry values are fresh markers; the
        # walk records nothing and queue pops yield opaque symbols.
        markers: dict[Operand, Marker] = {}
        for w in written:
            self._marker_n += 1
            markers[w] = Marker(f"{key}#{self._marker_n}")
        self.state.update(markers)
        saved_recording = self.recording
        saved_reads = self._p1_reads
        self.recording = False
        self._p1_reads = set()
        self._run_copies(copies, base, key, depth, rec_slots={})
        self.recording = saved_recording
        reads = self._p1_reads
        self._p1_reads = saved_reads | reads
        final = {w: self.state[w] for w in written}

        invariant, affine, rec = self._classify(written, markers, final,
                                                reads)

        # Pass 2: summary walk with solved entry bindings.
        self.state = dict(outer)
        rec_slots = {w: s for s, w in enumerate(rec)}
        rec_inits = tuple(outer.get(w, Const(0.0)) for w in rec)
        for w in written:
            if w in affine:
                init = outer.get(w, Const(0.0))
                self.state[w] = add(
                    init, mul(affine[w], LoopIdx(base))
                )
            elif w in invariant:
                self.state[w] = outer.get(w, Const(0.0))
            elif w in rec_slots:
                pass  # bound per copy in _run_copies
            else:
                self.state[w] = markers[w]  # recomputed before any read
        deltas, conds = self._run_copies(
            copies, base, key, depth, rec_slots=rec_slots
        )

        info = LoopInfo(
            key=key,
            base=base,
            path=tuple(f.base for f in self.loop_stack),
            ctx=tuple(
                RingCtx(f.base, f.depth, f.copy)
                for f in self.loop_stack if f.depth > 1
            ),
            depth=depth,
            stage=self.stage,
            rec_inits=rec_inits,
            rec_deltas=deltas,
            cont_conds=conds,
        )
        tags: set[str] = set()
        for e in (list(rec_inits) + [d for row in deltas for d in row]
                  + list(conds)):
            tags |= self._expr_tags(e)
        self._loop_tags[key] = tags
        if self.recording:
            for e in (list(rec_inits)
                      + [d for row in deltas for d in row] + list(conds)):
                if contains_marker(e):
                    raise self._abstain(
                        f"unresolved loop-entry value flows into loop "
                        f"{base!r}"
                    )
            self.summary.loops[key] = info

        # Post-loop state.  Ring loops may stop mid-traversal, so the
        # final values of affine and recomputed operands are not a
        # simple function of the trip count; poison them and abstain
        # only if something downstream actually reads them.
        for w in written:
            if w in affine:
                if depth > 1:
                    self.state[w] = Unknown(
                        f"induction value of ring loop {base!r} read "
                        "after the loop"
                    )
                else:
                    init = outer.get(w, Const(0.0))
                    self.state[w] = add(
                        init, mul(affine[w], Trip(base))
                    )
            elif w in invariant:
                self.state[w] = outer.get(w, Const(0.0))
            elif w in rec_slots:
                self.state[w] = RecExit(key, rec_slots[w])
            elif depth > 1:
                self.state[w] = Unknown(
                    f"value computed inside ring loop {base!r} read "
                    "after the loop"
                )
            # Non-ring recomputed operands keep their last-iteration
            # expression — symmetric on both sides, so they compare.

    def _expr_tags(self, e: Expr) -> set[str]:
        """Marker tags ``e`` depends on, looking through nested loop
        tables (RecPhi/RecExit nodes are leaves in the expr tree)."""
        tags: set[str] = set()
        for leaf in leaves(e):
            if isinstance(leaf, Marker):
                tags.add(leaf.tag)
            elif isinstance(leaf, (RecPhi, RecExit)):
                tags.update(self._loop_tags.get(leaf.loop, ()))
        return tags

    def _note_read(self, e: Expr) -> None:
        if not self.recording:
            self._p1_reads |= self._expr_tags(e)

    def _affine_step(
        self, final: Expr, marker: Marker, own_tags: set[str]
    ) -> Expr | None:
        """The per-traversal increment if ``final = marker + step`` with
        ``step`` invariant across iterations of this loop, else None.

        The step may be symbolic (``32 * nwarps`` is the idiomatic
        grid-stride) but must not depend on any value written in the
        loop, nor on pass-1 opaques (queue pops / SMEM reads), which
        change from one iteration to the next.
        """
        if not (isinstance(final, Op) and final.op == "add"
                and marker in final.args):
            return None
        step = add(*[a for a in final.args if a != marker])
        if self._expr_tags(step) & own_tags:
            return None
        if _has_opaque(step):
            return None
        return step

    def _classify(
        self,
        written: list[Operand],
        markers: dict[Operand, Marker],
        final: dict[Operand, Expr],
        reads: set[str],
    ) -> tuple[set[Operand], dict[Operand, Expr], list[Operand]]:
        tag_to_op = {markers[w].tag: w for w in written}
        own_tags = set(tag_to_op)
        invariant: set[Operand] = set()
        affine: dict[Operand, Expr] = {}
        undecided: list[Operand] = []
        deps: dict[Operand, set[Operand]] = {}
        for w in written:
            f = final[w]
            deps[w] = {
                tag_to_op[t] for t in self._expr_tags(f) if t in tag_to_op
            }
            step = self._affine_step(f, markers[w], own_tags)
            if f == markers[w]:
                invariant.add(w)
            elif step is not None:
                affine[w] = step
            else:
                undecided.append(w)
        # A genuine recurrence depends (transitively) on its own entry
        # value — or has its entry value *observed* somewhere in the
        # body (a reader sees last iteration's value even if the final
        # value is recomputed from scratch).
        rec: list[Operand] = []
        for w in undecided:
            seen: set[Operand] = set()
            stack = list(deps[w])
            selfdep = markers[w].tag in reads
            while stack and not selfdep:
                d = stack.pop()
                if d == w:
                    selfdep = True
                    break
                if d in seen:
                    continue
                seen.add(d)
                if d in undecided or d in invariant or d in affine:
                    stack.extend(deps.get(d, ()))
            if selfdep:
                rec.append(w)
        return invariant, affine, rec

    def _run_copies(
        self,
        copies: list[tuple[int, int]],
        base: str,
        key: str,
        depth: int,
        rec_slots: dict[Operand, int],
    ) -> tuple[tuple[tuple[Expr, ...], ...], tuple[Expr, ...]]:
        rec_ops = sorted(rec_slots, key=lambda w: rec_slots[w])
        deltas: list[tuple[Expr, ...]] = []
        conds: list[Expr] = []
        head_label = self.blocks[copies[0][0]].label
        for k, (lo, hi) in enumerate(copies):
            if depth == 1:
                iter_expr: Expr = LoopIdx(base)
            else:
                iter_expr = add(
                    mul(Const(float(depth)), LoopIdx(base)), Const(float(k))
                )
            for w in rec_ops:
                self.state[w] = RecPhi(key, rec_slots[w])
            self.loop_stack.append(
                _Frame(base=base, key=key, depth=depth, copy=k,
                       iter_expr=iter_expr)
            )
            try:
                term = self._walk_copy(lo, hi)
            finally:
                self.loop_stack.pop()
            taken = self._branch_taken(term)
            if k == len(copies) - 1:
                if term is None or term.target != head_label:
                    raise self._abstain(
                        "final ring copy does not branch back to the "
                        "loop head"
                    )
                conds.append(taken)
            else:
                # Non-final copies exit the loop when taken and fall
                # through to the next copy otherwise.
                conds.append(negate(taken))
            deltas.append(tuple(self.state[w] for w in rec_ops))
        return tuple(deltas), tuple(conds)

    def _walk_copy(self, lo: int, hi: int) -> Instruction | None:
        i = lo
        while i < hi:
            loop = self._loop_at(i, hi - 1)
            if loop is not None:
                self._handle_loop(loop[0], loop[1])
                i = loop[1] + 1
                continue
            i = self._walk_block(i, hi - 1, allow_jump_to=hi)
        block = self.blocks[hi]
        self._block_label = block.label
        term = block.terminator
        body = block.instructions[:-1] if term is not None \
            else block.instructions
        for instr in body:
            self._exec(instr)
        if term is not None and term.opcode is not Opcode.BRA:
            raise self._abstain("loop tail ends in EXIT, not a branch")
        return term

    def _branch_taken(self, term: Instruction | None) -> Expr:
        if term is None:
            return Const(0.0)
        if term.guard is None:
            return Const(1.0)
        g = self.state.get(term.guard, Const(0.0))
        self._note_read(g)
        return negate(g) if term.guard_negated else g

    # -- scopes ----------------------------------------------------------

    def _scope(self) -> Scope:
        return (
            tuple(f.base for f in self.loop_stack),
            tuple(f.copy for f in self.loop_stack),
        )

    def _ring_ctx(self) -> tuple[RingCtx, ...]:
        return tuple(
            RingCtx(f.base, f.depth, f.copy)
            for f in self.loop_stack if f.depth > 1
        )

    # -- instruction evaluation ------------------------------------------

    def _exec(self, instr: Instruction) -> None:
        op = instr.opcode
        if op in (Opcode.BAR_SYNC, Opcode.BAR_ARRIVE, Opcode.BAR_WAIT,
                  Opcode.NOP):
            return
        if op in (Opcode.TMA_STREAM, Opcode.TMA_GATHER):
            self._exec_tma(instr)
            return
        if op is Opcode.TMA_TILE:
            raise self._abstain("TMA.TILE is outside the validated fragment")
        guard = self._guard_expr(instr)
        if op is Opcode.STG:
            addr = self._operand(instr.srcs[0])
            value = self._operand(instr.srcs[1])
            if self.recording:
                self._seq += 1
                self._check_marker_free(addr, value, guard)
                self.summary.effects.append(StoreEffect(
                    addr=addr, value=value, guard=guard,
                    path=tuple(f.base for f in self.loop_stack),
                    ring=self._ring_ctx(),
                    stage=self.stage, block=self._block_label,
                    instr=repr(instr), seq=self._seq,
                ))
            return
        if op is Opcode.STS:
            addr = self._operand(instr.srcs[0])
            value = self._operand(instr.srcs[1])
            self._smem_write(instr, addr, value, guard)
            return
        if op is Opcode.LDGSTS:
            gaddr = self._operand(instr.srcs[0])
            saddr = self._operand(instr.srcs[1])
            self._smem_write(instr, saddr, GLoad(gaddr), guard)
            return
        if op is Opcode.LDG:
            result: Expr | None = GLoad(self._operand(instr.srcs[0]))
        elif op is Opcode.LDS:
            result = self._smem_read(instr)
        else:
            result = self._alu(instr)
        self._writeback(instr, result, guard)

    def _guard_expr(self, instr: Instruction) -> Expr | None:
        if instr.guard is None:
            return None
        g = self.state.get(instr.guard, Const(0.0))
        self._note_read(g)
        return negate(g) if instr.guard_negated else g

    def _operand(self, op: Operand) -> Expr:
        if isinstance(op, Immediate):
            return Const(float(op.value))
        if isinstance(op, (Register, Predicate)):
            value = self.state.get(op, Const(0.0))
            self._note_read(value)
            return value
        if isinstance(op, SpecialRegister):
            name = self.sregs.get(op.which)
            if name is None:
                raise self._abstain(
                    f"special register {op.which.name} outside the "
                    "validated fragment"
                )
            return Sym(name)
        if isinstance(op, QueueRef):
            return self._pop_queue(op.queue_id)
        raise self._abstain(f"unsupported operand {op!r}")

    def _alu(self, instr: Instruction) -> Expr | None:
        op = instr.opcode
        vals = [self._operand(s) for s in instr.srcs]
        if op in (Opcode.IADD, Opcode.FADD):
            return add(vals[0], vals[1])
        if op in (Opcode.IMUL, Opcode.FMUL):
            return mul(vals[0], vals[1])
        if op in (Opcode.IMAD, Opcode.FFMA, Opcode.HMMA):
            return add(mul(vals[0], vals[1]), vals[2])
        if op is Opcode.IDIV:
            return op2("idiv", vals[0], vals[1])
        if op in (Opcode.SHL, Opcode.SHR, Opcode.AND, Opcode.OR,
                  Opcode.MIN, Opcode.MAX):
            name = {Opcode.SHL: "shl", Opcode.SHR: "shr",
                    Opcode.AND: "and", Opcode.OR: "or",
                    Opcode.MIN: "min", Opcode.MAX: "max"}[op]
            return op2(name, vals[0], vals[1])
        if op is Opcode.MOV:
            return vals[0]
        if op is Opcode.SEL:
            return ite(vals[0], vals[1], vals[2])
        if op is Opcode.ISETP:
            return cmp(instr.attrs["cmp"], vals[0], vals[1])
        if op is Opcode.REDUX:
            return warpsum(vals[0])
        if op is Opcode.FRCP:
            return unary("frcp", vals[0])
        raise self._abstain(f"unsupported opcode {op.value}")

    def _writeback(
        self, instr: Instruction, result: Expr | None, guard: Expr | None
    ) -> None:
        if result is None or instr.dst is None:
            return
        if isinstance(instr.dst, QueueRef):
            self._push_queue(instr.dst.queue_id, result, guard)
            return
        if guard is not None:
            old = self.state.get(instr.dst, Const(0.0))
            result = ite(guard, result, old)
        self.state[instr.dst] = result

    def _check_marker_free(self, *exprs: Expr | None) -> None:
        for e in exprs:
            if e is not None and contains_marker(e):
                raise self._abstain(
                    "loop-entry value could not be resolved at a store"
                )

    # -- queues ----------------------------------------------------------

    def _push_queue(self, qid: int, value: Expr, guard: Expr | None) -> None:
        if not self.recording:
            return
        qs = self.env.queue(qid)
        qs.pushes.setdefault(self._scope(), []).append((value, guard))

    def _pop_queue(self, qid: int) -> Expr:
        if not self.recording:
            self._opaque_n += 1
            return Sym(f"~pop{qid}.{self._opaque_n}")
        qs = self.env.queue(qid)
        scope = self._scope()
        if qs.kind in ("tma-stream", "tma-gather"):
            return self._pop_tma(qid, qs, scope)
        n = qs.pops.get(scope, 0)
        qs.pops[scope] = n + 1
        plist = qs.pushes.get(scope, [])
        if n >= len(plist):
            self.summary.queue_issues.append(QueueIssue(
                queue_id=qid,
                message=(
                    f"queue {qid}: pop #{n + 1} in scope "
                    f"{scope[0] or ('<entry>',)} has no matching push"
                ),
                stage=self.stage,
                block=self._block_label,
            ))
            return Unknown(f"unmatched pop from queue {qid}")
        value, _guard = plist[n]
        return value

    def _pop_tma(self, qid: int, qs: _QueueState, scope: Scope) -> Expr:
        """A pop from a TMA-fed queue: index into the pushed batch.

        The batch element index is the iteration expression of the
        consumer's first loop below the scope the TMA configuration
        executed in (a gather inside the outer loop feeds the inner
        loop's pops; a hoisted stream outside every loop feeds the
        tile loop's pops).  Ring copies carry their ``depth*i + k``
        expressions, so slot residues fall out for free.
        """
        params = None
        plen = 0
        for j in range(len(scope[0]), -1, -1):
            sc = (scope[0][:j], scope[1][:j])
            if sc in qs.tma_by_scope:
                params = qs.tma_by_scope[sc]
                plen = j
                break
        if params is None:
            self.summary.queue_issues.append(QueueIssue(
                queue_id=qid,
                message=(
                    f"queue {qid}: TMA pop in scope "
                    f"{scope[0] or ('<entry>',)} has no configuring TMA "
                    "in any enclosing scope"
                ),
                stage=self.stage,
                block=self._block_label,
            ))
            return Unknown(f"TMA pop from queue {qid} without a config")
        if plen < len(self.loop_stack):
            it: Expr = self.loop_stack[plen].iter_expr
        else:
            qs.flat_pops += 1
            it = Const(float(qs.flat_pops - 1))
        if qs.kind == "tma-stream":
            base, stride = params
            return GLoad(add(base, mul(stride, it)))
        idx_base, data_base, stride = params
        idx = GLoad(add(idx_base, mul(stride, it)))
        return GLoad(add(data_base, idx))

    def _exec_tma(self, instr: Instruction) -> None:
        if not self.recording:
            return
        if instr.guard is not None:
            raise self._abstain("guarded TMA configuration")
        if not isinstance(instr.dst, QueueRef):
            raise self._abstain("TMA without a queue destination")
        qs = self.env.queue(instr.dst.queue_id)
        if instr.opcode is Opcode.TMA_STREAM:
            base = self._operand(instr.srcs[0])
            stride = (self._operand(instr.srcs[2]) if len(instr.srcs) > 2
                      else Const(float(instr.attrs.get("vec_stride", 0))))
            kind = "tma-stream"
            params: tuple[Expr, ...] = (base, stride)
        else:
            if instr.attrs.get("dest", "rfq") != "rfq":
                raise self._abstain("TMA.GATHER with an SMEM destination")
            idx_base = self._operand(instr.srcs[0])
            data_base = self._operand(instr.srcs[1])
            stride = (self._operand(instr.srcs[3]) if len(instr.srcs) > 3
                      else Const(float(instr.attrs.get("idx_stride", 0))))
            kind = "tma-gather"
            params = (idx_base, data_base, stride)
        scope = self._scope()
        prev = qs.tma_by_scope.get(scope)
        if prev is not None and prev != params:
            raise self._abstain(
                "TMA queue reconfigured with different parameters in "
                "the same scope"
            )
        qs.kind = kind
        qs.tma_by_scope[scope] = params

    # -- shared memory ---------------------------------------------------

    def _smem_canon(self, instr: Instruction, addr: Expr) -> tuple[str, Expr]:
        family = instr.attrs.get("smem_buffer")
        if not family:
            raise self._abstain(
                "SMEM access without a smem_buffer tag"
            )
        phase = int(instr.attrs.get("smem_phase", 0))
        shift = 0
        if phase:
            replica = f"{family}{copy_suffix(phase)}"
            buffers = self.program.smem_buffers
            if family in buffers and replica in buffers:
                shift = buffers[replica][0] - buffers[family][0]
            else:
                raise self._abstain(
                    f"ring replica {replica!r} missing from the SMEM "
                    "allocation table"
                )
        return family, add(addr, Const(float(-shift)))

    def _smem_write(
        self, instr: Instruction, addr: Expr, value: Expr, guard: Expr | None
    ) -> None:
        if not self.recording:
            return
        family, canon = self._smem_canon(instr, addr)
        if guard is not None:
            value = ite(guard, value, Sym("~undef"))
        self.env.smem.setdefault((self._scope(), family), []).append(
            (canon, value)
        )

    def _smem_read(self, instr: Instruction) -> Expr:
        addr = self._operand(instr.srcs[0])
        if not self.recording:
            self._opaque_n += 1
            return Sym(f"~lds.{self._opaque_n}")
        family, canon = self._smem_canon(instr, addr)
        self.env.threaded_families.add(family)
        scope = self._scope()
        fallback_writes: tuple[tuple[Expr, Expr], ...] = ()
        for j in range(len(scope[0]), -1, -1):
            sc = (scope[0][:j], scope[1][:j])
            writes = self.env.smem.get((sc, family))
            if not writes:
                continue
            for waddr, wvalue in reversed(writes):
                if waddr == canon:
                    return wvalue
            if not fallback_writes:
                fallback_writes = tuple(writes)
        return SLoad(family, canon, fallback_writes)


def _has_opaque(e: Expr) -> bool:
    """True if ``e`` contains a pass-1 opaque (``~pop``/``~lds`` Sym)."""
    return any(
        isinstance(leaf, Sym) and leaf.name.startswith("~")
        for leaf in leaves(e)
    )

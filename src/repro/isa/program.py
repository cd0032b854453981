"""Programs and basic blocks with an explicit control-flow graph.

A :class:`Program` is an ordered sequence of :class:`BasicBlock` objects.
Control transfers are explicit: a block ends either with a terminator
(``BRA``/``EXIT``) or falls through to the next block in order.  A
predicated ``BRA`` has two successors (target and fall-through).

Programs also carry the kernel-level metadata the simulator needs to
launch them: register usage, shared-memory footprint, and — for
warp-specialized programs — the WASP thread-block specification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.errors import ValidationError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Predicate, Register


@dataclass
class BasicBlock:
    """A labelled straight-line sequence of instructions."""

    label: str
    instructions: list[Instruction] = field(default_factory=list)

    def append(self, instr: Instruction) -> Instruction:
        self.instructions.append(instr)
        return instr

    @property
    def terminator(self) -> Instruction | None:
        """The trailing BRA/EXIT if present."""
        if self.instructions and self.instructions[-1].info.is_branch:
            return self.instructions[-1]
        return None

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"BasicBlock({self.label!r}, {len(self.instructions)} instrs)"


@dataclass
class Program:
    """A kernel program: an ordered list of basic blocks forming a CFG.

    Attributes:
        name: Kernel name (used in reports).
        blocks: Blocks in layout order; the first block is the entry.
        smem_words: Statically allocated shared memory, in 4-byte words.
        num_registers: Architectural registers per thread.  ``None`` means
            "derive from the program" (max register index + 1).
        tb_spec: WASP thread-block specification, attached by the
            compiler.  ``None`` for ordinary (non-specialized) kernels.
        smem_buffers: Named shared-memory allocations ``name -> (base,
            words)``.  This mirrors the SMEM allocation information the
            paper's compiler reads from nvdisasm and is what the double
            buffering transformation uses to resize a tile buffer.
    """

    name: str
    blocks: list[BasicBlock] = field(default_factory=list)
    smem_words: int = 0
    num_registers: int | None = None
    tb_spec: object | None = None
    smem_buffers: dict[str, tuple[int, int]] = field(default_factory=dict)

    # -- construction -------------------------------------------------------

    def block(self, label: str) -> BasicBlock:
        """Append and return a new empty block labelled ``label``."""
        if any(b.label == label for b in self.blocks):
            raise ValidationError(f"duplicate block label {label!r}")
        blk = BasicBlock(label)
        self.blocks.append(blk)
        return blk

    # -- queries ------------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValidationError(f"program {self.name!r} has no blocks")
        return self.blocks[0]

    def block_map(self) -> dict[str, BasicBlock]:
        return {b.label: b for b in self.blocks}

    def find_block(self, label: str) -> BasicBlock:
        for blk in self.blocks:
            if blk.label == label:
                return blk
        raise ValidationError(f"no block labelled {label!r}")

    def instructions(self) -> Iterator[Instruction]:
        """Iterate all instructions in layout order."""
        for blk in self.blocks:
            yield from blk.instructions

    def successors(self, block: BasicBlock) -> list[str]:
        """Successor labels of ``block`` in the CFG."""
        succs: list[str] = []
        term = block.terminator
        idx = self.blocks.index(block)
        if term is None:
            if idx + 1 < len(self.blocks):
                succs.append(self.blocks[idx + 1].label)
        elif term.opcode is Opcode.BRA:
            succs.append(term.target)  # type: ignore[arg-type]
            if term.guard is not None and idx + 1 < len(self.blocks):
                succs.append(self.blocks[idx + 1].label)
        # EXIT: no successors
        return succs

    def predecessors(self) -> dict[str, list[str]]:
        """Map from block label to the labels of its CFG predecessors."""
        preds: dict[str, list[str]] = {b.label: [] for b in self.blocks}
        for blk in self.blocks:
            for succ in self.successors(blk):
                preds[succ].append(blk.label)
        return preds

    def containing_block(self, instr: Instruction) -> BasicBlock:
        """The basic block holding ``instr`` (matched by uid)."""
        for blk in self.blocks:
            for candidate in blk.instructions:
                if candidate.uid == instr.uid:
                    return blk
        raise ValidationError(f"instruction {instr!r} not found in program")

    def max_register_index(self) -> int:
        """Highest register index referenced, or -1 if none."""
        top = -1
        for instr in self.instructions():
            for reg in instr.used_registers() + instr.defined_registers():
                top = max(top, reg.index)
        return top

    def register_count(self) -> int:
        """Architectural registers per thread for occupancy accounting."""
        if self.num_registers is not None:
            return self.num_registers
        return self.max_register_index() + 1

    def max_predicate_index(self) -> int:
        top = -1
        for instr in self.instructions():
            preds = instr.used_predicates() + instr.defined_predicates()
            for pred in preds:
                top = max(top, pred.index)
        return top

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Structural checks; raises :class:`ValidationError` on failure.

        Checks: non-empty, unique labels, branch targets resolve, every
        path ends in EXIT, barriers have ids, terminators only at block
        ends.  The raised error carries the full structural
        :class:`~repro.analysis.Diagnostic` list (same rule ids the
        static verifier reports).
        """
        diags = self.structural_diagnostics()
        if diags:
            raise ValidationError(
                f"program {self.name!r} failed structural validation: "
                + "; ".join(d.message for d in diags),
                diagnostics=diags,
            )

    def structural_diagnostics(self) -> list:
        """CFG-structure findings as ``WASP-C*`` diagnostics.

        Returns an empty list for a well-formed program.  Rule ids:
        C001 empty, C002 duplicate labels, C003 branch mid-block,
        C004 unresolved branch target, C005 falls off the end / dangling
        successor.  One spec-shape rule rides along: R007, a
        circular-buffer ring whose initial empty-barrier credit admits
        more generations than the ring has slots.
        """
        from repro.analysis.diagnostics import Diagnostic

        diags: list[Diagnostic] = []
        if not self.blocks:
            return [Diagnostic(
                rule="WASP-C001",
                message="program has no basic blocks",
                kernel=self.name,
            )]
        labels = [b.label for b in self.blocks]
        seen: set[str] = set()
        for label in labels:
            if label in seen:
                diags.append(Diagnostic(
                    rule="WASP-C002",
                    message=f"duplicate block label {label!r}",
                    kernel=self.name,
                    block=label,
                ))
            seen.add(label)
        label_set = set(labels)
        for blk in self.blocks:
            for pos, instr in enumerate(blk.instructions):
                if instr.info.is_branch and pos != len(blk.instructions) - 1:
                    diags.append(Diagnostic(
                        rule="WASP-C003",
                        message=f"branch mid-block in {blk.label!r}",
                        kernel=self.name,
                        block=blk.label,
                        instruction=repr(instr),
                    ))
                if (instr.opcode is Opcode.BRA
                        and instr.target not in label_set):
                    diags.append(Diagnostic(
                        rule="WASP-C004",
                        message=f"unresolved branch target "
                                f"{instr.target!r} in {blk.label!r}",
                        kernel=self.name,
                        block=blk.label,
                        instruction=repr(instr),
                    ))
        if not any(d.rule in ("WASP-C002", "WASP-C004") for d in diags):
            diags.extend(self._exit_diagnostics())
        diags.extend(self._ring_credit_diagnostics())
        return diags

    #: Ring slot phase letters, mirroring the compiler's
    #: ``PHASE_SUFFIXES`` (kept literal here: the ISA layer must not
    #: import the compiler).
    _RING_PHASE_LETTERS = "ABCDEFGH"

    def _ring_credit_diagnostics(self) -> list:
        """WASP-R007: a ring credited deeper than its slot count.

        The N-slot circular-buffer protocol grants at most N−1
        generations of explicit initial empty credit (the N-th comes
        from the consumer's first spurious arrival), so any spec whose
        per-ring credit generations *exceed* the slot count admits more
        buffers in flight than exist — the producer would overwrite a
        slot no consumer has released.
        """
        from repro.analysis.diagnostics import Diagnostic

        expected = getattr(self.tb_spec, "barrier_expected", None)
        initial = getattr(self.tb_spec, "barrier_initial", None)
        if not expected or not initial:
            return []
        rings: dict[str, set[str]] = {}
        for name in expected:
            if not name.endswith("_empty"):
                continue
            key = name[: -len("_empty")]
            if (len(key) >= 3 and key[-2] == "_"
                    and key[-1] in self._RING_PHASE_LETTERS):
                rings.setdefault(key[:-2], set()).add(name)
        diags: list[Diagnostic] = []
        for base in sorted(rings):
            slots = rings[base]
            generations = 0
            for name in slots:
                arrivals = expected.get(name, 0)
                if arrivals > 0:
                    generations += initial.get(name, 0) // arrivals
            if generations > len(slots):
                diags.append(Diagnostic(
                    rule="WASP-R007",
                    message=(
                        f"ring {base!r} grants {generations} initial "
                        f"empty-credit generations across "
                        f"{len(slots)} slots"
                    ),
                    kernel=self.name,
                    hint="initial credit must not exceed the slot "
                         "count the buffering pass allocated",
                ))
        return diags

    def _exit_diagnostics(self) -> list:
        from repro.analysis.diagnostics import Diagnostic

        diags: list[Diagnostic] = []
        block_by_label = self.block_map()
        for blk in self.blocks:
            succs = self.successors(blk)
            term = blk.terminator
            if not succs and (term is None or term.opcode is not Opcode.EXIT):
                diags.append(Diagnostic(
                    rule="WASP-C005",
                    message=f"block {blk.label!r} falls off the end of "
                            "the program without EXIT",
                    kernel=self.name,
                    block=blk.label,
                    hint="append EXIT or an unconditional branch",
                ))
            for succ in succs:
                if succ not in block_by_label:
                    diags.append(Diagnostic(
                        rule="WASP-C005",
                        message=f"dangling successor {succ!r} of block "
                                f"{blk.label!r}",
                        kernel=self.name,
                        block=blk.label,
                    ))
        return diags

    # -- rendering ----------------------------------------------------------

    def to_text(self) -> str:
        """A nvdisasm-style listing of the program."""
        lines = [f"// kernel {self.name}  "
                 f"(regs={self.register_count()}, smem_words={self.smem_words})"]
        for blk in self.blocks:
            lines.append(f"{blk.label}:")
            for instr in blk.instructions:
                lines.append(f"    {instr!r}")
        return "\n".join(lines)

    def clone(self) -> "Program":
        """Deep copy in which every instruction gets a fresh uid.

        Clones share no mutable state with the original, and because
        instruction uids are regenerated, dependence graphs built on the
        original do not apply to the clone.
        """
        copy = Program(
            name=self.name,
            smem_words=self.smem_words,
            num_registers=self.num_registers,
            tb_spec=self.tb_spec,
            smem_buffers=dict(self.smem_buffers),
        )
        for blk in self.blocks:
            new_blk = copy.block(blk.label)
            for instr in blk.instructions:
                new_blk.append(instr.clone())
        return copy


def layout_backedges(blocks: Sequence[BasicBlock]) -> list[tuple[int, int]]:
    """The loops of ``blocks``, as ``(head, tail)`` index pairs.

    The one loop rule of the compiler and the static verifier: a
    ``BRA`` ending block ``tail`` whose target is block ``head <= tail``
    of the same list is a backedge, and the loop body is the contiguous
    layout range ``head..tail``.  Branches leaving the list close no
    loop.
    """
    index = {b.label: i for i, b in enumerate(blocks)}
    edges: list[tuple[int, int]] = []
    for tail, block in enumerate(blocks):
        term = block.terminator
        if term is not None and term.opcode is Opcode.BRA:
            head = index.get(term.target or "", tail + 1)
            if head <= tail:
                edges.append((head, tail))
    return edges


def used_registers(instrs: Iterable[Instruction]) -> set[Register]:
    """All registers read or written by ``instrs``."""
    regs: set[Register] = set()
    for instr in instrs:
        regs.update(instr.used_registers())
        regs.update(instr.defined_registers())
    return regs


def used_predicates(instrs: Iterable[Instruction]) -> set[Predicate]:
    """All predicates read or written by ``instrs``."""
    preds: set[Predicate] = set()
    for instr in instrs:
        preds.update(instr.used_predicates())
        preds.update(instr.defined_predicates())
    return preds

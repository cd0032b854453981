"""CFG utilities shared by the verifier passes.

The combined warp-specialized program concatenates one code section per
pipeline stage behind a jump table (``finalize_pipeline``).  Analyses
operate per stage, so this module recovers that partition from the block
labelling convention (``jump_table_<n>`` dispatch blocks, ``s<n>_...``
stage sections) and offers reachability, natural-loop detection and
exact per-iteration counts over a stage's innermost loops.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.isa.program import BasicBlock, Program, layout_backedges

_STAGE_LABEL = re.compile(r"^s(\d+)_")
_JUMP_LABEL = re.compile(r"^jump_table_(\d+)$")

#: Stage id used for dispatch (jump-table) blocks and for every block of
#: an unspecialized program: "before stage dispatch".
DISPATCH = -1


def stage_of_label(label: str) -> int:
    """Pipeline stage owning a block label, or :data:`DISPATCH`."""
    match = _STAGE_LABEL.match(label)
    if match:
        return int(match.group(1))
    return DISPATCH


def strip_stage_prefix(label: str) -> str:
    """Block label without its ``s<n>_`` stage prefix."""
    return _STAGE_LABEL.sub("", label)


@dataclass
class StageSection:
    """One pipeline stage's slice of the combined program."""

    stage: int
    blocks: list[BasicBlock] = field(default_factory=list)


@dataclass
class ProgramView:
    """A program plus the CFG facts every pass needs.

    For an unspecialized program there is a single section with stage
    :data:`DISPATCH` covering every block.
    """

    program: Program
    sections: dict[int, StageSection]
    successors: dict[str, list[str]]
    reachable: set[str]

    @property
    def stages(self) -> list[int]:
        """Real stage ids (dispatch excluded), ascending."""
        return sorted(s for s in self.sections if s != DISPATCH)

    def stage_of_block(self, label: str) -> int:
        return stage_of_label(label)

    def reachable_blocks(self, stage: int) -> list[BasicBlock]:
        """The stage's blocks that are reachable from the program entry."""
        return [
            b for b in self.sections[stage].blocks if b.label in self.reachable
        ]


def build_view(program: Program) -> ProgramView:
    """Partition ``program`` into stage sections and cache CFG facts."""
    sections: dict[int, StageSection] = {}
    for block in program.blocks:
        stage = stage_of_label(block.label)
        if _JUMP_LABEL.match(block.label):
            stage = DISPATCH
        sections.setdefault(stage, StageSection(stage)).blocks.append(block)
    successors = {
        block.label: program.successors(block) for block in program.blocks
    }
    reachable = _reachable_from_entry(program, successors)
    return ProgramView(
        program=program,
        sections=sections,
        successors=successors,
        reachable=reachable,
    )


def _reachable_from_entry(
    program: Program, successors: dict[str, list[str]]
) -> set[str]:
    if not program.blocks:
        return set()
    seen = {program.blocks[0].label}
    stack = [program.blocks[0].label]
    while stack:
        label = stack.pop()
        for succ in successors.get(label, ()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


@dataclass(frozen=True)
class NaturalLoop:
    """A layout-order natural loop inside one stage section."""

    head: str
    body: tuple[str, ...]  # block labels, layout order, head..tail


def section_loops(view: ProgramView, stage: int) -> list[NaturalLoop]:
    """Loops in a stage section, by the compiler's own loop rule
    (:func:`repro.isa.program.layout_backedges`)."""
    blocks = view.sections[stage].blocks
    return [
        NaturalLoop(
            head=blocks[head].label,
            body=tuple(b.label for b in blocks[head: tail + 1]),
        )
        for head, tail in layout_backedges(blocks)
    ]


def iteration_counts(
    view: ProgramView, loop: NaturalLoop, per_block: Mapping[str, int]
) -> set[int]:
    """Counts one complete iteration of an innermost loop can add up.

    A complete iteration starts at the head and ends at a block that
    branches back to it; its count sums ``per_block`` over the blocks
    it visits.  ``Program.successors`` only links a block to its
    terminator's target and its layout fallthrough, and in an innermost
    loop a backward branch to anything but the head would close a
    smaller loop.  So the body is a DAG in layout order, and one pass
    in that order gives the exact count set reachable at each block.
    """
    head = loop.head
    pos = {label: i for i, label in enumerate(loop.body)}
    reach: dict[str, set[int]] = {head: {per_block.get(head, 0)}}
    complete: set[int] = set()
    for label in loop.body:
        counts = reach.get(label)
        if not counts:
            continue
        for succ in view.successors.get(label, ()):
            if succ == head:
                complete |= counts
            elif pos.get(succ, -1) > pos[label]:
                add = per_block.get(succ, 0)
                reach.setdefault(succ, set()).update(c + add for c in counts)
    return complete

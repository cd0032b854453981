"""Queue and barrier protocol checker: the exact count pass and its rules.

``iteration_counts`` replaced a bounded path enumerator.  The
enumerator is kept here verbatim as ``reference_paths``: a property
test checks that both give the same complete-iteration count set on
random innermost loop bodies wherever the enumerator returns, and a
unit test shows Q004 firing on a loop with more paths than the
enumerator would walk.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_program
from repro.analysis.cfg import ProgramView, iteration_counts
from repro.analysis.facts import PipelineFacts
from repro.core.specs import NamedQueueSpec, ThreadBlockSpec
from repro.isa import ProgramBuilder
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Immediate, Predicate, QueueRef, SpecialReg
from repro.isa.program import BasicBlock, Program


def reference_paths(
    view: ProgramView,
    start: str,
    within: set[str],
    max_paths: int = 256,
) -> list[list[str]] | None:
    """Acyclic paths from ``start`` staying inside ``within``.

    A path ends when it leaves ``within``, revisits a block (backedge)
    or reaches a block with no successors.  Returns ``None`` when the
    path count exceeds ``max_paths`` — callers should then fall back to
    a summary-based check rather than exploding.
    """
    paths: list[list[str]] = []
    stack: list[list[str]] = [[start]]
    while stack:
        path = stack.pop()
        if len(paths) + len(stack) > max_paths:
            return None
        label = path[-1]
        succs = [
            s for s in view.successors.get(label, ())
            if s in within and s not in path
        ]
        if not succs:
            paths.append(path)
            continue
        exits = any(
            s not in within or s in path
            for s in view.successors.get(label, ())
        )
        if exits:
            # The path may also terminate here (loop exit / backedge).
            paths.append(list(path))
        for succ in succs:
            stack.append(path + [succ])
    return paths


def _reference_counts(view, loop, per_block) -> set[int] | None:
    """Counts of the enumerated paths that end by taking the backedge."""
    paths = reference_paths(view, loop.head, set(loop.body))
    if paths is None:
        return None
    return {
        sum(per_block.get(label, 0) for label in path)
        for path in paths
        if loop.head in view.successors.get(path[-1], ())
    }


# -- the count pass equals the enumerator --------------------------------


_GUARD = Predicate(0)


@st.composite
def loop_bodies(draw):
    """A preheader, an n-block loop body closed by its last block, an
    exit block, and a per-block count for every label.

    Body branches only run forward (to a later body block or the exit),
    so the loop is innermost.
    """
    n = draw(st.integers(1, 9))
    labels = [f"s0_b{i}" for i in range(n)]
    blocks = [BasicBlock("s0_pre", [Instruction(Opcode.NOP)])]
    for i, label in enumerate(labels):
        instrs = [Instruction(Opcode.NOP)]
        if i == n - 1:
            guarded = draw(st.booleans())
            instrs.append(Instruction(
                Opcode.BRA, target=labels[0],
                guard=_GUARD if guarded else None,
            ))
        else:
            kind = draw(st.sampled_from(
                ["fall", "cond", "jump", "exit"]
            ))
            if kind == "exit":
                instrs.append(Instruction(Opcode.EXIT))
            elif kind != "fall":
                target = draw(st.sampled_from(
                    labels[i + 1:] + ["s0_out"]
                ))
                instrs.append(Instruction(
                    Opcode.BRA, target=target,
                    guard=_GUARD if kind == "cond" else None,
                ))
        blocks.append(BasicBlock(label, instrs))
    blocks.append(BasicBlock("s0_out", [Instruction(Opcode.EXIT)]))
    per_block = {
        label: draw(st.integers(0, 3)) for label in labels
    }
    return Program("loop", blocks=blocks), per_block


@settings(max_examples=200, deadline=None)
@given(loop_bodies())
def test_iteration_counts_match_path_enumeration(case):
    program, per_block = case
    facts = PipelineFacts(program)
    (loop,) = facts.innermost_loops(0)
    assert loop.head == "s0_b0"
    reference = _reference_counts(facts.view, loop, per_block)
    if reference is not None:
        assert iteration_counts(facts.view, loop, per_block) == reference


# -- a producer loop past the enumerator's path budget -------------------


DIAMONDS = 9


def _diamond_loop(b: ProgramBuilder, stage: int, diamonds: int) -> None:
    """A four-iteration loop of ``diamonds`` chained if/else diamonds:
    the left arm moves one Q0 entry, the right arm two.  Stage 0 pushes
    them, stage 1 pops them."""

    def move(k: int) -> None:
        if stage == 0:
            b.emit(Opcode.MOV, dst=QueueRef(0), srcs=[Immediate(k)])
        else:
            b.mov(QueueRef(0))

    b.label(f"s{stage}_entry")
    i = b.mov(0)
    arm = b.isetp("eq", b.special(SpecialReg.LANE_ID), 0)
    for k in range(diamonds):
        b.label(f"s{stage}_d{k}")
        b.bra(f"s{stage}_r{k}", guard=arm)
        b.label(f"s{stage}_l{k}")
        move(k)
        b.bra(f"s{stage}_j{k}")
        b.label(f"s{stage}_r{k}")
        move(k)
        move(k)
        b.label(f"s{stage}_j{k}")
        b.iadd(i, 0, dst=i)
    b.label(f"s{stage}_latch")
    b.iadd(i, 1, dst=i)
    more = b.isetp("lt", i, 4)
    b.bra(f"s{stage}_d0", guard=more)
    b.label(f"s{stage}_exit")
    b.exit()


def build_diamond_program(diamonds: int = DIAMONDS) -> Program:
    """Producer and consumer clone one diamond-chain loop, so their
    sites pair up block for block, but an iteration moves anywhere
    from ``diamonds`` to twice that many entries."""
    b = ProgramBuilder("diamonds")
    b.label("jump_table_1")
    p1 = b.isetp("ge", b.special(SpecialReg.PIPE_STAGE_ID), 1)
    b.bra("s1_entry", guard=p1)
    _diamond_loop(b, 0, diamonds)
    _diamond_loop(b, 1, diamonds)
    program = b.finish()
    program.tb_spec = ThreadBlockSpec(
        num_stages=2,
        warps_per_stage=[[0], [1]],
        stage_registers=[32, 32],
        queues=[
            NamedQueueSpec(queue_id=0, src_stage=0, dst_stage=1, size=64)
        ],
    )
    return program


def test_count_divergence_past_the_path_budget_fires_q004():
    program = build_diamond_program()
    facts = PipelineFacts(program)
    for stage in (0, 1):
        loop = facts.innermost_loops(stage)[0]
        assert reference_paths(facts.view, loop.head, set(loop.body)) is None
    # Sites pair up block for block, so only the count pass can see
    # that iterations move different entry counts.
    report = verify_program(program, facts=facts)
    counts = sorted(range(DIAMONDS, 2 * DIAMONDS + 1))
    assert {
        (d.stage, d.message) for d in report if d.rule == "WASP-Q004"
    } == {
        (stage, f"Q0 {verb} count differs across paths through loop "
                f"'d0' ({counts})")
        for stage, verb in ((0, "push"), (1, "pop"))
    }, report.to_text()

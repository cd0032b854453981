"""Dataflow framework + happens-before engine: deep-pipeline gates.

The acceptance centerpiece: an 8-slot circular-buffer pipeline (deep
modulo-N phase reuse, beyond the retired two-buffer heuristic) verifies
race-free both statically and under the dynamic SMEM sanitizer, while
each deliberate corruption — drop-arrive, phase-off-by-one,
reorder-push — is flagged by *both* layers.
"""

from __future__ import annotations

import pytest

from repro.analysis import verify_program
from repro.analysis.dataflow.framework import (
    DataflowProblem,
    Direction,
    MeetSetLattice,
    MinShiftLattice,
    dominators,
    solve,
)
from repro.analysis.facts import PipelineFacts
from repro.core.specs import NamedQueueSpec, ThreadBlockSpec
from repro.errors import DeadlockError
from repro.fexec import LaunchConfig, MemoryImage, run_kernel
from repro.fuzz.mutate import apply_mutation
from repro.isa import ProgramBuilder
from repro.isa.opcodes import Opcode
from repro.isa.operands import Immediate, QueueRef, SpecialReg

# -- framework: lattices and solver --------------------------------------


def _min_shift_problem(edges, initial):
    lattice = MinShiftLattice()
    nodes = tuple(sorted({n for e in edges for n in e[:2]}))
    succs = {n: tuple(d for s, d, _ in edges if s == n) for n in nodes}
    weights = {(s, d): w for s, d, w in edges}

    def transfer(u, v, value):
        return lattice.add(value, weights[(u, v)])

    return DataflowProblem(
        nodes=nodes,
        successors=succs,
        bottom=lattice.bottom,
        join=lattice.join,
        leq=lattice.leq,
        transfer=transfer,
        initial=initial,
    )


def test_min_shift_solver_takes_the_cheapest_path():
    # Diamond a->{b,c}->d: min-plus distance picks the 0-weight arm.
    problem = _min_shift_problem(
        [("a", "b", 1), ("a", "c", 0), ("b", "d", 0), ("c", "d", 0)],
        {"a": 0.0},
    )
    values = solve(problem)
    assert values["d"] == 0
    assert values["b"] == 1


def test_min_shift_solver_clamps_negative_cycles():
    # A negative cycle would descend forever; the lattice clamps it to
    # -inf so the fixpoint terminates.
    problem = _min_shift_problem(
        [("a", "b", -1), ("b", "a", 0), ("b", "z", 0)],
        {"a": 0.0},
    )
    values = solve(problem)
    assert values["z"] == float("-inf")


def test_unreachable_nodes_keep_bottom():
    problem = _min_shift_problem(
        [("a", "b", 2), ("x", "y", 0)], {"a": 0.0}
    )
    values = solve(problem)
    assert values["b"] == 2
    assert values["x"] == float("inf")
    assert values["y"] == float("inf")


def test_backward_direction_reverses_edges():
    lattice = MinShiftLattice()
    problem = DataflowProblem(
        nodes=("a", "b"),
        successors={"a": ("b",), "b": ()},
        bottom=lattice.bottom,
        join=lattice.join,
        leq=lattice.leq,
        transfer=lambda u, v, value: lattice.add(value, 1),
        initial={"b": 0.0},
        direction=Direction.BACKWARD,
    )
    values = solve(problem)
    assert values["a"] == 1


def test_meet_set_lattice_meets_toward_intersection():
    lattice: MeetSetLattice[str] = MeetSetLattice()
    assert lattice.join(None, frozenset({"x"})) == frozenset({"x"})
    assert lattice.join(
        frozenset({"x", "y"}), frozenset({"y", "z"})
    ) == frozenset({"y"})
    assert lattice.leq(frozenset({"x", "y"}), frozenset({"y"}))
    assert not lattice.leq(frozenset({"y"}), frozenset({"x", "y"}))


def test_dominators_diamond():
    doms = dominators(
        "e",
        ("e", "l", "r", "m"),
        {"e": ("l", "r"), "l": ("m",), "r": ("m",), "m": ()},
    )
    assert doms["m"] == frozenset({"e", "m"})
    assert doms["l"] == frozenset({"e", "l"})


# -- hand-built deep pipelines -------------------------------------------

RING_SLOTS = 8
RING_ITERS = 16  # two full trips around the ring


def build_ring_program(n: int = RING_SLOTS, iters: int = RING_ITERS):
    """N-slot circular-buffer pipeline: stage 0 fills slot ``i % n``,
    stage 1 drains it, filled/empty split barriers per slot, all empty
    barriers start credited (the producer may run ``n`` slots ahead)."""
    b = ProgramBuilder("ring8", smem_words=0)
    bases = [b.alloc_smem(f"ring{k}", 32) for k in range(n)]
    stage_sel = b.special(SpecialReg.PIPE_STAGE_ID)
    lane = b.special(SpecialReg.LANE_ID)

    b.label("jump_table_1")
    p1 = b.isetp("ge", stage_sel, 1)
    b.bra("s1_entry", guard=p1)

    b.label("s0_entry")
    i0 = b.mov(0)
    for k in range(n):
        b.label(f"s0_loop_p{k}")
        b.bar_wait(f"ring{k}_empty")
        saddr = b.iadd(lane, bases[k])
        b.sts(saddr, i0, buffer=f"ring{k}")
        b.bar_arrive(f"ring{k}_filled")
        b.iadd(i0, 1, dst=i0)
        p0 = b.isetp("lt", i0, iters)
        if k < n - 1:
            b.bra("s0_epilog", guard=p0, negated=True)
        else:
            b.bra("s0_loop_p0", guard=p0)
    b.label("s0_epilog")
    b.exit()

    b.label("s1_entry")
    i1 = b.mov(0)
    acc = b.mov(0.0)
    for k in range(n):
        b.label(f"s1_loop_p{k}")
        b.bar_wait(f"ring{k}_filled")
        saddr = b.iadd(lane, bases[k])
        val = b.lds(saddr, buffer=f"ring{k}")
        acc = b.fadd(acc, val, dst=acc)
        b.bar_arrive(f"ring{k}_empty")
        b.iadd(i1, 1, dst=i1)
        p0 = b.isetp("lt", i1, iters)
        if k < n - 1:
            b.bra("s1_epilog", guard=p0, negated=True)
        else:
            b.bra("s1_loop_p0", guard=p0)
    b.label("s1_epilog")
    out = b.iadd(lane, 512)
    b.stg(out, acc)
    b.exit()

    program = b.finish()
    program.tb_spec = ThreadBlockSpec(
        num_stages=2,
        warps_per_stage=[[0], [1]],
        stage_registers=[32, 32],
        smem_words=32 * n,
        barrier_expected={
            f"ring{k}_{kind}": 1
            for k in range(n)
            for kind in ("filled", "empty")
        },
        barrier_initial={f"ring{k}_empty": 1 for k in range(n)},
    )
    return program


def build_queue_program():
    """Two SMEM frames published through a queue: the push is the only
    edge ordering each producer STS before the consumer's LDS."""
    b = ProgramBuilder("qpub", smem_words=0)
    bases = [b.alloc_smem(f"frame{k}", 32) for k in range(2)]
    stage_sel = b.special(SpecialReg.PIPE_STAGE_ID)
    lane = b.special(SpecialReg.LANE_ID)

    b.label("jump_table_1")
    p1 = b.isetp("ge", stage_sel, 1)
    b.bra("s1_entry", guard=p1)

    b.label("s0_entry")
    for k, base in enumerate(bases):
        saddr = b.iadd(lane, base)
        b.sts(saddr, k + 1, buffer=f"frame{k}")
        b.emit(Opcode.MOV, dst=QueueRef(0), srcs=[Immediate(k)])
    b.exit()

    b.label("s1_entry")
    acc = b.mov(0.0)
    for k, base in enumerate(bases):
        b.mov(QueueRef(0))
        saddr = b.iadd(lane, base)
        val = b.lds(saddr, buffer=f"frame{k}")
        acc = b.fadd(acc, val, dst=acc)
    out = b.iadd(lane, 512)
    b.stg(out, acc)
    b.exit()

    program = b.finish()
    program.tb_spec = ThreadBlockSpec(
        num_stages=2,
        warps_per_stage=[[0], [1]],
        stage_registers=[16, 16],
        queues=[
            NamedQueueSpec(queue_id=0, src_stage=0, dst_stage=1, size=4)
        ],
        smem_words=64,
    )
    return program


def _sanitize(program):
    return run_kernel(
        program,
        MemoryImage(1 << 10),
        LaunchConfig(num_warps=2),
        collect_trace=False,
        sanitize=True,
    )


# -- acceptance: the deep ring is clean in both layers -------------------


def test_ring8_statically_race_free():
    report = verify_program(build_ring_program())
    assert report.clean, report.to_text()


def test_ring8_sanitizer_clean():
    result = _sanitize(build_ring_program())
    assert result.races == []


def test_ring8_hb_orders_every_cross_stage_pair():
    analysis = PipelineFacts(build_ring_program()).hb
    assert not analysis.racy()
    # Every slot contributes a cross-stage STS/LDS pair and the engine
    # resolves each one (nothing falls back to unresolved).
    groups = {v.group for v in analysis.verdicts}
    assert groups == {f"ring{k}" for k in range(RING_SLOTS)}
    assert not analysis.unresolved


# -- acceptance: each corruption is flagged by both layers ---------------


def test_ring8_drop_arrive_flagged_by_both_layers():
    mutant = apply_mutation(build_ring_program(), "drop-arrive")
    assert mutant is not None
    report = verify_program(mutant)
    fired = report.rules_fired()
    assert "WASP-S001" in fired and "WASP-D002" in fired
    assert report.errors
    # Dynamically the lost arrive starves the consumer's first wait.
    with pytest.raises(DeadlockError):
        _sanitize(mutant)


def test_ring8_phase_off_by_one_flagged_by_both_layers():
    mutant = apply_mutation(build_ring_program(), "phase-off-by-one")
    assert mutant is not None
    report = verify_program(mutant)
    assert "WASP-S004" in report.rules_fired()
    assert report.errors
    # The extra empty credit lets the producer refill slot 0 while the
    # consumer's generation-0 read is still outstanding: the pipeline
    # drains (no deadlock) but the sanitizer observes the overlap.
    result = _sanitize(mutant)
    assert result.races
    assert any(r.group == "ring0" for r in result.races)


def test_queue_program_clean_in_both_layers():
    program = build_queue_program()
    report = verify_program(program)
    assert report.clean, report.to_text()
    assert _sanitize(program).races == []


def test_reorder_push_flagged_by_both_layers():
    mutant = apply_mutation(build_queue_program(), "reorder-push")
    assert mutant is not None
    report = verify_program(mutant)
    assert "WASP-S001" in report.rules_fired()
    assert report.errors
    # The hoisted push publishes frame0 before the STS lands, so the
    # consumer's LDS races with the late write.
    result = _sanitize(mutant)
    assert result.races
    race = result.races[0]
    assert race.group == "frame0"
    assert race.stage_pair == frozenset({0, 1})

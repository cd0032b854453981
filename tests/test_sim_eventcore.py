"""Event-core edge cases: the wakeup heap, simultaneous and
zero-latency events, full-queue starvation, and determinism.

The broad exactness contract lives in ``test_core_differential.py``;
these tests pin the event machinery's corners directly — the cases
where an event-driven loop classically diverges from a cycle-stepped
one.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import DeadlockError
from repro.fexec import run_kernel
from repro.fexec.trace import DynamicInstr, KernelTrace, WarpTrace
from repro.fuzz.metamorphic import assert_stall_accounting
from repro.isa.opcodes import FuncUnit, InstrCategory, Opcode
from repro.sim.config import baseline_a100, wasp_gpu
from repro.sim.events import WakeupHeap
from repro.sim.gpu import make_simulator, simulate_kernel


class _Warp:
    """Stand-in with the two attributes WakeupHeap reads."""

    def __init__(self, key: int) -> None:
        self.key = key
        self.pos = 0


# -- WakeupHeap -----------------------------------------------------------


def test_heap_orders_by_time_then_key():
    heap = WakeupHeap()
    w1, w2, w3 = _Warp(1), _Warp(2), _Warp(3)
    heap.push(20.0, w3)
    heap.push(10.0, w2)
    heap.push(10.0, w1)
    assert heap.next_time() == 10.0
    assert heap.pop() is w1  # same time: lower key first
    assert heap.pop() is w2
    assert heap.next_time() == 20.0
    assert heap.pop() is w3


def test_heap_pop_due_is_insertion_order_independent():
    """Any insertion order yields the same drain order (determinism)."""
    import itertools

    warps = [_Warp(k) for k in range(4)]
    times = [5.0, 3.0, 3.0, 7.0]
    reference = None
    for perm in itertools.permutations(range(4)):
        heap = WakeupHeap()
        for i in perm:
            heap.push(times[i], warps[i])
        drained = [w.key for w in heap.pop_due(5.0)]
        if reference is None:
            reference = drained
        assert drained == reference
    assert reference == [1, 2, 0]  # time asc, then key asc; 7.0 not due


def test_heap_empty_is_infinite():
    from repro.fexec.barriers import INFINITY

    heap = WakeupHeap()
    assert heap.next_time() == INFINITY
    assert heap.pop_due(1e9) == []


# -- trace helpers --------------------------------------------------------


def _warp(warp_id, stage, instrs):
    return WarpTrace(warp_id=warp_id, pipe_stage_id=stage, instrs=instrs)


def _ldg_push(queue_id, sector):
    return DynamicInstr(
        opcode=Opcode.LDG, unit=FuncUnit.LSU_GLOBAL,
        category=InstrCategory.MEMORY,
        dst_regs=(1,), sectors=(sector,), queue_push=queue_id,
    )


def _pop(queue_id):
    return DynamicInstr(
        opcode=Opcode.MOV, unit=FuncUnit.INT,
        category=InstrCategory.QUEUE, dst_regs=(2,), queue_pop=queue_id,
    )


def _fp(dst=3, src=()):
    return DynamicInstr(
        opcode=Opcode.FFMA, unit=FuncUnit.FP,
        category=InstrCategory.COMPUTE, dst_regs=(dst,), src_regs=src,
    )


def _both_cores(traces, gpu):
    results = {}
    for core in ("reference", "event"):
        sim = make_simulator(gpu, traces, core=core)
        results[core] = sim.run()
    return results["reference"], results["event"]


def _assert_same(ref, event):
    """ref/event are SMStats from the two cores' raw runs."""
    assert ref.cycles == event.cycles
    assert ref.stall_cycles == event.stall_cycles
    assert ref.stall_spans == event.stall_spans
    assert ref.issued_total == event.issued_total
    assert ref.active_warp_cycles == event.active_warp_cycles


# -- simultaneous & zero-latency events -----------------------------------


def test_simultaneous_wakeups_one_cycle():
    """Many warps released by the same scoreboard time must re-enter
    arbitration on the same cycle, in scan order, on both cores."""
    # All warps issue an identical load chain: their completions (and
    # hence wakeups) collide on the same cycles.
    instrs = [
        DynamicInstr(
            opcode=Opcode.LDG, unit=FuncUnit.LSU_GLOBAL,
            category=InstrCategory.MEMORY, dst_regs=(1,), sectors=(0,),
        ),
        _fp(dst=3, src=(1,)),
        _fp(dst=4, src=(3,)),
    ]
    trace = KernelTrace(
        kernel_name="simul", num_warps=8, warp_width=8,
        warps=[_warp(w, 0, list(instrs)) for w in range(8)],
    )
    ref, event = _both_cores([trace], baseline_a100())
    _assert_same(ref, event)


def test_zero_latency_alu_events():
    """int_latency=0 makes scoreboard releases land on the issue cycle
    itself — the classic zero-delay event-loop corner."""
    gpu = replace(baseline_a100(), int_latency=0, fp_latency=0)
    chain = []
    for i in range(10):
        chain.append(DynamicInstr(
            opcode=Opcode.IADD, unit=FuncUnit.INT,
            category=InstrCategory.COMPUTE,
            dst_regs=(1,), src_regs=(1,),
        ))
    trace = KernelTrace(
        kernel_name="zero", num_warps=4, warp_width=8,
        warps=[_warp(w, 0, list(chain)) for w in range(4)],
    )
    ref, event = _both_cores([trace], gpu)
    _assert_same(ref, event)
    assert ref.issued_total == 40


def _eager_chain() -> KernelTrace:
    """One warp running a dependent ALU/FMA chain.

    Eight dependent links, each a latency-4 write the next link reads:
    seven eager sleeps.  Then r5 is written and read four issues later,
    exactly when it is ready: the read is issuable at ``now + 1``, so
    it does not sleep.
    """
    def iadd(dst, src):
        return DynamicInstr(
            opcode=Opcode.IADD, unit=FuncUnit.INT,
            category=InstrCategory.COMPUTE, dst_regs=(dst,),
            src_regs=src,
        )

    chain = [
        iadd(1, (1,)) if i % 2 else _fp(dst=1, src=(1,)) for i in range(8)
    ] + [_fp(dst=5), iadd(6, ()), iadd(7, ()), iadd(8, ()), iadd(9, (5,))]
    return KernelTrace(
        kernel_name="chain", num_warps=1, warp_width=8,
        warps=[_warp(0, 0, chain)],
    )


def test_eager_scoreboard_sleep_is_exact():
    """After nearly every issue of the chain the winner's next
    instruction reads the register just written, so the event core
    puts it to sleep at issue time instead of polling it on the next
    cycle.  Cycles and the SCOREBOARD stall intervals must match the
    reference, which does poll it."""
    from repro.profiling.stalls import StallCause

    trace, gpu = _eager_chain(), baseline_a100()
    sim = make_simulator(gpu, [trace], core="event")
    event = sim.run()
    ref = make_simulator(gpu, [trace], core="reference").run()
    assert sim._tel_sleep_eager == 7
    _assert_same(ref, event)
    assert event.stall_cycles[(0, StallCause.SCOREBOARD)] == 7 * 3
    assert set(event.stall_cycles) == {(0, StallCause.SCOREBOARD)}


# -- full-queue starvation ------------------------------------------------


def _starved_queue():
    """Three producers pushing six entries each through a 2-entry
    queue whose consumers first wait on a long-latency load."""
    from repro.core.specs import NamedQueueSpec, ThreadBlockSpec

    capacity = 2
    gpu = wasp_gpu(rfq_size=capacity)
    spec = ThreadBlockSpec(
        num_stages=2,
        warps_per_stage=[[0, 1, 2], [3, 4, 5]],
        stage_registers=[16, 16],
        queues=[NamedQueueSpec(0, 0, 1, size=capacity)],
    )
    producers = [
        _warp(w, 0, [_ldg_push(0, 16 * w + i) for i in range(6)])
        for w in range(3)
    ]
    consumers = [
        _warp(3 + w, 1, [
            DynamicInstr(  # long-latency load the pops depend on
                opcode=Opcode.LDG, unit=FuncUnit.LSU_GLOBAL,
                category=InstrCategory.MEMORY, dst_regs=(9,),
                sectors=(999 + w,),
            ),
            _fp(dst=8, src=(9,)),
        ] + [_pop(0) for _ in range(6)])
        for w in range(3)
    ]
    trace = KernelTrace(
        kernel_name="starve", num_warps=6, warp_width=8,
        warps=producers + consumers, tb_spec=spec,
    )
    return trace, gpu


def test_all_producers_starve_on_full_queue():
    """Every producer blocks on a full queue while the consumer sleeps
    on a long-latency dependence: the only wake signal is the heap.
    The event core must jump to the consumer's wake, replay its pops,
    and wake the producers via the full_waiters registry — landing on
    exactly the reference's cycle count."""
    trace, gpu = _starved_queue()
    ref, event = _both_cores([trace], gpu)
    _assert_same(ref, event)
    # The scenario actually exercised queue-full blocking.
    from repro.profiling.stalls import StallCause
    assert any(
        cause is StallCause.QUEUE_FULL and cycles > 0
        for (_stage, cause), cycles in ref.stall_cycles.items()
    )


@pytest.mark.parametrize("core", ["reference", "event"])
def test_finished_simulator_is_freed_by_reference_counting(
    core, monkeypatch
):
    """A retired block drops its warps (each warp points back at it)
    and its queues' and barriers' wake hooks (bound methods of the
    event core), so a finished simulator and its blocks go as soon as
    the caller drops it, with the cyclic collector off."""
    import gc
    import weakref

    from repro.sim.sm import SMSimulator

    blocks = []
    place = SMSimulator._place

    def recording_place(self, trace, now):
        place(self, trace, now)
        blocks.append(weakref.ref(self._resident[-1]))

    monkeypatch.setattr(SMSimulator, "_place", recording_place)
    trace, gpu = _starved_queue()
    gc.collect()
    gc.disable()
    try:
        sim = make_simulator(gpu, [trace, trace], core=core)
        sim.run()
        if core == "event":
            assert sim._tel_reg_queue_full > 0  # hooks were installed
        alive = weakref.ref(sim)
        del sim
        assert alive() is None
        assert len(blocks) == 2
        assert all(block() is None for block in blocks)
    finally:
        gc.enable()


def test_deadlock_parity_same_cycle():
    """When no wake exists anywhere, both cores must report the same
    deadlock at the same cycle (the message embeds it)."""
    trace = KernelTrace(
        kernel_name="dead", num_warps=2, warp_width=8,
        warps=[
            _warp(0, 0, [_fp(dst=3), _pop(0)]),
            _warp(1, 0, [_fp(dst=4), _pop(1)]),
        ],
    )
    errors = {}
    for core in ("reference", "event"):
        with pytest.raises(DeadlockError) as excinfo:
            make_simulator(wasp_gpu(), [trace], core=core).run()
        errors[core] = str(excinfo.value)
    assert errors["reference"] == errors["event"]


# -- determinism & accounting --------------------------------------------


def test_event_core_is_deterministic(gather_setup):
    program, image_factory, launch, _ = gather_setup
    traces = run_kernel(program, image_factory(), launch).traces
    first = simulate_kernel(traces, wasp_gpu(), core="event")
    second = simulate_kernel(traces, wasp_gpu(), core="event")
    assert first.cycles == second.cycles
    assert first.stall_cycles == second.stall_cycles
    assert first.stall_spans == second.stall_spans


def test_event_core_stall_accounting(stream_setup, tile_setup):
    for setup in (stream_setup, tile_setup):
        program, image_factory, launch, _ = setup
        traces = run_kernel(program, image_factory(), launch).traces
        for gpu in (baseline_a100(), wasp_gpu()):
            result = simulate_kernel(traces, gpu, core="event")
            assert_stall_accounting(result, context="eventcore")


def test_compiled_priority_matches_priority_key():
    """The allocation-free hot path agrees with the reference keys."""
    import itertools

    from repro.core.scheduling import (
        SchedulingPolicy, WarpSchedState, compiled_priority, priority_key,
    )

    grid = itertools.product(
        (0, 3), (0, 1, 2), (False, True), (False, True),
        (-1.0, 5.0), (0, 9), (None, 0, 3),
    )
    for key, stage, ready, full, last, age, greedy in grid:
        state = WarpSchedState(
            warp_key=key, pipe_stage_id=stage, incoming_ready=ready,
            incoming_full=full, last_issued=last, age=age,
        )
        for policy in SchedulingPolicy:
            assert compiled_priority(policy)(
                key, stage, ready, full, last, age, greedy
            ) == priority_key(policy, state, greedy), (policy, state)

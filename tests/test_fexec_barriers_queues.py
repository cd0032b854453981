"""Barrier and functional queue primitives (unit level).

The barrier tests drive the shared barrier classes the way the
functional machine does: every arrival lands at time 0, and a wait
passes when its pass time is finite.
"""

import numpy as np

from repro.fexec.barriers import INFINITY, TimedArriveWait, TimedSyncBarrier
from repro.fexec.queues import FunctionalQueue


def test_functional_queue_fifo_and_counters():
    queue = FunctionalQueue(0)
    queue.push(np.array([1.0]))
    queue.push(np.array([2.0]))
    assert queue.can_pop()
    assert queue.pop()[0] == 1.0
    assert queue.pop()[0] == 2.0
    assert not queue.can_pop()
    assert queue.total_pushed == 2
    assert queue.total_popped == 2
    assert len(queue) == 0


def test_arrive_wait_generations():
    barrier = TimedArriveWait("b", expected=2)
    assert barrier.wait_pass_time(0) == INFINITY
    barrier.arrive(0.0)
    barrier.arrive(0.0)
    assert barrier.wait_pass_time(0) < INFINITY
    barrier.record_wait(0)
    # next generation needs 2 more
    assert barrier.wait_pass_time(0) == INFINITY
    # other warp's first wait still ok
    assert barrier.wait_pass_time(1) < INFINITY
    barrier.arrive(0.0)
    barrier.arrive(0.0)
    assert barrier.wait_pass_time(0) < INFINITY


def test_arrive_wait_initial_credit_self_starts():
    barrier = TimedArriveWait("b", expected=3, initial_credit=3)
    assert barrier.wait_pass_time(0) < INFINITY
    barrier.record_wait(0)
    assert barrier.wait_pass_time(0) == INFINITY


def test_sync_barrier_phases():
    barrier = TimedSyncBarrier("tb", num_warps=2)
    barrier.arrive(0, 0.0)
    assert barrier.pass_time(0) == INFINITY
    barrier.arrive(1, 0.0)
    assert barrier.pass_time(0) < INFINITY
    assert barrier.pass_time(1) < INFINITY
    barrier.record_pass(0)
    barrier.record_pass(1)
    # Phase 2 starts empty.
    assert barrier.pass_time(0) == INFINITY
    barrier.arrive(0, 0.0)
    barrier.arrive(0, 0.0)  # idempotent within a phase
    assert barrier.pass_time(0) == INFINITY
    barrier.arrive(1, 0.0)
    assert barrier.pass_time(0) < INFINITY


def test_sync_barrier_single_warp_trivially_passes():
    barrier = TimedSyncBarrier("tb", num_warps=1)
    barrier.arrive(0, 0.0)
    assert barrier.pass_time(0) < INFINITY


def test_arrive_wait_threshold_counts_initial_credit():
    # The sanitizer joins the first ``threshold`` arrivals of a wait.
    barrier = TimedArriveWait("b", expected=2, initial_credit=2)
    assert barrier.threshold(0) == 0
    barrier.record_wait(0)
    assert barrier.threshold(0) == 2
    assert barrier.threshold(1) == 0

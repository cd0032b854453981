"""Timing queues (RFQ) and timed barriers."""

import pytest

from repro.errors import SimulationError
from repro.fexec.barriers import (
    INFINITY,
    BarrierFile,
    TimedArriveWait,
    TimedSyncBarrier,
)
from repro.sim.config import QueueImpl
from repro.sim.queues import QueueChannel, QueueFile


def test_channel_fifo_order():
    chan = QueueChannel(0, 0, capacity=4)
    chan.push(10.0)
    chan.push(5.0)
    assert chan.head_ready_time() == 10.0
    assert chan.pop() == 10.0
    assert chan.pop() == 5.0


def test_channel_capacity_and_flags():
    chan = QueueChannel(0, 0, capacity=2)
    assert chan.is_empty() and not chan.is_full()
    chan.push(1.0)
    chan.push(1.0)
    assert chan.is_full() and not chan.can_push()
    with pytest.raises(SimulationError):
        chan.push(1.0)
    chan.pop()
    assert chan.can_push()


def test_channel_pop_empty_rejected():
    chan = QueueChannel(0, 0, capacity=1)
    with pytest.raises(SimulationError):
        chan.pop()


def test_channel_has_ready_data_respects_time():
    chan = QueueChannel(0, 0, capacity=2)
    chan.push(100.0)
    assert not chan.has_ready_data(50.0)
    assert chan.has_ready_data(100.0)


def test_queue_file_per_slice_channels():
    qf = QueueFile({0: 8}, QueueImpl.RFQ)
    a = qf.channel(0, 0)
    b = qf.channel(0, 1)
    assert a is not b
    assert qf.channel(0, 0) is a
    assert a.capacity == 8
    assert len(qf.channels()) == 2


def test_arrive_wait_generation_counting():
    barrier = TimedArriveWait("b", expected=2)
    assert barrier.wait_pass_time(0) == INFINITY
    barrier.arrive(10.0)
    barrier.arrive(20.0)
    assert barrier.wait_pass_time(0) == 20.0
    barrier.record_wait(0)
    # Second generation needs four arrivals total.
    assert barrier.wait_pass_time(0) == INFINITY
    barrier.arrive(30.0)
    barrier.arrive(40.0)
    assert barrier.wait_pass_time(0) == 40.0


def test_arrive_wait_initial_credit():
    barrier = TimedArriveWait("b", expected=2, initial_credit=2)
    assert barrier.wait_pass_time(0) == 0.0
    barrier.record_wait(0)
    assert barrier.wait_pass_time(0) == INFINITY


def test_arrive_wait_future_arrivals_sorted():
    barrier = TimedArriveWait("b", expected=1)
    barrier.arrive(50.0)
    barrier.arrive(10.0)  # e.g. a fast TMA completion
    assert barrier.wait_pass_time(0) == 10.0


def test_sync_barrier_releases_at_last_arrival():
    barrier = TimedSyncBarrier("tb", num_warps=2)
    barrier.arrive(0, 5.0)
    assert barrier.pass_time(0) == INFINITY
    barrier.arrive(1, 9.0)
    assert barrier.pass_time(0) == 9.0
    barrier.record_pass(0)
    barrier.record_pass(1)
    # Next phase starts fresh.
    assert barrier.pass_time(0) == INFINITY


def test_sync_barrier_arrival_idempotent_per_phase():
    barrier = TimedSyncBarrier("tb", num_warps=2)
    barrier.arrive(0, 1.0)
    barrier.arrive(0, 2.0)
    assert barrier.pass_time(0) == INFINITY  # still waiting for warp 1


def test_barrier_file_uses_spec_metadata():
    bf = BarrierFile(
        num_warps=4, expected={"f": 3}, initial={"f": 3}
    )
    barrier = bf.arrive_wait("f")
    assert barrier.expected == 3
    assert barrier.initial_credit == 3
    assert bf.arrive_wait("f") is barrier
    sync = bf.sync("tb")
    assert sync.num_warps == 4

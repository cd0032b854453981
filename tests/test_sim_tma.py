"""TMA engine: pacing, back-pressure, two-phase gathers, barriers."""

from repro.fexec.barriers import INFINITY, TimedArriveWait
from repro.fexec.trace import TmaJob
from repro.sim.config import GPUConfig
from repro.sim.memory import MemorySystem
from repro.sim.queues import QueueChannel
from repro.sim.tma import TmaEngine


def _engine():
    config = GPUConfig()
    memory = MemorySystem(config)
    return TmaEngine(config, memory), memory


def _job(mode, vector_sectors, data_vector_sectors=None, smem_words=0):
    return TmaJob(
        mode=mode, queue=None, barrier=None,
        vector_sectors=tuple(vector_sectors),
        data_vector_sectors=(
            None if data_vector_sectors is None
            else tuple(data_vector_sectors)
        ),
        smem_words=smem_words,
    )


def _stream_job(vectors: int):
    return _job("stream", [(k,) for k in range(vectors)])


def test_stream_job_fills_channel():
    engine, _ = _engine()
    chan = QueueChannel(0, 0, capacity=16)
    engine.submit(0.0, _stream_job(8), chan, None)
    engine.advance(100.0)
    assert chan.occupancy() == 8
    assert engine.vectors_issued == 8
    assert not engine.busy()


def test_pacing_by_issue_rate():
    engine, _ = _engine()
    chan = QueueChannel(0, 0, capacity=16)
    engine.submit(0.0, _stream_job(8), chan, None)
    engine.advance(3.0)  # rate 1/cycle: only vectors at t=0..3 issue
    assert engine.vectors_issued == 4
    assert engine.next_event_time() == 4.0


def test_full_queue_backpressures_engine():
    engine, _ = _engine()
    chan = QueueChannel(0, 0, capacity=2)
    engine.submit(0.0, _stream_job(8), chan, None)
    engine.advance(100.0)
    assert chan.occupancy() == 2
    assert engine.busy()
    chan.pop()
    chan.pop()
    engine.advance(200.0)
    assert chan.occupancy() == 2  # two more issued
    assert engine.vectors_issued == 4


def test_gather_two_phase_ordering():
    engine, memory = _engine()
    chan = QueueChannel(0, 0, capacity=16)
    job = _job("gather", [(1,)], data_vector_sectors=[(2, 3)])
    engine.submit(0.0, job, chan, None)
    engine.advance(0.0)
    # Phase 1 issued; entry not yet pushed (data pending).
    assert chan.occupancy() == 0
    assert engine.next_event_time() < INFINITY
    engine.advance(engine.next_event_time())
    assert chan.occupancy() == 1
    # The entry's ready time includes both dependent fetch phases.
    assert chan.head_ready_time() > 2 * memory.config.dram_latency


def test_gather_reserves_entries_during_phase2():
    engine, _ = _engine()
    chan = QueueChannel(0, 0, capacity=2)
    job = _job(
        "gather",
        [(k,) for k in range(4)],
        data_vector_sectors=[(10 + k,) for k in range(4)],
    )
    engine.submit(0.0, job, chan, None)
    engine.advance(10.0)
    # Only two phase-1 requests may be outstanding (capacity 2).
    assert engine.vectors_issued == 2


def test_tile_job_arrives_barrier_at_completion():
    engine, _ = _engine()
    barrier = TimedArriveWait("filled", expected=1)
    job = _job("tile", [(k,) for k in range(4)], smem_words=64)
    engine.submit(0.0, job, None, barrier.arrive)
    engine.advance(1_000_000.0)
    assert len(barrier.arrival_times) == 1
    assert barrier.arrival_times[0] > 0


def test_empty_job_completes_immediately():
    engine, _ = _engine()
    barrier = TimedArriveWait("filled", expected=1)
    job = _job("tile", [])
    engine.submit(5.0, job, None, barrier.arrive)
    assert barrier.arrival_times == [5.0]
    assert not engine.busy()


def test_idle_engine_next_event_is_infinite():
    engine, _ = _engine()
    assert engine.next_event_time() == INFINITY

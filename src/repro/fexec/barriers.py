"""Barrier state for every execution layer: arrive/wait and BAR.SYNC.

Arrive/wait semantics follow CudaDMA (paper Section II-B): ``BAR.ARRIVE``
registers arrival and continues; the *n*-th ``BAR.WAIT`` by a warp passes
once ``initial_credit + arrivals >= n * expected``, where ``expected`` is
the number of warps that arrive per generation.  Buffers that start empty
are modelled with an initial credit (the paper: "barrier A is initially
set as arrived").

Arrivals are time-stamped, since they can land in the future (a TMA tile
transfer arrives at its completion time), so each barrier keeps a sorted
list of arrival times; the *n*-th wait by a warp passes at the time its
``threshold`` of ``n * expected - initial_credit`` arrivals have landed.
The functional machine (:mod:`repro.fexec.machine`) lands every arrival
at time 0, so a wait passes there exactly when its pass time is finite;
the SM cores (:mod:`repro.sim`) and the perf model's dataflow walk use
the same classes with real times.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any

INFINITY = float("inf")


@dataclass
class TimedArriveWait:
    """One named arrive/wait barrier with timed generation counting."""

    barrier_id: str
    expected: int = 1
    initial_credit: int = 0
    arrival_times: list[float] = field(default_factory=list)
    wait_counts: dict[int, int] = field(default_factory=dict)
    tb_index: int = 0
    profiler: Any = None  # PipelineProfiler when arrivals are traced
    # Wake registration (the event core, repro.sim.sm_event, and the
    # perf model's dataflow walk): whatever waits with no pass time yet
    # (needs more arrivals) registers here; the installed ``wake_hook``
    # is called with the list and the arrival time on every arrival,
    # and drains the list.  The reference core leaves both untouched.
    waiters: list = field(default_factory=list)
    wake_hook: Any = None

    def arrive(self, time: float) -> None:
        bisect.insort(self.arrival_times, time)
        if self.profiler is not None:
            self.profiler.record_barrier(self.tb_index, self.barrier_id,
                                         time)
        if self.waiters:
            self.wake_hook(self.waiters, time)

    def threshold(self, warp_key: int) -> int:
        """Arrivals the next wait by ``warp_key`` needs (<= 0: none)."""
        n = self.wait_counts.get(warp_key, 0) + 1
        return n * self.expected - self.initial_credit

    def wait_pass_time(self, warp_key: int) -> float:
        """When the next wait by ``warp_key`` passes (may be inf)."""
        needed = self.threshold(warp_key)
        if needed <= 0:
            return 0.0
        if needed > len(self.arrival_times):
            return INFINITY
        return self.arrival_times[needed - 1]

    def record_wait(self, warp_key: int) -> None:
        self.wait_counts[warp_key] = self.wait_counts.get(warp_key, 0) + 1


@dataclass
class TimedSyncBarrier:
    """All-warps thread-block barrier with timed phases."""

    barrier_id: str
    num_warps: int
    phase_arrivals: dict[int, list[float]] = field(default_factory=dict)
    warp_phase: dict[int, int] = field(default_factory=dict)
    arrived: set = field(default_factory=set)
    tb_index: int = 0
    profiler: Any = None  # PipelineProfiler when arrivals are traced
    # Wake registration (see TimedArriveWait above).
    waiters: list = field(default_factory=list)
    wake_hook: Any = None

    def arrive(self, warp_key: int, time: float) -> None:
        phase = self.warp_phase.get(warp_key, 0)
        if (warp_key, phase) in self.arrived:
            return
        self.arrived.add((warp_key, phase))
        self.phase_arrivals.setdefault(phase, []).append(time)
        if self.profiler is not None:
            self.profiler.record_barrier(self.tb_index, self.barrier_id,
                                         time)
        if self.waiters:
            self.wake_hook(self.waiters, time)

    def pass_time(self, warp_key: int) -> float:
        """When this warp's current sync releases (inf if not yet)."""
        phase = self.warp_phase.get(warp_key, 0)
        times = self.phase_arrivals.get(phase, ())
        if len(times) < self.num_warps:
            return INFINITY
        return max(times)

    def record_pass(self, warp_key: int) -> None:
        self.warp_phase[warp_key] = self.warp_phase.get(warp_key, 0) + 1


class BarrierFile:
    """All barriers of one resident thread block.

    ``wake_hook``, when given, is installed on every barrier the file
    creates (see ``TimedArriveWait.waiters``).
    """

    def __init__(
        self,
        num_warps: int,
        expected: dict[str, int],
        initial: dict[str, int],
        profiler: Any = None,
        tb_index: int = 0,
        wake_hook: Any = None,
    ) -> None:
        self._num_warps = num_warps
        self._expected = expected
        self._initial = initial
        self._profiler = profiler
        self._tb_index = tb_index
        self._wake_hook = wake_hook
        self._aw: dict[str, TimedArriveWait] = {}
        self._sync: dict[str, TimedSyncBarrier] = {}

    def arrive_wait(self, barrier_id: str) -> TimedArriveWait:
        barrier = self._aw.get(barrier_id)
        if barrier is None:
            barrier = TimedArriveWait(
                barrier_id,
                expected=self._expected.get(barrier_id, 1),
                initial_credit=self._initial.get(barrier_id, 0),
                tb_index=self._tb_index,
                profiler=self._profiler,
                wake_hook=self._wake_hook,
            )
            self._aw[barrier_id] = barrier
        return barrier

    def sync(self, barrier_id: str) -> TimedSyncBarrier:
        barrier = self._sync.get(barrier_id)
        if barrier is None:
            barrier = TimedSyncBarrier(
                barrier_id,
                num_warps=self._num_warps,
                tb_index=self._tb_index,
                profiler=self._profiler,
                wake_hook=self._wake_hook,
            )
            self._sync[barrier_id] = barrier
        return barrier

    def arrival_counts(self) -> dict[str, int]:
        """Arrivals per arrive/wait barrier, in creation order."""
        return {bid: len(b.arrival_times) for bid, b in self._aw.items()}

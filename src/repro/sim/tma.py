"""TMA / WASP-TMA offload engine timing model (Section III-E).

A configuration instruction hands the engine a *job*
(:class:`~repro.fexec.trace.TmaJob`): an ordered stream of warp-wide
vector requests.  The engine issues vectors at a fixed rate
without consuming processing-block issue slots.  RFQ-destined vectors
acquire a queue entry before issuing (the paper: "WASP-TMA global-RFQ
instructions acquire multiple entries, delaying issue until they are
available"), so a full queue back-pressures the engine.

Gather jobs are two-phase (Figure 8c): the index fetch must complete
before the dependent data fetch is issued.  Phase-2 requests are kept in
a pending FIFO and submitted when their index data lands, so the shared
bandwidth servers always see requests in nondecreasing time order — a
requirement of the deterministic queueing model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.fexec.barriers import INFINITY
from repro.fexec.trace import TmaJob
from repro.sim.config import GPUConfig
from repro.sim.memory import MemorySystem
from repro.sim.queues import QueueChannel


@dataclass
class _InFlight:
    """One in-flight offload job."""

    job: TmaJob
    channel: QueueChannel | None
    on_complete: Callable[[float], None] | None
    next_vector: int = 0
    next_issue_time: float = 0.0
    last_completion: float = 0.0
    # Gather phase 2: (index-ready time, vector id) in vector order.
    pending_phase2: deque = field(default_factory=deque)

    def issue_done(self) -> bool:
        return self.next_vector >= self.job.num_vectors

    def fully_done(self) -> bool:
        return self.issue_done() and not self.pending_phase2


class TmaEngine:
    """Per-SM offload engine shared by all resident thread blocks."""

    def __init__(self, config: GPUConfig, memory: MemorySystem) -> None:
        self._config = config
        self._memory = memory
        self._jobs: list[_InFlight] = []
        self.vectors_issued = 0
        self.jobs_started = 0

    def submit(
        self,
        now: float,
        job: TmaJob,
        channel: QueueChannel | None,
        on_complete: Callable[[float], None] | None,
    ) -> None:
        """Accept a job from a TMA configuration instruction."""
        self.jobs_started += 1
        if not job.num_vectors:
            if on_complete is not None:
                on_complete(now)
            return
        self._jobs.append(_InFlight(
            job, channel, on_complete,
            next_issue_time=now, last_completion=now,
        ))

    # -- engine stepping ------------------------------------------------

    def advance(self, now: float) -> None:
        """Issue every request whose time has come."""
        if not self._jobs:
            return
        rate = self._config.tma_vectors_per_cycle
        still_active: list[_InFlight] = []
        for flight in self._jobs:
            self._advance_phase1(flight, now, rate)
            self._advance_phase2(flight, now)
            if flight.fully_done():
                if flight.on_complete is not None:
                    flight.on_complete(flight.last_completion)
                    flight.on_complete = None
            else:
                still_active.append(flight)
        # In place: the event core tests this list's truthiness.
        self._jobs[:] = still_active

    def _advance_phase1(
        self, flight: _InFlight, now: float, rate: float
    ) -> None:
        two_phase = flight.job.data_vector_sectors is not None
        while not flight.issue_done() and flight.next_issue_time <= now:
            if flight.channel is not None and not flight.channel.can_push():
                # Back-pressure (the paper: "delaying issue until
                # entries are available"): retry once the consumer pops.
                flight.next_issue_time = now + 1
                return
            issue_time = flight.next_issue_time
            sectors = flight.job.vector_sectors[flight.next_vector]
            completion = self._memory.access_global(issue_time, sectors)
            self.vectors_issued += 1
            if two_phase:
                # Acquire the queue entry now; data follows in phase 2.
                # The reservation lives on the channel so concurrent
                # jobs sharing it cannot over-commit.
                if flight.channel is not None:
                    flight.channel.reserve()
                flight.pending_phase2.append((completion, flight.next_vector))
            else:
                self._finish_vector(flight, completion)
            flight.next_vector += 1
            flight.next_issue_time += 1.0 / rate

    def _advance_phase2(self, flight: _InFlight, now: float) -> None:
        data_vector_sectors = flight.job.data_vector_sectors
        while flight.pending_phase2 and flight.pending_phase2[0][0] <= now:
            assert data_vector_sectors is not None  # only gathers queue
            index_ready, vector = flight.pending_phase2.popleft()
            data_sectors = data_vector_sectors[vector]
            completion = self._memory.access_global(index_ready, data_sectors)
            self._finish_vector(flight, completion, reserved=True)

    def _finish_vector(
        self, flight: _InFlight, completion: float, reserved: bool = False
    ) -> None:
        smem_words = flight.job.smem_words_per_vector
        if smem_words:
            # Charge SMEM bandwidth at data arrival; the write-latency
            # portion is folded into the completion below.
            completion = self._memory.access_smem(completion, smem_words)
        if flight.channel is not None:
            if reserved:
                flight.channel.push_reserved(completion)
            else:
                flight.channel.push(completion)
        flight.last_completion = max(flight.last_completion, completion)

    def next_event_time(self) -> float:
        """Earliest time the engine wants to run again (inf if idle)."""
        best = INFINITY
        for flight in self._jobs:
            if not flight.issue_done():
                best = min(best, flight.next_issue_time)
            if flight.pending_phase2:
                best = min(best, flight.pending_phase2[0][0])
        return best

    def busy(self) -> bool:
        return bool(self._jobs)

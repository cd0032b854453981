"""Coupled-dataflow walk: the performance model's timing engine.

The model predicts cycles without running the cycle-stepped simulator.
It walks each warp's functional trace in *dependence order* — a
heap-scheduled PERT traversal over the dependence graph formed by
register scoreboards, queue push/pop edges (with capacity
backpressure, i.e. Little's law materialised per channel), barrier
edges, the per-warp outstanding-load limit, and TMA completions —
while replaying memory requests through the *real* simulator
components (:class:`repro.sim.memory.MemorySystem` caches and
token-bucket bandwidth servers, the timed barrier classes).  What it
deliberately drops is per-cycle issue arbitration: every warp issues
the moment its dependences allow, as if the SM had unbounded issue
slots.  That makes the walk linear in trace length instead of linear
in cycles, and exact whenever the kernel is bound by dependences,
bandwidth, queue capacity, or barriers rather than by issue-port
contention (``ISSUE_PORT``/``NO_ELIGIBLE`` are the model's blind
spots; see DESIGN.md §6d).

Determinism requirement: the bandwidth servers are deterministic FIFO
queues and must see nondecreasing submission times.  The walk
guarantees this by never executing an actor whose computed start time
lies beyond the earliest heap entry — it re-queues the actor at its
start time instead (strict re-push).  Stall attribution survives
re-queues through a separate ``charge_from`` mark per actor: the gap
``start - charge_from`` is charged to the binding dependence once the
instruction finally executes, no matter how many re-queues or
wait-list parks happened in between.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.analysis.perfmodel.bounds import StageWork
from repro.core.specs import slice_of
from repro.fexec.barriers import INFINITY, BarrierFile, TimedArriveWait
from repro.fexec.trace import DynamicInstr, KernelTrace, TmaJob
from repro.profiling.stalls import StallCause
from repro.sim.config import GPUConfig, QueueImpl
from repro.sim.memory import MemorySystem
from repro.sim.occupancy import Occupancy, trace_occupancy
from repro.sim.sm import (
    OP_BAR_ARRIVE, OP_BAR_SYNC, OP_BAR_WAIT, OP_LDG, OP_LDGSTS, OP_SMEM,
    OP_STG, OP_TMA, SMEM_POP_EXTRA, SMEM_PUSH_EXTRA, Op, OpDecoder,
)


@dataclass
class ChannelState:
    """One queue channel's history during the walk.

    ``ready`` holds the data-ready time of every entry ever pushed (in
    push order); ``pop_times`` the issue time of every pop.  Capacity
    backpressure is resolved against this history: push number ``k``
    must wait for pop number ``k - capacity``.  Residency statistics
    feed the Little's-law bound report.
    """

    capacity: int
    ready: list[float] = field(default_factory=list)
    pop_times: list[float] = field(default_factory=list)
    pushes: int = 0
    pops: int = 0
    reserved: int = 0
    wait_push: list["WarpActor | TmaActor"] = field(default_factory=list)
    wait_pop: list["WarpActor | TmaActor"] = field(default_factory=list)
    push_times: list[float] = field(default_factory=list)

    def can_push(self) -> bool:
        return (self.pushes + self.reserved - self.pops) < self.capacity

    def occupied_residency(self) -> float:
        """Total slot-cycles entries spent in the channel."""
        total = 0.0
        for index, popped in enumerate(self.pop_times):
            if index < len(self.push_times):
                total += max(0.0, popped - self.push_times[index])
        return total


@dataclass
class ChannelTraffic:
    """Aggregated per-queue traffic over all slices and thread blocks."""

    queue_id: int
    capacity: int
    channels: int = 0
    pushes: int = 0
    pops: int = 0
    #: Total slot-cycles occupied by entries (push to pop), summed over
    #: channels; divided by entries it is the mean residency Little's
    #: law needs.
    residency: float = 0.0

    @property
    def mean_residency(self) -> float:
        return self.residency / self.pops if self.pops else 0.0


@dataclass
class TBState:
    """Shared structures of one resident thread block."""

    trace: KernelTrace
    start: float
    barriers: BarrierFile
    channels: dict[tuple[int, int], ChannelState] = field(
        default_factory=dict
    )
    live: int = 0

    def channel(
        self, queue_id: int, slice_id: int, capacity: int
    ) -> ChannelState:
        key = (queue_id, slice_id)
        chan = self.channels.get(key)
        if chan is None:
            chan = self.channels[key] = ChannelState(capacity)
        return chan


@dataclass
class WarpActor:
    """One warp's walk state."""

    tb: TBState
    #: The warp's records, decoded as the SM cores decode them.
    ops: list[Op]
    #: The work counters of the warp's stage, shared by its warps.
    work: StageWork
    slice_id: int
    key: int
    t: float
    charge_from: float
    pc: int = 0
    scoreboard: dict[int, float] = field(default_factory=dict)
    outstanding: list[float] = field(default_factory=list)
    sync_marked: bool = False
    async_done: float = 0.0
    extra: int = 0
    #: Cause recorded when the actor parks on a wait-list; charged when
    #: the instruction finally executes (the re-entry check may no
    #: longer see the resolved condition as binding).
    park_cause: StallCause | None = None


@dataclass
class TmaActor:
    """A submitted TMA job walking its vectors through memory."""

    tb: TBState
    job: TmaJob
    chan: ChannelState | None
    barrier: TimedArriveWait | None
    t: float
    vec: int = 0
    phase2: list[tuple[float, int]] = field(default_factory=list)
    last_completion: float = 0.0


class DataflowWalk:
    """Run the coupled-dataflow traversal over one kernel's traces."""

    def __init__(
        self,
        gpu: GPUConfig,
        traces: list[KernelTrace],
        occupancy: Occupancy | None = None,
    ) -> None:
        if not traces:
            raise ValueError("no thread blocks to model")
        self.gpu = gpu
        self.traces = traces
        first = traces[0]
        self.spec = first.tb_spec
        self.warp_width = first.warp_width
        self.occupancy = occupancy or trace_occupancy(gpu, traces)
        self.memory = MemorySystem(gpu)
        self.smem_queue = gpu.features.queue_impl is QueueImpl.SMEM
        self._decoder = OpDecoder(gpu)
        self._heap: list[tuple[float, int, WarpActor | TmaActor]] = []
        self._nkey = 0
        self._pending = list(traces)
        self._all_tbs: list[TBState] = []
        self._live_tbs = 0
        self.max_t = 0.0
        #: (pipe stage, cause) -> predicted critical-chain gap cycles.
        self.stalls: dict[tuple[int, StallCause], float] = {}
        #: pipe stage -> the work its warps executed, counted as the
        #: walk executes it (the bound report's input).
        self.stage_work: dict[int, StageWork] = {}
        self.cycles = 0.0
        self._ran = False

    # -- public API ------------------------------------------------------

    def run(self) -> float:
        """Walk every trace; returns (and stores) predicted cycles."""
        if self._ran:
            return self.cycles
        self._ran = True
        limit = self.occupancy.max_resident_tbs
        while self._pending and self._live_tbs < limit:
            self._admit(0.0)
        while self._heap:
            t, _, actor = heapq.heappop(self._heap)
            if isinstance(actor, TmaActor):
                self._step_tma(actor, t)
            else:
                self._step_warp(actor, t)
        self.cycles = max(self.max_t, self.memory.drain_time())
        return self.cycles

    def channel_stats(self) -> dict[int, "ChannelTraffic"]:
        """Per-queue traffic totals after :meth:`run` (summed over the
        per-slice channels of every thread block)."""
        merged: dict[int, ChannelTraffic] = {}
        for tb in self._all_tbs:
            for (queue_id, _slice), chan in tb.channels.items():
                agg = merged.get(queue_id)
                if agg is None:
                    agg = merged[queue_id] = ChannelTraffic(
                        queue_id=queue_id, capacity=chan.capacity
                    )
                agg.channels += 1
                agg.pushes += chan.pushes
                agg.pops += chan.pops
                agg.residency += chan.occupied_residency()
        return merged

    # -- scheduling ------------------------------------------------------

    def _push(self, actor: WarpActor | TmaActor, t: float) -> None:
        self._nkey += 1
        heapq.heappush(self._heap, (t, self._nkey, actor))

    def _wake(
        self, waiters: list[WarpActor | TmaActor], t: float
    ) -> None:
        while waiters:
            actor = waiters.pop()
            self._push(actor, max(actor.t, t))

    def _admit(self, start: float) -> None:
        trace = self._pending.pop(0)
        spec = trace.tb_spec
        tb = TBState(
            trace=trace,
            start=start,
            # Parked barrier waiters wake at the arrival time.
            barriers=BarrierFile(
                trace.num_warps,
                spec.barrier_expected if spec is not None else {},
                spec.barrier_initial if spec is not None else {},
                wake_hook=self._wake,
            ),
        )
        self._all_tbs.append(tb)
        for warp_trace in trace.warps:
            stage = warp_trace.pipe_stage_id
            work = self.stage_work.get(stage)
            if work is None:
                work = self.stage_work[stage] = StageWork(stage=stage)
            self._nkey += 1
            actor = WarpActor(
                tb=tb,
                ops=self._decoder.ops(warp_trace.instrs),
                work=work,
                slice_id=slice_of(spec, warp_trace.warp_id),
                key=self._nkey,
                t=start,
                charge_from=start,
            )
            if actor.ops:
                tb.live += 1
                self._push(actor, start)
        self._live_tbs += 1
        if tb.live == 0:
            self._finish_tb(tb, start)

    def _finish_tb(self, tb: TBState, t: float) -> None:
        self._live_tbs -= 1
        if self._pending and self._live_tbs < self.occupancy.max_resident_tbs:
            self._admit(t)

    # -- accounting ------------------------------------------------------

    def _charge(self, stage: int, cause: StallCause, amount: float) -> None:
        if amount > 0.0:
            key = (stage, cause)
            self.stalls[key] = self.stalls.get(key, 0.0) + amount

    # -- warp stepping ---------------------------------------------------

    def _step_warp(self, w: WarpActor, tmin: float) -> None:
        gpu = self.gpu
        t0 = max(w.t, tmin)
        if w.extra > 0:
            # SMEM-queue bookkeeping occupies real issue slots.
            w.t = t0 + w.extra
            w.extra = 0
            t0 = w.t
            w.charge_from = max(w.charge_from, t0)
        if w.pc >= len(w.ops):
            self._retire_warp(w)
            return
        op = w.ops[w.pc]
        kind, _lat, _cat, _tfp, src_regs, pop, push, di = op

        # Resolve every dependence to the earliest legal start, keeping
        # the *binding* one for attribution.
        start = t0
        cause: StallCause | None = None

        ready = t0
        for reg in src_regs:
            at = w.scoreboard.get(reg)
            if at is not None and at > ready:
                ready = at
        if ready > start:
            start = ready
            cause = StallCause.SCOREBOARD

        chan_pop: ChannelState | None = None
        if pop is not None:
            chan_pop = w.tb.channel(pop, w.slice_id, gpu.rfq_size)
            index = chan_pop.pops
            if chan_pop.pushes <= index:
                # Producer has not pushed this entry yet: park until it
                # does.  charge_from survives the park.
                w.t = start
                w.park_cause = StallCause.QUEUE_EMPTY
                chan_pop.wait_pop.append(w)
                return
            head = chan_pop.ready[index]
            if head > start:
                start = head
                cause = StallCause.QUEUE_EMPTY

        chan_push: ChannelState | None = None
        if push is not None:
            chan_push = w.tb.channel(push, w.slice_id, gpu.rfq_size)
            if not chan_push.can_push():
                slot_index = (
                    chan_push.pushes + chan_push.reserved
                    - chan_push.capacity
                )
                if len(chan_push.pop_times) > slot_index:
                    freed = chan_push.pop_times[slot_index]
                    if freed > start:
                        start = freed
                        cause = StallCause.QUEUE_FULL
                else:
                    w.t = start
                    w.park_cause = StallCause.QUEUE_FULL
                    chan_push.wait_push.append(w)
                    return

        barrier = None
        if kind == OP_LDG:
            live = [x for x in w.outstanding if x > start]
            if len(live) >= gpu.max_outstanding_loads_per_warp:
                live.sort()
                need = live[
                    len(live) - gpu.max_outstanding_loads_per_warp
                ]
                if need > start:
                    start = need
                    cause = StallCause.MSHR
            w.outstanding = [x for x in w.outstanding if x > start]
        elif kind == OP_BAR_WAIT:
            barrier = w.tb.barriers.arrive_wait(di.barrier_id)
            pass_time = barrier.wait_pass_time(w.key)
        elif kind == OP_BAR_SYNC:
            barrier = w.tb.barriers.sync(di.barrier_id)
            if not w.sync_marked:
                # Arrival is recorded at the first attempt, matching
                # the simulator's semantics.
                barrier.arrive(w.key, start)
                w.sync_marked = True
            pass_time = barrier.pass_time(w.key)
        if barrier is not None:
            # A wait with no pass time yet parks on the barrier until
            # an arrival wakes it.
            if pass_time == INFINITY:
                w.t = start
                w.park_cause = StallCause.BARRIER_WAIT
                barrier.waiters.append(w)
                return
            if pass_time > start:
                start = pass_time
                cause = StallCause.BARRIER_WAIT

        # Strict re-push: executing now would submit memory requests at
        # ``start`` while earlier heap entries still owe earlier
        # submissions.  Defer; the gap is charged at execution via
        # charge_from, so nothing is lost or double-counted.
        if self._heap and start > self._heap[0][0]:
            w.t = start
            self._push(w, start)
            return

        if cause is None and start > w.charge_from:
            cause = w.park_cause or StallCause.SCOREBOARD
        if cause is not None:
            self._charge(w.work.stage, cause, start - w.charge_from)
        w.park_cause = None
        self._exec_instr(w, op, start, chan_pop, chan_push)

    def _retire_warp(self, w: WarpActor) -> None:
        w.tb.live -= 1
        if w.tb.live == 0:
            self._finish_tb(w.tb, w.t)

    def _exec_instr(
        self,
        w: WarpActor,
        op: Op,
        now: float,
        chan_pop: ChannelState | None,
        chan_push: ChannelState | None,
    ) -> None:
        kind, latency, _cat, _tfp, _src, pop, push, di = op
        memory = self.memory
        work = w.work
        slots = 1
        completion = now + latency
        if kind == OP_LDG:
            completion = memory.access_global(now, di.sectors)
            work.global_sectors += len(di.sectors)
            w.outstanding.append(completion)
            if chan_push is not None:
                entry_ready = completion
                if self.smem_queue:
                    entry_ready = memory.access_smem(
                        completion, self.warp_width
                    )
                    w.extra += SMEM_PUSH_EXTRA
                    slots += SMEM_PUSH_EXTRA
                    work.smem_words += self.warp_width
                work.queue_pushes[push] = work.queue_pushes.get(push, 0) + 1
                chan_push.ready.append(entry_ready)
                chan_push.push_times.append(now)
                chan_push.pushes += 1
                self._wake(chan_push.wait_pop, now)
        elif kind == OP_STG:
            memory.access_global(now, di.sectors)
            work.global_sectors += len(di.sectors)
        elif kind == OP_LDGSTS:
            landed = memory.access_global(now, di.sectors)
            landed = memory.access_smem(landed, di.smem_words)
            work.global_sectors += len(di.sectors)
            work.smem_words += di.smem_words
            w.async_done = max(w.async_done, landed)
        elif kind == OP_SMEM:
            completion = memory.access_smem(now, di.smem_words)
            work.smem_words += di.smem_words
        elif kind == OP_TMA:
            self._submit_tma(w, di, now)
        elif kind == OP_BAR_ARRIVE:
            w.tb.barriers.arrive_wait(di.barrier_id).arrive(
                max(now, w.async_done)
            )
        elif kind == OP_BAR_WAIT:
            w.tb.barriers.arrive_wait(di.barrier_id).record_wait(w.key)
        elif kind == OP_BAR_SYNC:
            w.tb.barriers.sync(di.barrier_id).record_pass(w.key)
            w.sync_marked = False

        if chan_pop is not None:
            head = chan_pop.ready[chan_pop.pops]
            chan_pop.pops += 1
            chan_pop.pop_times.append(now)
            self._wake(chan_pop.wait_push, now)
            data_ready = max(now, head)
            if self.smem_queue:
                data_ready = memory.access_smem(data_ready, self.warp_width)
                w.extra += SMEM_POP_EXTRA
                slots += SMEM_POP_EXTRA
                work.smem_words += self.warp_width
            completion = max(completion, data_ready + self.gpu.int_latency)

        for reg in di.dst_regs:
            w.scoreboard[reg] = completion

        work.issue_slots += slots
        w.pc += 1
        w.t = now + 1.0
        w.charge_from = w.t
        self.max_t = max(self.max_t, w.t)
        if w.pc >= len(w.ops) and w.extra == 0:
            self._retire_warp(w)
        else:
            self._push(w, w.t)

    # -- TMA actors ------------------------------------------------------

    def _submit_tma(self, w: WarpActor, di: DynamicInstr, now: float) -> None:
        job = di.tma_job
        assert job is not None  # every TMA record carries its job
        work = w.work
        work.tma_vectors += job.num_vectors
        work.global_sectors += job.total_sectors
        work.smem_words += job.smem_words
        chan: ChannelState | None = None
        queue_id = job.queue
        if queue_id is not None:
            chan = w.tb.channel(queue_id, w.slice_id, self.gpu.rfq_size)
            # The record pushes nothing itself: the engine pushes one
            # entry per vector.
            work.queue_pushes[queue_id] = (
                work.queue_pushes.get(queue_id, 0) + job.num_vectors
            )
        barrier = (
            w.tb.barriers.arrive_wait(job.barrier)
            if job.barrier is not None
            else None
        )
        if not job.num_vectors:
            if barrier is not None:
                barrier.arrive(now)
            return
        actor = TmaActor(
            tb=w.tb,
            job=job,
            chan=chan,
            barrier=barrier,
            t=now,
            last_completion=now,
        )
        w.tb.live += 1
        self._push(actor, now)

    def _step_tma(self, a: TmaActor, tmin: float) -> None:
        job = a.job
        rate = self.gpu.tma_vectors_per_cycle
        data_vectors = job.data_vector_sectors
        per_vec_smem = job.smem_words_per_vector
        t = max(a.t, tmin)
        if a.phase2 and a.phase2[0][0] <= t:
            assert data_vectors is not None  # only gathers queue
            index_ready, vec = a.phase2.pop(0)
            sectors = data_vectors[vec]
            completion = self.memory.access_global(index_ready, sectors)
            self._finish_tma_vector(a, completion, per_vec_smem, True)
            self._requeue_tma(a, t)
            return
        if a.vec < job.num_vectors:
            if a.chan is not None and not a.chan.can_push():
                slot_index = (
                    a.chan.pushes + a.chan.reserved - a.chan.capacity
                )
                if len(a.chan.pop_times) > slot_index:
                    a.t = max(t, a.chan.pop_times[slot_index])
                    self._push(a, a.t)
                else:
                    a.t = t
                    a.chan.wait_push.append(a)
                return
            sectors = job.vector_sectors[a.vec]
            completion = self.memory.access_global(t, sectors)
            if data_vectors is not None:
                if a.chan is not None:
                    a.chan.reserved += 1
                a.phase2.append((completion, a.vec))
                a.phase2.sort()
            else:
                self._finish_tma_vector(a, completion, per_vec_smem, False)
            a.vec += 1
            a.t = t + 1.0 / rate
            self._requeue_tma(a, a.t)
            return
        if a.phase2:
            a.t = a.phase2[0][0]
            self._push(a, a.t)
            return
        if a.barrier is not None:
            a.barrier.arrive(a.last_completion)
        self.max_t = max(self.max_t, a.last_completion)
        a.tb.live -= 1
        if a.tb.live == 0:
            self._finish_tb(a.tb, a.last_completion)

    def _requeue_tma(self, a: TmaActor, t: float) -> None:
        nxt = INFINITY
        if a.vec < a.job.num_vectors:
            nxt = a.t
        if a.phase2:
            nxt = min(nxt, a.phase2[0][0])
        if nxt == INFINITY:
            nxt = a.t
        a.t = nxt
        self._push(a, nxt)

    def _finish_tma_vector(
        self,
        a: TmaActor,
        completion: float,
        per_vec_smem: int,
        reserved: bool,
    ) -> None:
        if per_vec_smem:
            completion = self.memory.access_smem(completion, per_vec_smem)
        if a.chan is not None:
            if reserved:
                a.chan.reserved -= 1
            a.chan.ready.append(completion)
            a.chan.push_times.append(completion)
            a.chan.pushes += 1
            self._wake(a.chan.wait_pop, completion)
        a.last_completion = max(a.last_completion, completion)

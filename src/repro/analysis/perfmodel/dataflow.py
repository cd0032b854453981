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

from repro.fexec.trace import DynamicInstr, KernelTrace, WarpTrace
from repro.isa.opcodes import FuncUnit, Opcode
from repro.profiling.stalls import StallCause
from repro.sim.barriers import TimedArriveWait, TimedSyncBarrier
from repro.sim.config import GPUConfig, QueueImpl
from repro.sim.memory import MemorySystem
from repro.sim.occupancy import Occupancy, trace_occupancy
from repro.sim.sm import _SMEM_POP_EXTRA, _SMEM_PUSH_EXTRA

_INF = float("inf")

_GATHER_OPS = (Opcode.TMA_TILE, Opcode.TMA_STREAM, Opcode.TMA_GATHER)


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
    channels: dict[tuple[int, int], ChannelState] = field(
        default_factory=dict
    )
    arrive_wait: dict[str, TimedArriveWait] = field(default_factory=dict)
    sync: dict[str, TimedSyncBarrier] = field(default_factory=dict)
    #: (kind, barrier id) -> parked actors; kind is "aw" or "sync".
    barrier_waiters: dict[tuple[str, str], list["WarpActor"]] = field(
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
    instrs: list[DynamicInstr]
    stage: int
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
    job: dict[str, object]
    chan: ChannelState | None
    barrier: TimedArriveWait | None
    stage: int
    key: int
    t: float
    barrier_id: str | None = None
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
        self._heap: list[tuple[float, int, WarpActor | TmaActor]] = []
        self._nkey = 0
        self._pending = list(traces)
        self._all_tbs: list[TBState] = []
        self._live_tbs = 0
        self.max_t = 0.0
        #: (pipe stage, cause) -> predicted critical-chain gap cycles.
        self.stalls: dict[tuple[int, StallCause], float] = {}
        #: pipe stage -> issue-slot demand (instructions + SMEM-queue
        #: bookkeeping slots), for the issue roofline.
        self.issues_by_stage: dict[int, float] = {}
        #: pipe stage -> TMA vectors its jobs moved (offloaded traffic).
        self.tma_vectors_by_stage: dict[int, int] = {}
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
        tb = TBState(trace=trace, start=start)
        self._all_tbs.append(tb)
        spec = trace.tb_spec
        for warp_trace in trace.warps:
            slice_id = self._slice_of(spec, warp_trace)
            self._nkey += 1
            actor = WarpActor(
                tb=tb,
                instrs=warp_trace.instrs,
                stage=warp_trace.pipe_stage_id,
                slice_id=slice_id,
                key=self._nkey,
                t=start,
                charge_from=start,
            )
            if actor.instrs:
                tb.live += 1
                self._push(actor, start)
        self._live_tbs += 1
        if tb.live == 0:
            self._finish_tb(tb, start)

    @staticmethod
    def _slice_of(spec: object, warp_trace: WarpTrace) -> int:
        if spec is None:
            return warp_trace.warp_id
        stage = spec.stage_of_warp(warp_trace.warp_id)  # type: ignore[attr-defined]
        warps = spec.warps_in_stage(stage)  # type: ignore[attr-defined]
        return list(warps).index(warp_trace.warp_id)

    def _finish_tb(self, tb: TBState, t: float) -> None:
        self._live_tbs -= 1
        if self._pending and self._live_tbs < self.occupancy.max_resident_tbs:
            self._admit(t)

    # -- accounting ------------------------------------------------------

    def _charge(self, stage: int, cause: StallCause, amount: float) -> None:
        if amount > 0.0:
            key = (stage, cause)
            self.stalls[key] = self.stalls.get(key, 0.0) + amount

    def _count_issue(self, stage: int, slots: float = 1.0) -> None:
        self.issues_by_stage[stage] = (
            self.issues_by_stage.get(stage, 0.0) + slots
        )

    # -- barrier helpers -------------------------------------------------

    def _aw_barrier(self, tb: TBState, barrier_id: str) -> TimedArriveWait:
        barrier = tb.arrive_wait.get(barrier_id)
        if barrier is None:
            spec = tb.trace.tb_spec
            expected = 1
            initial = 0
            if spec is not None:
                expected = spec.barrier_expected.get(barrier_id, 1)
                initial = spec.barrier_initial.get(barrier_id, 0)
            barrier = TimedArriveWait(
                barrier_id, expected=expected, initial_credit=initial
            )
            tb.arrive_wait[barrier_id] = barrier
        return barrier

    def _sync_barrier(self, tb: TBState, barrier_id: str) -> TimedSyncBarrier:
        barrier = tb.sync.get(barrier_id)
        if barrier is None:
            barrier = TimedSyncBarrier(
                barrier_id, num_warps=tb.trace.num_warps
            )
            tb.sync[barrier_id] = barrier
        return barrier

    def _bar_waiters(
        self, tb: TBState, key: tuple[str, str]
    ) -> list[WarpActor]:
        return tb.barrier_waiters.setdefault(key, [])

    # -- warp stepping ---------------------------------------------------

    def _step_warp(self, w: WarpActor, tmin: float) -> None:
        gpu = self.gpu
        t0 = max(w.t, tmin)
        if w.extra > 0:
            # SMEM-queue bookkeeping occupies real issue slots.
            self._count_issue(w.stage, float(w.extra))
            w.t = t0 + w.extra
            w.extra = 0
            t0 = w.t
            w.charge_from = max(w.charge_from, t0)
        if w.pc >= len(w.instrs):
            self._retire_warp(w)
            return
        di = w.instrs[w.pc]

        # Resolve every dependence to the earliest legal start, keeping
        # the *binding* one for attribution.
        start = t0
        cause: StallCause | None = None

        ready = t0
        for reg in di.src_regs:
            at = w.scoreboard.get(reg)
            if at is not None and at > ready:
                ready = at
        if ready > start:
            start = ready
            cause = StallCause.SCOREBOARD

        chan_pop: ChannelState | None = None
        if di.queue_pop is not None:
            chan_pop = w.tb.channel(
                di.queue_pop, w.slice_id, gpu.rfq_size
            )
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
        if di.queue_push is not None:
            chan_push = w.tb.channel(
                di.queue_push, w.slice_id, gpu.rfq_size
            )
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

        if di.opcode is Opcode.LDG:
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

        if di.opcode is Opcode.BAR_WAIT:
            barrier = self._aw_barrier(w.tb, di.barrier_id)
            count = barrier.wait_counts.get(w.key, 0) + 1
            needed = count * barrier.expected - barrier.initial_credit
            if needed > len(barrier.arrival_times):
                w.t = start
                w.park_cause = StallCause.BARRIER_WAIT
                self._bar_waiters(w.tb, ("aw", di.barrier_id)).append(w)
                return
            if needed > 0:
                pass_time = barrier.arrival_times[needed - 1]
                if pass_time > start:
                    start = pass_time
                    cause = StallCause.BARRIER_WAIT

        if di.opcode is Opcode.BAR_SYNC:
            barrier = self._sync_barrier(w.tb, di.barrier_id)
            if not w.sync_marked:
                # Arrival is recorded at the first attempt, matching
                # the simulator's semantics.
                barrier.arrive(w.key, start)
                w.sync_marked = True
                self._wake_sync(w.tb, di.barrier_id, start)
            phase = barrier.warp_phase.get(w.key, 0)
            arrivals = barrier.phase_arrivals.get(phase, [])
            if len(arrivals) < barrier.num_warps:
                w.t = start
                w.park_cause = StallCause.BARRIER_WAIT
                self._bar_waiters(
                    w.tb, ("sync", di.barrier_id)
                ).append(w)
                return
            pass_time = max(arrivals)
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
            self._charge(w.stage, cause, start - w.charge_from)
        w.park_cause = None
        self._exec_instr(w, di, start, chan_pop, chan_push)

    def _wake_sync(self, tb: TBState, barrier_id: str, t: float) -> None:
        waiters = tb.barrier_waiters.get(("sync", barrier_id))
        if waiters:
            generic: list[WarpActor | TmaActor] = list(waiters)
            waiters.clear()
            self._wake(generic, t)

    def _retire_warp(self, w: WarpActor) -> None:
        w.tb.live -= 1
        if w.tb.live == 0:
            self._finish_tb(w.tb, w.t)

    def _exec_instr(
        self,
        w: WarpActor,
        di: DynamicInstr,
        now: float,
        chan_pop: ChannelState | None,
        chan_push: ChannelState | None,
    ) -> None:
        gpu = self.gpu
        completion = now + gpu.int_latency
        if di.unit is FuncUnit.FP:
            completion = now + gpu.fp_latency
        elif di.unit is FuncUnit.TENSOR:
            completion = now + gpu.tensor_latency

        op = di.opcode
        if op is Opcode.LDG:
            completion = self.memory.access_global(now, di.sectors)
            w.outstanding.append(completion)
            if chan_push is not None:
                entry_ready = completion
                if self.smem_queue:
                    entry_ready = self.memory.access_smem(
                        completion, self.warp_width
                    )
                    w.extra += _SMEM_PUSH_EXTRA
                chan_push.ready.append(entry_ready)
                chan_push.push_times.append(now)
                chan_push.pushes += 1
                self._wake(chan_push.wait_pop, now)
        elif op is Opcode.STG:
            self.memory.access_global(now, di.sectors)
        elif op is Opcode.LDGSTS:
            landed = self.memory.access_global(now, di.sectors)
            landed = self.memory.access_smem(landed, di.smem_words)
            w.async_done = max(w.async_done, landed)
        elif op in (Opcode.LDS, Opcode.STS):
            completion = self.memory.access_smem(now, di.smem_words)
        elif op in _GATHER_OPS:
            self._submit_tma(w, di, now)
        elif op is Opcode.BAR_ARRIVE:
            barrier = self._aw_barrier(w.tb, di.barrier_id)
            barrier.arrive(max(now, w.async_done))
            self._wake_barrier(w.tb, di.barrier_id, now)
        elif op is Opcode.BAR_WAIT:
            barrier = self._aw_barrier(w.tb, di.barrier_id)
            barrier.record_wait(w.key)
        elif op is Opcode.BAR_SYNC:
            barrier = self._sync_barrier(w.tb, di.barrier_id)
            barrier.record_pass(w.key)
            w.sync_marked = False

        if di.queue_pop is not None and chan_pop is not None:
            head = chan_pop.ready[chan_pop.pops]
            chan_pop.pops += 1
            chan_pop.pop_times.append(now)
            self._wake(chan_pop.wait_push, now)
            data_ready = max(now, head)
            if self.smem_queue:
                data_ready = self.memory.access_smem(
                    data_ready, self.warp_width
                )
                w.extra += _SMEM_POP_EXTRA
            completion = max(completion, data_ready + gpu.int_latency)

        if chan_push is not None and op is not Opcode.LDG:
            chan_push.ready.append(completion)
            chan_push.push_times.append(now)
            chan_push.pushes += 1
            self._wake(chan_push.wait_pop, now)

        for reg in di.dst_regs:
            w.scoreboard[reg] = completion

        self._count_issue(w.stage)
        w.pc += 1
        w.t = now + 1.0
        w.charge_from = w.t
        self.max_t = max(self.max_t, w.t)
        if w.pc >= len(w.instrs) and w.extra == 0:
            self._retire_warp(w)
        else:
            self._push(w, w.t)

    def _wake_barrier(self, tb: TBState, barrier_id: str, t: float) -> None:
        waiters = tb.barrier_waiters.get(("aw", barrier_id))
        if waiters:
            generic: list[WarpActor | TmaActor] = list(waiters)
            waiters.clear()
            self._wake(generic, t)

    # -- TMA actors ------------------------------------------------------

    def _submit_tma(self, w: WarpActor, di: DynamicInstr, now: float) -> None:
        job = dict(di.tma_job or {})
        chan: ChannelState | None = None
        queue_id = job.get("queue")
        if queue_id is not None:
            chan = w.tb.channel(
                int(queue_id),  # type: ignore[arg-type]
                w.slice_id,
                self.gpu.rfq_size,
            )
        barrier_id = job.get("barrier")
        barrier = (
            self._aw_barrier(w.tb, str(barrier_id))
            if barrier_id is not None
            else None
        )
        vectors = job.get("vector_sectors") or []
        self.tma_vectors_by_stage[w.stage] = (
            self.tma_vectors_by_stage.get(w.stage, 0)
            + len(vectors)  # type: ignore[arg-type]
        )
        if not vectors:
            if barrier is not None:
                barrier.arrive(now)
                self._wake_barrier(w.tb, str(barrier_id), now)
            return
        self._nkey += 1
        actor = TmaActor(
            tb=w.tb,
            job=job,
            chan=chan,
            barrier=barrier,
            stage=w.stage,
            key=self._nkey,
            t=now,
            barrier_id=(
                str(barrier_id) if barrier_id is not None else None
            ),
            last_completion=now,
        )
        w.tb.live += 1
        self._push(actor, now)

    def _step_tma(self, a: TmaActor, tmin: float) -> None:
        job = a.job
        rate = self.gpu.tma_vectors_per_cycle
        vectors = job.get("vector_sectors") or []
        data_vectors = job.get("data_vector_sectors")
        smem_words = int(job.get("smem_words") or 0)
        per_vec_smem = 0
        if smem_words and vectors:
            per_vec_smem = max(
                1, smem_words // len(vectors)  # type: ignore[arg-type]
            )
        t = max(a.t, tmin)
        if a.phase2 and a.phase2[0][0] <= t:
            index_ready, vec = a.phase2.pop(0)
            sectors = tuple(
                data_vectors[vec]  # type: ignore[index]
            )
            completion = self.memory.access_global(index_ready, sectors)
            self._finish_tma_vector(a, completion, per_vec_smem, True)
            self._requeue_tma(a, t)
            return
        if a.vec < len(vectors):  # type: ignore[arg-type]
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
            sectors = tuple(vectors[a.vec])  # type: ignore[index]
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
            if a.barrier_id is not None:
                self._wake_barrier(a.tb, a.barrier_id, a.last_completion)
        self.max_t = max(self.max_t, a.last_completion)
        a.tb.live -= 1
        if a.tb.live == 0:
            self._finish_tb(a.tb, a.last_completion)

    def _requeue_tma(self, a: TmaActor, t: float) -> None:
        vectors = a.job.get("vector_sectors") or []
        nxt = _INF
        if a.vec < len(vectors):  # type: ignore[arg-type]
            nxt = a.t
        if a.phase2:
            nxt = min(nxt, a.phase2[0][0])
        if nxt is _INF:
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

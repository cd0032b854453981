"""The SM core loop: cycle-stepped issue with event skipping.

Each processing block issues at most one instruction per cycle from a
ready warp chosen by the active scheduling policy.  Issue is
work-conserving: thread blocks are placed starting from the least-
loaded processing block (so a warp count that does not divide P cannot
strand a permanently empty block), and a block whose own warps are all
blocked lends its issue slot to a warp that lost arbitration on
another block — a slot never idles while an eligible warp exists
anywhere on the SM.  Warps block on register scoreboards, queue
occupancy, barriers, and the per-warp outstanding-load limit; every
blocking condition resolves either to a known future wake time (memory
completions are computed eagerly) or to "another warp must act", in
which case the blocked warp registers itself on the queue/barrier and
is woken by the unblocking event.  When no warp can issue, time skips
to the earliest known wake.

Stall attribution (``repro.profiling``): every active warp-cycle is
charged either to an issue or to one :class:`StallCause`.  Because the
loop skips idle time, attribution is interval-based and lazy — each
warp carries an accounting mark (``prof_mark``) and the cause in force
since that mark (``prof_cause``); the span is charged only when the
cause *changes* or the warp issues, so the always-on cost is one int
comparison per issue attempt.  The optional
:class:`~repro.profiling.PipelineProfiler` additionally records an
event trace and queue/memory timelines; all its hook sites are guarded
by ``is not None`` checks.

Predecoded records: trace records never change once emitted, and the
functional machine shares one record between every execution of most
instructions.  ``_place`` decodes each distinct record once per run
into an op tuple (opcode kind, latency, category index, tensor/FP flag
and the fields issue checks read), keyed by record identity; warps
step through those tuples, so the issue path branches on small ints,
never on Enum identity.  :class:`OpDecoder` is the one decode of trace
records: the perf model's dataflow walk steps the same ops.  Issue and
stall counters are int-indexed lists, converted into :class:`SMStats`'
Enum-keyed dicts once, at the end of the run (``_harvest_stats``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.core.mapping import map_warps, rotate_mapping
from repro.core.scheduling import (
    SchedulingPolicy, compiled_priority, needs_queue_bits,
)
from repro.core.specs import ThreadBlockSpec, slice_of
from repro.errors import DeadlockError, SimulationError
from repro.fexec.barriers import INFINITY, BarrierFile
from repro.fexec.trace import DynamicInstr, KernelTrace
from repro.isa.opcodes import FuncUnit, InstrCategory, Opcode
from repro.profiling.profiler import PipelineProfiler
from repro.profiling.stalls import TIMELINE_BUCKET, StallCause
from repro.sim.config import GPUConfig, QueueImpl
from repro.sim.memory import MemorySystem
from repro.sim.occupancy import Occupancy, trace_occupancy
from repro.sim.queues import QueueFile
from repro.sim.results import SMStats, TimelineBucket
from repro.sim.tma import TmaEngine
from repro.telemetry.registry import TELEMETRY

_TENSOR_FP_UNITS = (FuncUnit.TENSOR, FuncUnit.FP)
# Opcode kinds: the opcodes issue checks or execution treat specially.
# Every other opcode is OP_ALU (0), which skips all of those branches.
(OP_ALU, OP_LDG, OP_STG, OP_LDGSTS, OP_SMEM, OP_TMA, OP_BAR_ARRIVE,
 OP_BAR_WAIT, OP_BAR_SYNC) = range(9)
_KINDS = {
    Opcode.LDG: OP_LDG, Opcode.STG: OP_STG, Opcode.LDGSTS: OP_LDGSTS,
    Opcode.LDS: OP_SMEM, Opcode.STS: OP_SMEM,
    Opcode.TMA_TILE: OP_TMA, Opcode.TMA_STREAM: OP_TMA,
    Opcode.TMA_GATHER: OP_TMA,
    Opcode.BAR_ARRIVE: OP_BAR_ARRIVE, Opcode.BAR_WAIT: OP_BAR_WAIT,
    Opcode.BAR_SYNC: OP_BAR_SYNC,
}
#: Issue slots an SMEM-implemented queue adds after a pop (the LDS and
#: its address as one synthetic slot plus the LDS) and after an LDG's
#: push (the STS plus buffer bookkeeping).  A TMA configuration record
#: adds none: its engine pushes without issue slots.
SMEM_POP_EXTRA = 1
SMEM_PUSH_EXTRA = 2
# Counter indices: categories and stall causes by position.
_CATEGORIES = tuple(InstrCategory)
_CATEGORY_INDEX = {c: i for i, c in enumerate(_CATEGORIES)}
_QUEUE_CATEGORY = _CATEGORY_INDEX[InstrCategory.QUEUE]
_CAUSES = tuple(StallCause)
_SCOREBOARD = _CAUSES.index(StallCause.SCOREBOARD)
_QUEUE_EMPTY = _CAUSES.index(StallCause.QUEUE_EMPTY)
_QUEUE_FULL = _CAUSES.index(StallCause.QUEUE_FULL)
_MSHR = _CAUSES.index(StallCause.MSHR)
_BARRIER_WAIT = _CAUSES.index(StallCause.BARRIER_WAIT)
_ISSUE_PORT = _CAUSES.index(StallCause.ISSUE_PORT)
_NO_ELIGIBLE = _CAUSES.index(StallCause.NO_ELIGIBLE)
#: A predecoded record: ``(kind, latency, category index, tensor/FP
#: flag, src_regs, queue_pop, queue_push, record)``.
Op = tuple
# Pipeline-agnostic arbitration (baseline hardware): plain GTO order
# regardless of the configured policy.
_GTO_KEY = compiled_priority(SchedulingPolicy.GTO)


class OpDecoder:
    """Decodes trace records into op tuples, once per distinct record.

    The one record decode of the simulator and the perf model's
    dataflow walk.  Ops are memoized by record identity, so the caller
    must keep the decoded traces alive while it uses the decoder.
    """

    def __init__(self, config: GPUConfig) -> None:
        self._latencies = {
            FuncUnit.FP: config.fp_latency,
            FuncUnit.TENSOR: config.tensor_latency,
        }
        self._int_latency = config.int_latency
        self._ops: dict[int, Op] = {}
        self._heads: dict[tuple[int, int, int], tuple] = {}

    def ops(self, records: list[DynamicInstr]) -> list[Op]:
        """``records``' op tuples, decoding each new record once."""
        ops = list(map(self._ops.get, map(id, records)))
        if None in ops:
            decode = self._decode
            known = self._ops.get
            ops = [op or known(id(r)) or decode(r)
                   for op, r in zip(ops, records)]
        return ops

    def _decode(self, record: DynamicInstr) -> Op:
        # The first four fields depend only on the record's opcode,
        # unit and category: memoized on those members' identities,
        # since hashing an Enum member runs Python code.
        opcode, unit, category = record.opcode, record.unit, record.category
        key = (id(opcode), id(unit), id(category))
        head = self._heads.get(key)
        if head is None:
            head = self._heads[key] = (
                _KINDS.get(opcode, OP_ALU),
                self._latencies.get(unit, self._int_latency),
                _CATEGORY_INDEX[category],
                unit in _TENSOR_FP_UNITS,
            )
        op = head + (
            record.src_regs, record.queue_pop, record.queue_push, record,
        )
        self._ops[id(record)] = op
        return op


# eq=False: thread blocks and warps are identity objects (the event
# core keeps them in sets and removes them from lists by identity);
# field-wise comparison would be wrong as well as slow.
@dataclass(eq=False)
class _ResidentTB:
    """One thread block currently executing on the SM."""

    tb_index: int
    trace: KernelTrace
    barriers: BarrierFile
    queues: QueueFile
    warps: list["_WarpRun"] = field(default_factory=list)

    def done(self) -> bool:
        return all(w.done for w in self.warps)

    def release(self) -> None:
        """Break the block's reference cycles once it has retired.

        ``warps`` and each warp's ``tb`` point at each other, and the
        event core's wake hooks on the block's queues and barriers are
        bound methods of the simulator, so without this a finished
        simulator would wait for the cyclic collector.
        """
        self.warps.clear()
        for chan in self.queues.channels():
            chan.wake_hook = None
        self.barriers.release()


@dataclass(eq=False)
class _WarpRun:
    """Timing state of one warp."""

    key: int
    tb: _ResidentTB
    #: The warp's records, predecoded.
    ops: list[Op]
    pipe_stage_id: int
    slice_id: int
    pb: int
    age: int
    pc: int = 0
    done: bool = False
    scoreboard: dict[int, float] = field(default_factory=dict)
    outstanding: list[float] = field(default_factory=list)
    last_issued: float = -1.0
    wake_at: float = 0.0
    pending_extra: int = 0
    sync_marked: bool = False
    async_copy_done: float = 0.0  # LDGSTS data-landing fence for arrives
    # Stall attribution: time accounted so far and the cause in force
    # since then (an index into _CAUSES; None while the warp is
    # issuing/eligible), and the stall counters of the warp's stage.
    prof_mark: float = 0.0
    prof_cause: int | None = None
    stalls: list[float] = field(default_factory=list)
    # Index of this warp within its processing block's warp list —
    # i.e. its place in the reference core's arbitration scan order.
    # Maintained by the event core (repro.sim.sm_event), which wakes
    # warps out of order and must re-establish the scan order; the
    # reference core iterates the list directly and never reads it.
    pos: int = 0
    # The warp's incoming queue channels (queues whose dst_stage is
    # this warp's stage, at this warp's slice), resolved once at
    # placement so the scheduler's per-cycle scoreboard scan skips the
    # spec walk and channel lookups.
    in_channels: tuple = ()

    def current(self) -> Op | None:
        """The op tuple at ``pc``, or ``None`` past the end."""
        if self.pc < len(self.ops):
            return self.ops[self.pc]
        return None


class SMSimulator:
    """Simulates one SM executing the thread blocks of one kernel."""

    #: Metric-family prefix for this core's harvested telemetry
    #: (``repro_<subsystem>_...``); the event core overrides it.
    _tel_subsystem = "refcore"

    def __init__(
        self,
        config: GPUConfig,
        traces: list[KernelTrace],
        occupancy: Occupancy | None = None,
        profiler: PipelineProfiler | None = None,
    ) -> None:
        if not traces:
            raise SimulationError("no thread blocks to simulate")
        self.config = config
        self.traces = traces
        self.profiler = profiler
        self.memory = MemorySystem(config)
        self.tma = TmaEngine(config, self.memory)
        self.stats = SMStats()
        # The memory system records the L1/L2/DRAM service mix for
        # the event trace (covers TMA traffic too); the Figure-3
        # utilization timeline keeps its issue-time semantics below.
        self.memory.profiler = profiler
        self.spec: ThreadBlockSpec | None = traces[0].tb_spec
        self.occupancy = occupancy or trace_occupancy(config, traces)
        # Hot-loop constants, resolved once (the config is frozen).
        features = config.features
        self._policy = features.scheduling_policy
        self._pipeline_aware = features.pipeline_scheduling
        self._smem_queue = features.queue_impl is QueueImpl.SMEM
        self._max_loads = config.max_outstanding_loads_per_warp
        self._int_latency = config.int_latency
        self._key_fn = compiled_priority(self._policy)
        self._queue_bits = (
            self._pipeline_aware and needs_queue_bits(self._policy)
        )
        self._pending = list(traces)
        self._resident: list[_ResidentTB] = []
        self._pbs: list[list[_WarpRun]] = [
            [] for _ in range(config.processing_blocks)
        ]
        self._greedy: list[int | None] = [None] * config.processing_blocks
        self._next_key = 0
        self._next_tb = 0
        self._age = 0
        # Decodes each distinct record once, as blocks are placed.
        self._decoder = OpDecoder(config)
        # Int-indexed counters, harvested into ``stats`` by
        # _harvest_stats: issues by category index and by stage, stall
        # warp-cycles by [stage][cause index], and per timeline bucket
        # the issues, tensor/FP issues and global sectors.
        stages = 1 + max(
            (w.pipe_stage_id for t in traces for w in t.warps), default=0
        )
        self._issued_cat = [0] * len(_CATEGORIES)
        self._issued_stage = [0] * stages
        self._stalls = [[0.0] * len(_CAUSES) for _ in range(stages)]
        self._stall_spans = 0
        self._queue_overhead = 0
        self._tl_issued: list[int] = []
        self._tl_tensor_fp: list[int] = []
        self._tl_sectors: list[int] = []
        # Reusable scratch for per-cycle arbitration (no allocation in
        # the issue loop).
        self._eligible: list[tuple[Any, _WarpRun]] = []
        self._losers: list[tuple[Any, int, _WarpRun]] = []
        self._idle_pbs: list[int] = []
        # Raw telemetry tallies (plain int adds on the hot path; the
        # metrics registry sees them only in _harvest_telemetry at end
        # of run, and only when telemetry is enabled — DESIGN.md §7).
        self._tel_cycles = 0      # processed (non-skipped) cycles
        self._tel_polls = 0       # warp issue-scan visits
        self._tel_jumps = 0       # no-issue clock jumps
        self._tel_skipped = 0.0   # cycles elided by those jumps

    # -- residency ----------------------------------------------------------

    def _admit(self, now: float) -> None:
        while self._pending and (
            len(self._resident) < self.occupancy.max_resident_tbs
        ):
            trace = self._pending[0]
            if not self._fits_in_slots(trace):
                break
            self._pending.pop(0)
            self._place(trace, now)

    def _mapping_for(self, trace: KernelTrace) -> dict[int, int]:
        """Warp→PB mapping for one admitted block, balance-rotated.

        The raw mappers start every thread block at processing block 0;
        rotating to the currently least-loaded block keeps the issue
        slots work-conserving when the warp count does not divide P
        (see :func:`repro.core.mapping.rotate_mapping`).
        """
        mapping = map_warps(
            trace.tb_spec,
            trace.num_warps,
            self.config.processing_blocks,
            self.config.features.group_pipeline_mapping,
        )
        loads = [len(pb) for pb in self._pbs]
        offset = loads.index(min(loads))
        return rotate_mapping(
            mapping, offset, self.config.processing_blocks
        )

    def _fits_in_slots(self, trace: KernelTrace) -> bool:
        mapping = self._mapping_for(trace)
        load: dict[int, int] = {}
        for pb in mapping.values():
            load[pb] = load.get(pb, 0) + 1
        for pb, extra in load.items():
            if len(self._pbs[pb]) + extra > self.config.warp_slots_per_pb:
                return False
        return True

    def _place(self, trace: KernelTrace, now: float) -> None:
        spec = trace.tb_spec
        expected = spec.barrier_expected if spec is not None else {}
        initial = spec.barrier_initial if spec is not None else {}
        capacities: dict[int, int] = {}
        if spec is not None:
            for queue in spec.queues:
                capacities[queue.queue_id] = self.config.rfq_size
        tb_index = self._next_tb
        tb = _ResidentTB(
            tb_index=tb_index,
            trace=trace,
            barriers=BarrierFile(
                trace.num_warps, expected, initial,
                profiler=self.profiler, tb_index=tb_index,
            ),
            queues=QueueFile(
                capacities, self.config.features.queue_impl,
                profiler=self.profiler, tb_index=tb_index,
            ),
        )
        self._next_tb += 1
        mapping = self._mapping_for(trace)
        for warp_trace in trace.warps:
            run = _WarpRun(
                key=self._next_key,
                tb=tb,
                ops=self._decoder.ops(warp_trace.instrs),
                pipe_stage_id=warp_trace.pipe_stage_id,
                slice_id=slice_of(spec, warp_trace.warp_id),
                pb=mapping[warp_trace.warp_id],
                age=self._age,
                wake_at=now,
                prof_mark=now,
                stalls=self._stalls[warp_trace.pipe_stage_id],
            )
            self._next_key += 1
            self._age += 1
            if spec is not None and spec.queues:
                run.in_channels = tuple(
                    tb.queues.channel(queue.queue_id, run.slice_id)
                    for queue in spec.queues
                    if queue.dst_stage == run.pipe_stage_id
                )
            if not run.ops:
                run.done = True
            if self.profiler is not None:
                self.profiler.register_warp(
                    tb.tb_index, run.key, run.pipe_stage_id
                )
            tb.warps.append(run)
            self._pbs[run.pb].append(run)
        self._resident.append(tb)

    def _retire_finished(self, now: float) -> None:
        finished = [tb for tb in self._resident if tb.done()]
        if not finished:
            return
        for tb in finished:
            self._resident.remove(tb)
            self.stats.tbs_completed += 1
            for pb_warps in self._pbs:
                pb_warps[:] = [w for w in pb_warps if w.tb is not tb]
            tb.release()
        self._admit(now)

    # -- main loop ------------------------------------------------------

    def run(self) -> SMStats:
        now = 0.0
        self._admit(now)
        guard = 0
        prof = self.profiler
        while self._resident or self._pending:
            guard += 1
            if guard > 200_000_000:
                raise SimulationError("simulation exceeded cycle guard")
            if prof is not None:
                prof.now = now
            self.tma.advance(now)
            issued_any = False
            wake = INFINITY
            idle = self._idle_pbs
            losers = self._losers
            idle.clear()
            losers.clear()
            for pb_index in range(self.config.processing_blocks):
                result = self._issue_pb(pb_index, now, losers)
                if result is True:
                    issued_any = True
                else:
                    idle.append(pb_index)
                    if result < wake:
                        wake = result
            # Work conservation: a processing block whose own warps are
            # all blocked still has an issue slot this cycle; feed it
            # warps that lost arbitration elsewhere rather than letting
            # the slot idle while eligible work exists.
            if losers:
                unconsumed = 0
                if idle:
                    stole, unconsumed = self._steal_issue(idle, losers, now)
                    issued_any |= stole
                for _key, _tie, warp in losers[unconsumed:]:
                    self._note_stall(warp, now, _ISSUE_PORT)
                losers.clear()
            self._retire_finished(now)
            if not self._resident and not self._pending:
                break
            # Warps blocked on another agent (queue space/data, barrier
            # arrivals) carry infinite wakes; re-arm them for recheck as
            # long as something in the system is still making progress.
            if issued_any or self.tma.busy():
                self._rearm_infinite_waits(now + 1.0)
            if issued_any:
                now += 1.0
            else:
                wake = min(wake, self.tma.next_event_time())
                if wake == INFINITY:
                    self._raise_deadlock(now)
                target = max(now + 1.0, math.ceil(wake))
                self._tel_jumps += 1
                self._tel_skipped += target - now - 1.0
                now = target
        self.stats.cycles = max(now, self.memory.drain_time())
        self._tel_cycles = guard
        if prof is not None:
            prof.finalize(self.stats.cycles)
        self._harvest_stats()
        self._harvest_telemetry()
        return self.stats

    # -- harvest --------------------------------------------------------

    def _harvest_stats(self) -> None:
        """Convert the int-indexed counters into ``stats``' fields."""
        stats = self.stats
        stats.issued_total = sum(self._issued_cat)
        stats.issued_by_category = {
            _CATEGORIES[i]: n for i, n in enumerate(self._issued_cat) if n
        }
        stats.issued_by_stage = {
            stage: n for stage, n in enumerate(self._issued_stage) if n
        }
        stats.queue_overhead_instrs = self._queue_overhead
        stats.stall_cycles = {
            (stage, _CAUSES[i]): cycles
            for stage, row in enumerate(self._stalls)
            for i, cycles in enumerate(row)
            if cycles
        }
        stats.stall_spans = self._stall_spans
        # Every span starts and ends on a whole cycle, so this sum is
        # exact in any order.
        stats.active_warp_cycles = stats.issued_total + sum(
            stats.stall_cycles.values(), 0.0
        )
        stats.timeline = {
            index: TimelineBucket(issued, tensor_fp, sectors)
            for index, (issued, tensor_fp, sectors) in enumerate(zip(
                self._tl_issued, self._tl_tensor_fp, self._tl_sectors
            ))
            if issued
        }

    def _harvest_telemetry(self) -> None:
        """Fold this run's raw tallies into the global registry.

        Everything harvested here is a deterministic function of the
        simulated work (simulated-time waits, cache behaviour, issue
        counts), so the counters are jobs-invariant; wall-clock never
        enters.  Costs nothing when telemetry is disabled.
        """
        if not TELEMETRY.enabled:
            return
        sub = self._tel_subsystem
        counter = TELEMETRY.counter
        counter(f"repro_{sub}_runs_total",
                help="Completed SM simulations").inc()
        counter(f"repro_{sub}_processed_cycles_total",
                help="Main-loop iterations (non-skipped cycles)"
                ).inc(self._tel_cycles)
        counter(f"repro_{sub}_sim_cycles_total",
                help="Simulated cycles (incl. skipped)"
                ).inc(self.stats.cycles)
        counter(f"repro_{sub}_issued_total",
                help="Instructions issued"
                ).inc(self.stats.issued_total)
        counter(f"repro_{sub}_polls_total",
                help="Warp issue-scan visits"
                ).inc(self._tel_polls)
        counter(f"repro_{sub}_jumps_total",
                help="No-issue clock jumps"
                ).inc(self._tel_jumps)
        counter(f"repro_{sub}_skipped_cycles_total",
                help="Cycles elided by clock jumps"
                ).inc(self._tel_skipped)
        for level, cache in (("l1", self.memory.l1),
                             ("l2", self.memory.l2)):
            labels = {"level": level}
            counter("repro_cache_hits_total", labels,
                    help="Sector-cache hits").inc(cache.hits)
            counter("repro_cache_misses_total", labels,
                    help="Sector-cache misses").inc(cache.misses)
            counter("repro_cache_evictions_total", labels,
                    help="Sector-cache LRU evictions"
                    ).inc(cache.evictions)
        for server in (self.memory.l2_bw, self.memory.dram_bw,
                       self.memory.smem_bw):
            labels = {"server": server.name}
            counter("repro_cache_bw_token_waits_total", labels,
                    help="Requests that queued behind earlier work"
                    ).inc(server.waits)
            counter("repro_cache_bw_wait_cycles_total", labels,
                    help="Simulated cycles spent queued for bandwidth"
                    ).inc(server.wait_cycles)

    def _rearm_infinite_waits(self, recheck_at: float) -> None:
        for pb_warps in self._pbs:
            for warp in pb_warps:
                if not warp.done and warp.wake_at == INFINITY:
                    warp.wake_at = recheck_at

    def _raise_deadlock(self, now: float) -> None:
        detail = {}
        for tb in self._resident:
            for warp in tb.warps:
                if not warp.done:
                    op = warp.current()
                    detail[(tb.tb_index, warp.key)] = (
                        repr(op[-1].opcode) if op else "end"
                    )
        for tb in self._resident:
            tb.release()
        raise DeadlockError(
            f"SM deadlock at cycle {now}: blocked warps {detail}"
        )

    def _issue_pb(
        self,
        pb_index: int,
        now: float,
        losers: list[tuple[Any, int, _WarpRun]],
    ) -> Any:
        """Try to issue one instruction; True or the earliest wake time.

        Eligible warps that lose arbitration are appended to ``losers``
        (priority key, warp key, warp) so the caller can route them to
        processing blocks whose slot would otherwise idle this cycle;
        their ``ISSUE_PORT`` stall is noted there, only if they stay
        unissued after that second pass.
        """
        best: _WarpRun | None = None
        best_key = None
        wake = INFINITY
        greedy = self._greedy[pb_index]
        # Baseline hardware is pipeline-agnostic: plain GTO order.
        key_fn = self._key_fn if self._pipeline_aware else _GTO_KEY
        queue_bits = self._queue_bits
        eligible = self._eligible
        eligible.clear()
        self._tel_polls += len(self._pbs[pb_index])
        for warp in self._pbs[pb_index]:
            if warp.done or warp.wake_at > now:
                wake = min(wake, warp.wake_at if not warp.done else INFINITY)
                continue
            can, warp_wake, cause = self._can_issue(warp, now)
            if not can:
                if cause is not None:
                    self._note_stall(warp, now, cause)
                warp.wake_at = warp_wake
                wake = min(wake, warp_wake)
                continue
            ready = full = False
            if queue_bits:
                # Inlined QueueChannel.has_ready_data / is_full over the
                # warp's placement-time channel tuple: this runs once
                # per eligible warp per cycle.
                for chan in warp.in_channels:
                    entries = chan._entries
                    if entries and entries[0] <= now:
                        ready = True
                    if len(entries) + chan.reserved >= chan.capacity:
                        full = True
            key = key_fn(warp.key, warp.pipe_stage_id, ready, full,
                         warp.last_issued, warp.age, greedy)
            eligible.append((key, warp))
            if best is None or key < best_key:
                best, best_key = warp, key
        if best is None:
            return wake
        for key, warp in eligible:
            if warp is not best:
                losers.append((key, warp.key, warp))
        eligible.clear()
        self._execute(best, now)
        self._greedy[pb_index] = best.key
        return True

    def _steal_issue(
        self,
        idle: list[int],
        losers: list[tuple[Any, int, _WarpRun]],
        now: float,
    ) -> tuple[bool, int]:
        """Fill idle issue slots with arbitration losers (best first).

        Eligibility is re-checked at steal time: an earlier issue this
        cycle may have consumed the queue entry or space the loser's
        eligibility depended on.  A stolen warp stays on its home
        processing block (its registers live there); only this cycle's
        spare issue slot is borrowed, and greedy-then-oldest continuity
        is kept on the home block so the policy still sees one
        uninterrupted run.

        Returns ``(issued anything, index of the first loser this pass
        did not touch)`` — consumed losers have either issued or had
        their real blocking cause recorded, so only the untouched tail
        still owes an ``ISSUE_PORT`` stall.
        """
        # Entries are (key, warp key, warp); warp keys are distinct, so
        # tuple order never compares the warps themselves.
        losers.sort()
        issued = False
        index = 0
        for _slot in idle:
            while index < len(losers):
                _key, _tie, warp = losers[index]
                index += 1
                can, warp_wake, cause = self._can_issue(warp, now)
                if can:
                    self._execute(warp, now)
                    self._greedy[warp.pb] = warp.key
                    self._post_steal_issue(warp)
                    issued = True
                    break
                if cause is not None:
                    self._note_stall(warp, now, cause)
                warp.wake_at = warp_wake
                self._post_steal_block(warp)
        return issued, index

    def _post_steal_issue(self, warp: _WarpRun) -> None:
        """Hook: a loser issued via a borrowed slot (event core only)."""

    def _post_steal_block(self, warp: _WarpRun) -> None:
        """Hook: a loser re-blocked at steal time (event core only)."""

    # -- stall attribution ----------------------------------------------

    def _note_stall(self, warp: _WarpRun, now: float, cause: int) -> None:
        """Record that ``cause`` (a _CAUSES index) blocks ``warp`` as of
        ``now``.

        Repeated observations of the same cause are free; the interval
        is only charged (via :meth:`_close_stall`) when the cause
        changes or the warp issues.
        """
        if warp.prof_cause == cause:
            return
        self._close_stall(warp, now)
        warp.prof_cause = cause

    def _close_stall(self, warp: _WarpRun, now: float) -> None:
        """Charge the open accounting interval and move the mark."""
        delta = now - warp.prof_mark
        if delta > 0.0:
            cause = warp.prof_cause
            if cause is None:
                cause = _NO_ELIGIBLE
            warp.stalls[cause] += delta
            self._stall_spans += 1
            prof = self.profiler
            if prof is not None:
                prof.record_stall(
                    warp.tb.tb_index, warp.key, warp.pipe_stage_id,
                    _CAUSES[cause], warp.prof_mark, delta,
                )
        warp.prof_mark = now

    # -- issue legality -------------------------------------------------

    def _can_issue(
        self, warp: _WarpRun, now: float
    ) -> tuple[bool, float, int | None]:
        """(can issue, wake time, blocking cause index when it cannot)."""
        if warp.pending_extra > 0:
            return True, now, None
        ops = warp.ops
        if warp.pc >= len(ops):
            warp.done = True
            return False, INFINITY, None
        kind, _lat, _cat, _tfp, src_regs, pop, push, instr = ops[warp.pc]
        # Register dependences.
        if src_regs:
            ready = now
            scoreboard = warp.scoreboard
            for reg in src_regs:
                t = scoreboard.get(reg)
                if t is not None and t > ready:
                    ready = t
            if ready > now:
                return False, ready, _SCOREBOARD
        # Queue pop: head entry must exist and its data be ready.  An
        # empty channel can only be filled by another agent (producer
        # warp or the TMA engine): wake is unknown (infinity) and the
        # warp is re-armed by the main loop while progress continues.
        if pop is not None:
            chan = warp.tb.queues.channel(pop, warp.slice_id)
            head = chan.head_ready_time()
            if head is None:
                return False, INFINITY, _QUEUE_EMPTY
            if head > now:
                return False, head, _QUEUE_EMPTY
        # Queue push: space must exist (freed only by a consumer pop).
        if push is not None:
            chan = warp.tb.queues.channel(push, warp.slice_id)
            if not chan.can_push():
                return False, INFINITY, _QUEUE_FULL
        if not kind:
            return True, now, None
        # Outstanding-load limit.
        if kind == OP_LDG:
            warp.outstanding = [t for t in warp.outstanding if t > now]
            if len(warp.outstanding) >= self._max_loads:
                return False, min(warp.outstanding), _MSHR
        # Barriers.
        elif kind == OP_BAR_WAIT:
            barrier = warp.tb.barriers.arrive_wait(instr.barrier_id)
            pass_time = barrier.wait_pass_time(warp.key)
            if pass_time > now:
                return False, pass_time, _BARRIER_WAIT
        elif kind == OP_BAR_SYNC:
            barrier = warp.tb.barriers.sync(instr.barrier_id)
            if not warp.sync_marked:
                barrier.arrive(warp.key, now)
                warp.sync_marked = True
            pass_time = barrier.pass_time(warp.key)
            if pass_time > now:
                return False, pass_time, _BARRIER_WAIT
        return True, now, None

    # -- execution ------------------------------------------------------

    def _execute(self, warp: _WarpRun, now: float) -> None:
        # Close the stall-attribution interval: [prof_mark, now) was a
        # stall, [now, now+1) is this issue.
        if warp.prof_mark < now:
            self._close_stall(warp, now)
        next_cycle = now + 1.0
        warp.prof_cause = None
        warp.prof_mark = next_cycle
        bucket = int(now) // TIMELINE_BUCKET
        timeline = self._tl_issued
        if bucket >= len(timeline):
            grow = [0] * (bucket + 1 - len(timeline))
            timeline.extend(grow)
            self._tl_tensor_fp.extend(grow)
            self._tl_sectors.extend(grow)
        timeline[bucket] += 1
        self._issued_stage[warp.pipe_stage_id] += 1
        prof = self.profiler
        if warp.pending_extra > 0:
            warp.pending_extra -= 1
            self._queue_overhead += 1
            self._issued_cat[_QUEUE_CATEGORY] += 1
            if prof is not None:
                prof.record_issue(
                    warp.tb.tb_index, warp.key, warp.pipe_stage_id,
                    "QUEUE_OP", now,
                )
            warp.last_issued = now
            warp.wake_at = next_cycle
            return
        ops = warp.ops
        pc = warp.pc
        kind, latency, category, tensor_fp, _src, pop, push, instr = ops[pc]
        self._issued_cat[category] += 1
        if tensor_fp:
            self._tl_tensor_fp[bucket] += 1
        completion = now + latency

        if kind:
            memory = self.memory
            if kind == OP_LDG:
                completion = memory.access_global(now, instr.sectors)
                self._tl_sectors[bucket] += len(instr.sectors)
                warp.outstanding.append(completion)
                if push is not None:
                    chan = warp.tb.queues.channel(push, warp.slice_id)
                    entry_ready = completion
                    if self._smem_queue:
                        entry_ready = memory.access_smem(
                            completion, warp.tb.trace.warp_width
                        )
                        warp.pending_extra += SMEM_PUSH_EXTRA
                    chan.push(entry_ready)
            elif kind == OP_STG:
                # Stores do not block the warp.
                memory.access_global(now, instr.sectors)
                self._tl_sectors[bucket] += len(instr.sectors)
            elif kind == OP_LDGSTS:
                landed = memory.access_global(now, instr.sectors)
                self._tl_sectors[bucket] += len(instr.sectors)
                landed = memory.access_smem(landed, instr.smem_words)
                warp.async_copy_done = max(warp.async_copy_done, landed)
            elif kind == OP_SMEM:
                completion = memory.access_smem(now, instr.smem_words)
            elif kind == OP_TMA:
                self._submit_tma(warp, instr, now)
            elif kind == OP_BAR_ARRIVE:
                barrier = warp.tb.barriers.arrive_wait(instr.barrier_id)
                barrier.arrive(max(now, warp.async_copy_done))
            elif kind == OP_BAR_WAIT:
                barrier = warp.tb.barriers.arrive_wait(instr.barrier_id)
                barrier.record_wait(warp.key)
            else:  # OP_BAR_SYNC
                barrier = warp.tb.barriers.sync(instr.barrier_id)
                barrier.record_pass(warp.key)
                warp.sync_marked = False

        if pop is not None:
            chan = warp.tb.queues.channel(pop, warp.slice_id)
            head = chan.pop()
            data_ready = max(now, head)
            if self._smem_queue:
                data_ready = self.memory.access_smem(
                    data_ready, warp.tb.trace.warp_width
                )
                warp.pending_extra += SMEM_POP_EXTRA
            completion = max(completion, data_ready + self._int_latency)

        dst_regs = instr.dst_regs
        if dst_regs:
            scoreboard = warp.scoreboard
            for reg in dst_regs:
                scoreboard[reg] = completion

        if prof is not None:
            prof.record_issue(
                warp.tb.tb_index, warp.key, warp.pipe_stage_id,
                instr.opcode.value, now,
            )
        warp.last_issued = now
        pc += 1
        warp.pc = pc
        warp.wake_at = next_cycle
        if pc >= len(ops):
            warp.done = True

    def _submit_tma(
        self, warp: _WarpRun, instr: DynamicInstr, now: float
    ) -> None:
        job = instr.tma_job
        assert job is not None  # every TMA record carries its job
        channel = None
        if job.queue is not None:
            channel = warp.tb.queues.channel(job.queue, warp.slice_id)
        on_complete = None
        if job.barrier is not None:
            on_complete = warp.tb.barriers.arrive_wait(job.barrier).arrive
        self.tma.submit(now, job, channel, on_complete)

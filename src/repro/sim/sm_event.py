"""Event-skipping SM core: cycle-exact with the reference, but only
awake warps pay.

The reference loop (:mod:`repro.sim.sm`) already skips idle *time* —
when nothing issues it jumps ``now`` to the earliest known wake — but
on every processed cycle it still scans every resident warp, re-arms
every warp blocked on another agent (``_rearm_infinite_waits``), and
re-checks every thread block for retirement.  On a busy SM the
per-cycle cost is dominated by warps that provably cannot issue.

This core processes the *same* cycle sequence but touches only warps
that can act.  Warps live in exactly one of four places:

* **Awake** (``_awake``, one list per processing block, sorted by the
  warp's position in the block's warp list): eligible issuers and
  warps whose wake time has come.  Only these are scanned.
* **Sleeping** (``_heap``, a :class:`~repro.sim.events.WakeupHeap`):
  blocked with a known finite wake — a scoreboard release, a queue
  head's data-ready time, an MSHR fill, a timed barrier release.
  Blocked warps are put here when a poll finds them blocked, and a
  winner whose next operands will not be ready on the next cycle is
  put here when it issues (exactness note 3).  Popped when the clock
  reaches them.
* **Registered** (waiter lists on :class:`~repro.sim.queues
  .QueueChannel` and the barrier classes): blocked with *no* known
  wake — an empty queue, a full queue, a barrier short of arrivals.
  Woken by the unblocking event itself (push / pop / arrive).
* **Pending** (``_pending_wakes`` then ``_buffer``): notified warps
  staged for a later cycle (see exactness note 2 below).

Exactness — the differential contract enforced by
:mod:`repro.sim.differential` and CI's ``core-differential`` job —
requires reproducing two subtle reference behaviours; the third note
shows one poll the event core skips is a no-op, and the fourth that
the polls it shortens do what ``_can_issue`` would:

1. *Intra-cycle visibility.*  The reference polls warps in processing-
   block order, then list order within the block; an event produced
   while polling warp ``w`` (a ``BAR_SYNC`` first-poll arrival) or
   while executing block ``p``'s winner is seen this cycle only by
   warps polled later.  Notifications therefore compare the blocked
   warp's ``(pb, pos)`` against the event context ``(_scan_pb,
   _scan_pos)``: strictly-later warps join the current scan (the
   insort keeps position order), all others wait.

2. *Re-arm gating.*  The reference re-polls infinitely-blocked warps
   on the cycle after any progress (an issue anywhere, or a busy TMA
   engine) — and only then.  A warp unblocked on a no-progress cycle
   is invisible at the jump target; it is polled again only after the
   next progress cycle.  ``_inf_pollable`` tracks whether the previous
   processed cycle made progress (may this cycle's scan see a newly
   notified warp at all), and notified warps that cannot join the
   current cycle sit in ``_pending_wakes`` until a progress cycle
   ends, then move to ``_buffer`` for the next processed cycle —
   mirroring ``_rearm_infinite_waits`` exactly.

3. *Eager scoreboard sleep.*  A block's winner is next polled at
   ``now + 1``.  If its next instruction's operands are not ready by
   then, that poll can only find it blocked on its scoreboard until
   they are: only a warp writes its own scoreboard, and the winner
   does not issue again before that poll.  So the winner goes straight
   onto the heap, timed for when its operands are ready, with
   ``prof_cause = SCOREBOARD``, which the skipped poll would have set
   while closing a zero-length interval (``_execute`` moved the mark
   to ``now + 1``).  Its slot in the block's scan list is stable while
   it executes: ``_scan_pos`` is ``_AFTER_ALL`` then, so no warp of
   the same block is inserted, and the slot recorded at arbitration
   still holds it.  A winner with pending queue overhead, or done,
   stays where it is.

4. *Inline plain-op check.*  A plain op (ALU kind, no queue pop or
   push) can only be blocked by its scoreboard: the queue, MSHR and
   barrier checks of ``_can_issue`` do not apply to it.  That check
   reads the warp's own scoreboard and writes nothing, so the scan
   runs it inline: no state changes, no queue, barrier or wake hook is
   touched, and so no event fires (which is why ``_scan_pos``, read
   only by events, is not set for it).  A blocked plain op records
   ``SCOREBOARD`` through ``_note_stall``'s body, which is a no-op when
   the cause is unchanged, and parks as ``_park`` parks a finite wake.
   Arbitration keys are computed after the scan, and only when two or
   more warps are eligible: a key reads queue occupancy, the block's
   greedy warp and the warp's issue history, and only an issue or a
   TMA step changes those; neither runs while a block is scanned.

Warps never polled by this core are exactly the reference's no-op
polls: a registered warp's blocking condition can only change through
the hooked events, and re-polling it has no side effects (the
``BAR_SYNC`` arrival fires once, guarded by ``sync_marked``; repeated
``_note_stall`` with an unchanged cause is free).  Everything
observable — TMA stepping, arbitration order, stall-interval
accounting, retirement/admission, the clock jump and deadlock
detection (both computed from pre-retire wake candidates, like the
reference) — happens at the same cycle with the same inputs, so
cycles, issue order, memory traffic, stall spans and profiles are
bit-identical.  ``GPUConfig(core="reference")`` keeps the original
loop as the escape hatch and differential pair.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from heapq import heappush
from operator import attrgetter

from repro.errors import SimulationError
from repro.fexec.barriers import INFINITY
from repro.fexec.trace import KernelTrace
from repro.sim.events import WakeupHeap
from repro.sim.results import SMStats
from repro.sim.sm import (
    _GTO_KEY, _ISSUE_PORT, _SCOREBOARD, OP_BAR_SYNC, OP_BAR_WAIT,
    SMSimulator, _ResidentTB, _WarpRun,
)
from repro.telemetry.registry import (
    CYCLES_BUCKETS, DEPTH_BUCKETS, TELEMETRY,
)

__all__ = ["EventSMSimulator"]

_POS = attrgetter("pos")
#: Sentinel scan position meaning "after every warp of the block".
_AFTER_ALL = 1 << 30


class EventSMSimulator(SMSimulator):
    """Drop-in replacement for :class:`SMSimulator` (same results)."""

    _tel_subsystem = "eventcore"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        blocks = self.config.processing_blocks
        self._heap = WakeupHeap()
        self._awake: list[list[_WarpRun]] = [[] for _ in range(blocks)]
        # Notified-but-not-yet-pollable warps (exactness note 2).
        self._pending_wakes: list[_WarpRun] = []
        # Warps to re-admit to the scan at the next processed cycle.
        self._buffer: list[_WarpRun] = []
        # Thread blocks that had a warp finish this cycle (retirement
        # candidates; the reference re-checks every block every cycle).
        self._dead_tbs: set[_ResidentTB] = set()
        # Would the reference have re-armed infinite waits at the end
        # of the previous processed cycle?
        self._inf_pollable = False
        # Event context for intra-cycle visibility (exactness note 1).
        self._scan_pb = -1
        self._scan_pos = _AFTER_ALL
        self._now = 0.0
        # Scratch for _scan_issue: the eligible warps' slots in the
        # scanned block's awake list.
        self._slots: list[int] = []
        # Raw telemetry tallies: warp wake/sleep traffic and the
        # skipped-cycle span distribution (fixed buckets so the jump
        # branch does one bisect into a 13-bound tuple, no allocation).
        self._tel_wakes = 0
        self._tel_buffered = 0
        self._tel_reg_queue_empty = 0
        self._tel_reg_queue_full = 0
        self._tel_reg_barrier = 0
        self._tel_sleep_eager = 0
        self._tel_skip_counts = [0] * (len(CYCLES_BUCKETS) + 1)

    # -- residency ------------------------------------------------------

    def _renumber(self) -> None:
        for pb_warps in self._pbs:
            for index, warp in enumerate(pb_warps):
                warp.pos = index

    def _place(self, trace: KernelTrace, now: float) -> None:
        super()._place(trace, now)
        self._renumber()
        tb = self._resident[-1]
        for warp in tb.warps:
            if not warp.done:
                insort(self._awake[warp.pb], warp, key=_POS)
        if tb.done():
            # A block whose every warp has an empty trace retires
            # without ever issuing.
            self._dead_tbs.add(tb)

    def _retire_finished(self, now: float) -> None:
        dead = self._dead_tbs
        if not dead:
            return
        self._dead_tbs = set()
        if not any(tb.done() for tb in dead):
            return
        super()._retire_finished(now)
        # Retirement compacted the block warp lists (and possibly
        # admitted new blocks, whose _place insorted them against
        # stale positions): renumber and restore sorted awake lists.
        self._renumber()
        for pb_index, awake in enumerate(self._awake):
            pruned = [w for w in awake if not w.done]
            pruned.sort(key=_POS)
            self._awake[pb_index] = pruned

    # -- wake plumbing --------------------------------------------------

    def _enter_awake(self, warp: _WarpRun) -> None:
        """Admit ``warp`` to the scan of the current processed cycle."""
        if warp.done:
            return
        if warp.wake_at > self._now:
            warp.wake_at = self._now
        insort(self._awake[warp.pb], warp, key=_POS)

    def _wake_list(
        self, waiters: list[_WarpRun], _time: float | None = None
    ) -> None:
        """Hook installed on queue channels and barriers: an event that
        can unblock every registered waiter just fired.  Barriers pass
        the arrival time too; woken warps are polled at cycles, so it
        goes unused."""
        drained = waiters[:]
        waiters.clear()
        self._tel_wakes += len(drained)
        immediate = self._inf_pollable
        scan_pb = self._scan_pb
        scan_pos = self._scan_pos
        pending = self._pending_wakes
        for warp in drained:
            if warp.done:
                continue
            if immediate and (
                warp.pb > scan_pb
                or (warp.pb == scan_pb and warp.pos > scan_pos)
            ):
                # The reference would poll this warp later this very
                # cycle and see the event.
                self._enter_awake(warp)
            else:
                pending.append(warp)

    def _register_block(self, warp: _WarpRun) -> None:
        """Park a warp whose wake is unknown on the queue/barrier that
        must change for it to make progress.

        Called synchronously with the failed ``_can_issue``, so the
        first infinite condition found here is the one that blocked
        the poll (same evaluation order).
        """
        op = warp.current()
        if op is None:  # defensive: _can_issue marks these done
            warp.done = True
            self._dead_tbs.add(warp.tb)
            return
        kind, _lat, _cat, _tfp, _src, pop, push, instr = op
        hook = self._wake_list
        if pop is not None:
            chan = warp.tb.queues.channel(pop, warp.slice_id)
            if chan.head_ready_time() is None:
                chan.wake_hook = hook
                chan.empty_waiters.append(warp)
                self._tel_reg_queue_empty += 1
                return
        if push is not None:
            chan = warp.tb.queues.channel(push, warp.slice_id)
            if not chan.can_push():
                chan.wake_hook = hook
                chan.full_waiters.append(warp)
                self._tel_reg_queue_full += 1
                return
        if kind == OP_BAR_WAIT:
            barrier = warp.tb.barriers.arrive_wait(instr.barrier_id)
            if barrier.wait_pass_time(warp.key) == INFINITY:
                barrier.wake_hook = hook
                barrier.waiters.append(warp)
                self._tel_reg_barrier += 1
                return
        if kind == OP_BAR_SYNC:
            barrier = warp.tb.barriers.sync(instr.barrier_id)
            if barrier.pass_time(warp.key) == INFINITY:
                barrier.wake_hook = hook
                barrier.waiters.append(warp)
                self._tel_reg_barrier += 1
                return
        # No modelled condition is infinite right now (cannot happen
        # today: registration is synchronous with the failed poll).
        # Fall back to re-poll-after-progress so the warp is not lost.
        self._pending_wakes.append(warp)

    def _park(self, warp: _WarpRun, warp_wake: float, now: float) -> bool:
        """Route a blocked warp to where its wake will come from; True
        when it stays awake (due again at the next processed cycle)."""
        if warp.done:
            self._dead_tbs.add(warp.tb)
        elif warp_wake == INFINITY:
            self._register_block(warp)
        elif warp_wake <= now + 1.0:
            return True
        else:
            self._heap.push(warp_wake, warp)
        return False

    # -- steal-pass hooks ----------------------------------------------

    def _post_steal_issue(self, warp: _WarpRun) -> None:
        if warp.done:
            self._dead_tbs.add(warp.tb)

    def _post_steal_block(self, warp: _WarpRun) -> None:
        # A loser re-checked at steal time found its eligibility gone
        # (an earlier issue this cycle consumed the entry or space).
        # It sits in its block's awake list; re-route it like the scan
        # would have.
        warp_wake = warp.wake_at
        if warp_wake != INFINITY and warp_wake <= self._now + 1.0:
            return  # stays awake, polled next cycle either way
        awake = self._awake[warp.pb]
        for index, entry in enumerate(awake):
            if entry is warp:
                del awake[index]
                break
        if warp_wake == INFINITY:
            self._register_block(warp)
        else:
            self._heap.push(warp_wake, warp)

    # -- main loop ------------------------------------------------------

    def run(self) -> SMStats:
        now = 0.0
        self._admit(now)
        guard = 0
        prof = self.profiler
        heap = self._heap
        sleepers = heap._items
        awake = self._awake
        blocks = self.config.processing_blocks
        idle = self._idle_pbs
        losers = self._losers
        tma = self.tma
        tma_jobs = tma._jobs
        buffer = self._buffer
        enter_awake = self._enter_awake
        scan_issue = self._scan_issue
        while self._resident or self._pending:
            guard += 1
            if guard > 200_000_000:
                raise SimulationError("simulation exceeded cycle guard")
            self._now = now
            if prof is not None:
                prof.now = now
            if tma_jobs:
                # Pre-scan events (TMA pushes/arrivals) are visible to
                # every warp polled this cycle; nothing else fires an
                # event before the first scan.
                self._scan_pb = -1
                tma.advance(now)
            if sleepers and sleepers[0][0] <= now:
                # A sleeper is neither done nor woken early, so this is
                # _enter_awake without its checks.
                for warp in heap.pop_due(now):
                    insort(awake[warp.pb], warp, key=_POS)
            if prof is not None:
                prof.record_heap_depth(now, len(heap))
            if buffer:
                self._tel_buffered += len(buffer)
                for warp in buffer:
                    enter_awake(warp)
                buffer.clear()
            issued_any = False
            wake = INFINITY
            idle.clear()
            for pb_index in range(blocks):
                if awake[pb_index]:
                    self._scan_pb = pb_index
                    result = scan_issue(pb_index, now, losers)
                    if result is True:
                        issued_any = True
                        continue
                    if result < wake:
                        wake = result
                idle.append(pb_index)
            # Steal-pass events are next-cycle for everyone (every scan
            # leaves ``_scan_pos`` at _AFTER_ALL).
            self._scan_pb = blocks
            if losers:
                unconsumed = 0
                if idle:
                    stole, unconsumed = self._steal_issue(idle, losers, now)
                    issued_any |= stole
                # The ISSUE_PORT stall of every untouched loser, with
                # _note_stall's no-op case (cause unchanged) inline.
                for _key, _tie, warp in losers[unconsumed:]:
                    if warp.prof_cause != _ISSUE_PORT:
                        self._close_stall(warp, now)
                        warp.prof_cause = _ISSUE_PORT
                losers.clear()
            if self._dead_tbs:
                self._retire_finished(now)
                if not self._resident and not self._pending:
                    break
            # Progress gate: identical to the reference's re-arm
            # condition, evaluated at the same point (post-retire).
            if issued_any or tma_jobs:
                self._inf_pollable = True
                if self._pending_wakes:
                    buffer.extend(self._pending_wakes)
                    self._pending_wakes.clear()
            else:
                self._inf_pollable = False
            if issued_any:
                now += 1.0
            else:
                # Jump candidates: this cycle's scans (sleepers parked
                # earlier keep contributing via the heap), never
                # pending/buffered wakes — the reference's ``wake`` is
                # equally blind to warps it did not poll this cycle.
                wake = min(wake, heap.next_time(), tma.next_event_time())
                if wake == INFINITY:
                    self._raise_deadlock(now)
                target = max(now + 1.0, math.ceil(wake))
                skipped = target - now - 1.0
                self._tel_jumps += 1
                self._tel_skipped += skipped
                self._tel_skip_counts[
                    bisect_left(CYCLES_BUCKETS, skipped)
                ] += 1
                now = target
        self.stats.cycles = max(now, self.memory.drain_time())
        self._tel_cycles = guard
        if prof is not None:
            prof.finalize(self.stats.cycles)
        self._harvest_stats()
        self._harvest_telemetry()
        return self.stats

    def _harvest_telemetry(self) -> None:
        super()._harvest_telemetry()
        if not TELEMETRY.enabled:
            return
        heap = self._heap
        counter = TELEMETRY.counter
        counter("repro_eventcore_heap_pushes_total",
                help="Warps put to sleep on the wakeup heap"
                ).inc(heap.pushes)
        counter("repro_eventcore_heap_pops_total",
                help="Timed warp wakeups popped from the heap"
                ).inc(heap.pops)
        TELEMETRY.histogram(
            "repro_eventcore_heap_max_depth",
            bounds=DEPTH_BUCKETS,
            help="Peak wakeup-heap depth per simulation",
        ).observe(float(heap.max_depth))
        for kind, count in (
            ("heap_wake", heap.pops),
            ("notify_wake", self._tel_wakes),
            ("buffered_wake", self._tel_buffered),
            ("sleep_heap", heap.pushes - self._tel_sleep_eager),
            ("sleep_eager", self._tel_sleep_eager),
            ("sleep_queue_empty", self._tel_reg_queue_empty),
            ("sleep_queue_full", self._tel_reg_queue_full),
            ("sleep_barrier", self._tel_reg_barrier),
        ):
            counter("repro_eventcore_events_total", {"type": kind},
                    help="Warp sleep/wake events by type").inc(count)
        skip = TELEMETRY.histogram(
            "repro_eventcore_skip_span_cycles",
            bounds=CYCLES_BUCKETS,
            help="Simulated cycles elided per clock jump",
        )
        for index, count in enumerate(self._tel_skip_counts):
            skip.counts[index] += count
        skip.sum += self._tel_skipped
        skip.count += self._tel_jumps

    def _scan_issue(
        self, pb_index: int, now: float, losers: list,
    ) -> bool | float:
        """The awake-warps-only mirror of ``SMSimulator._issue_pb``.

        Scans the block's awake warps in position order — the exact
        subsequence of the reference scan whose polls are not no-ops —
        and re-parks every warp that blocked.  Returns True on issue,
        else the earliest finite wake seen (for the clock jump).

        A plain op (ALU kind, no queue pop or push) is checked inline
        with the scoreboard subset of ``_can_issue`` (exactness note
        4), and priority keys are computed only when two or more warps
        are eligible: a lone eligible warp wins without one, and
        nothing a key reads changes while the block is scanned.
        """
        wake = INFINITY
        next_cycle = now + 1.0
        # WakeupHeap.push, inline.
        sleepers = self._heap._items
        # Edited in place: a warp that leaves the scan (done, asleep or
        # registered) is deleted at ``index``; same-cycle wakes with a
        # later position insort after ``index`` and are reached by the
        # loop.  Neither moves a warp already passed, so the recorded
        # slots stay valid.
        awake = self._awake[pb_index]
        # The eligible warps' slots in ``awake``, in scan order.
        eligible = self._slots
        eligible.clear()
        index = 0
        left = 0
        while index < len(awake):
            warp = awake[index]
            if warp.done:
                self._dead_tbs.add(warp.tb)
            elif warp.wake_at > now:
                # Not due yet (defensive; next processed cycle is
                # always <= any parked wake).  Same contribution as
                # the reference's skip.
                wake = min(wake, warp.wake_at)
                if self._park(warp, warp.wake_at, now):
                    index += 1
                    continue
            else:
                if not warp.pending_extra:
                    op = warp.ops[warp.pc]
                    if op[0] or op[5] is not None or op[6] is not None:
                        self._scan_pos = warp.pos
                        can, warp_wake, cause = self._can_issue(warp, now)
                        if not can:
                            if cause is not None:
                                self._note_stall(warp, now, cause)
                            warp.wake_at = warp_wake
                            wake = min(wake, warp_wake)
                            if self._park(warp, warp_wake, now):
                                index += 1
                                continue
                            del awake[index]
                            left += 1
                            continue
                    elif op[4]:
                        ready = now
                        scoreboard = warp.scoreboard
                        for reg in op[4]:
                            t = scoreboard.get(reg)
                            if t is not None and t > ready:
                                ready = t
                        if ready > now:
                            if warp.prof_cause != _SCOREBOARD:
                                self._close_stall(warp, now)
                                warp.prof_cause = _SCOREBOARD
                            warp.wake_at = ready
                            if ready < wake:
                                wake = ready
                            if ready <= next_cycle:
                                index += 1
                                continue
                            heappush(sleepers, (ready, warp.key, warp))
                            del awake[index]
                            left += 1
                            continue
                eligible.append(index)
                index += 1
                continue
            del awake[index]
            left += 1
        self._tel_polls += index + left
        # Winner execution: events become visible to later blocks this
        # cycle, to this block (and earlier ones) next cycle.
        self._scan_pos = _AFTER_ALL
        if not eligible:
            return wake
        best_slot = eligible[0]
        if len(eligible) > 1:
            best_slot = self._arbitrate(pb_index, now, awake, losers)
        best = awake[best_slot]
        self._execute(best, now)
        self._greedy[pb_index] = best.key
        if best.done:
            self._dead_tbs.add(best.tb)
        elif not best.pending_extra:
            # Eager scoreboard sleep (exactness note 3): if the next
            # instruction's operands are not ready at now + 1, sleep
            # until they are instead of being polled at now + 1.  This
            # is the scoreboard check of _can_issue, which is free of
            # side effects; the rest of _can_issue is not (a BAR_SYNC
            # arrives), so it cannot run a cycle early.
            src_regs = best.ops[best.pc][4]
            if src_regs:
                ready = next_cycle
                scoreboard = best.scoreboard
                for reg in src_regs:
                    t = scoreboard.get(reg)
                    if t is not None and t > ready:
                        ready = t
                if ready > next_cycle:
                    del awake[best_slot]
                    best.wake_at = ready
                    best.prof_cause = _SCOREBOARD
                    heappush(sleepers, (ready, best.key, best))
                    self._tel_sleep_eager += 1
        return True

    def _arbitrate(
        self, pb_index: int, now: float, awake: list[_WarpRun],
        losers: list,
    ) -> int:
        """The winner's slot in ``awake`` among two or more eligible
        warps (``self._slots``); the others join ``losers``."""
        greedy = self._greedy[pb_index]
        # Baseline hardware is pipeline-agnostic: plain GTO order.
        key_fn = self._key_fn if self._pipeline_aware else _GTO_KEY
        queue_bits = self._queue_bits
        keyed = []
        best_slot = -1
        best_key = None
        for slot in self._slots:
            warp = awake[slot]
            ready = full = False
            if queue_bits:
                # Inlined queue-scoreboard scan; see SMSimulator._issue_pb.
                for chan in warp.in_channels:
                    entries = chan._entries
                    if entries and entries[0] <= now:
                        ready = True
                    if len(entries) + chan.reserved >= chan.capacity:
                        full = True
            key = key_fn(warp.key, warp.pipe_stage_id, ready, full,
                         warp.last_issued, warp.age, greedy)
            keyed.append((key, warp.key, warp))
            if best_slot < 0 or key < best_key:
                best_slot, best_key = slot, key
        best = awake[best_slot]
        for entry in keyed:
            if entry[2] is not best:
                losers.append(entry)
        return best_slot

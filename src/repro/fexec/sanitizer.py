"""Vector-clock SMEM race sanitizer: the dynamic half of the HB gate.

The static happens-before engine (:mod:`repro.analysis.dataflow.hb`)
proves orderings over *static* sites; this sanitizer observes one
concrete execution inside :class:`repro.fexec.machine.FunctionalMachine`
— the only layer where SMEM addresses are real — and reports every
cross-stage conflicting access pair that no synchronization ordered.
``repro racediff`` cross-checks the two layers: every race observed
here must be statically flagged (the no-false-negatives direction of
the trust chain, same shape as ``repro corediff``).

Clock discipline (FastTrack-style, warp-granular):

* each warp carries a vector clock; its own component increments at
  every *release* (BAR.ARRIVE, queue push/pop, BAR.SYNC pass);
* ``BAR.ARRIVE`` publishes the arriving warp's clock; a passing
  ``BAR.WAIT`` joins the first ``threshold`` published clocks, where
  ``threshold`` is the barrier's own count for that wait
  (:meth:`~repro.fexec.barriers.TimedArriveWait.threshold`) — exactly
  the arrivals without which it could not have passed;
* ``BAR.SYNC`` is a rendezvous: every passer of phase *p* joins the
  merge of all warps' clocks at that phase;
* queue entries carry the pusher's clock to the popper (FIFO data
  edge), and the *n*-th push joins the popper's clock after pop
  *n − K* (the synthetic **credit edge** for the timing model's
  bounded queue of ``K = NamedQueueSpec.size`` entries — the
  functional queues themselves are unbounded, but the static engine
  and the simulator both enforce K, so the sanitizer must too).

Scope deliberately matches the static pass: only accesses executed
from a pipeline-stage code section count (dispatch excluded), and only
pairs from *different* stages are reported — same-stage cross-warp
races are out of scope for both layers.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.analysis.cfg import stage_of_label
from repro.core.specs import ThreadBlockSpec
from repro.isa.program import Program

#: Group name for SMEM words outside every declared buffer — matches
#: the static site collector's anonymous fallback group.
ANON_GROUP = "__smem__"

#: Circular-buffer ring copies (``name__db``, ``name__db2``, ...) share
#: their base buffer's group so verdicts align with the static pass.
_COPY_SUFFIX = re.compile(r"__db\d*$")


@dataclass(frozen=True)
class SanitizerRace:
    """One unordered cross-stage conflicting SMEM access pair."""

    group: str
    address: int
    kind: str  # "write-write" | "write-read" | "read-write"
    first_stage: int
    first_warp: int
    second_stage: int
    second_warp: int
    tb_id: int = 0

    @property
    def stage_pair(self) -> frozenset[int]:
        return frozenset((self.first_stage, self.second_stage))

    def format(self) -> str:
        return (
            f"{self.kind} race on {self.group!r} word {self.address}: "
            f"stage {self.first_stage} (warp {self.first_warp}) vs "
            f"stage {self.second_stage} (warp {self.second_warp}) "
            f"unordered (tb {self.tb_id})"
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "group": self.group,
            "address": self.address,
            "kind": self.kind,
            "first_stage": self.first_stage,
            "first_warp": self.first_warp,
            "second_stage": self.second_stage,
            "second_warp": self.second_warp,
            "tb_id": self.tb_id,
        }


class SmemSanitizer:
    """Vector clocks + SMEM shadow state for one thread block."""

    def __init__(
        self, program: Program, num_warps: int, tb_id: int = 0
    ) -> None:
        self.tb_id = tb_id
        self.num_warps = num_warps
        words = max(1, program.smem_words)
        spec = program.tb_spec
        self._spec = spec if isinstance(spec, ThreadBlockSpec) else None

        #: Section stage per block index (DISPATCH = -1), so the
        #: machine can attribute each access to the stage whose code
        #: performed it — mirroring the static site collector.
        self.block_stage: list[int] = [
            stage_of_label(b.label) for b in program.blocks
        ]
        self._warp_stage = np.zeros(num_warps, dtype=np.int64)
        if self._spec is not None:
            for w in range(num_warps):
                if w < self._spec.num_warps:
                    self._warp_stage[w] = self._spec.stage_of_warp(w)

        # Vector clocks: row w is warp w's clock; own entries start at
        # 1 so tick 0 means "before everything".
        self._clocks = np.zeros((num_warps, num_warps), dtype=np.int64)
        for w in range(num_warps):
            self._clocks[w, w] = 1

        # Shadow memory: last write epoch per word, last read tick per
        # (warp, word).  A ring copy (``name__db``, ``name__db2``, ...)
        # shares its base buffer's group (see ``_COPY_SUFFIX``).
        self._last_writer = np.full(words, -1, dtype=np.int64)
        self._last_write_tick = np.zeros(words, dtype=np.int64)
        self._read_ticks = np.zeros((num_warps, words), dtype=np.int64)
        self._group_names: list[str] = []
        self._word_group = np.full(words, -1, dtype=np.int64)
        for name in sorted(program.smem_buffers):
            base, size = program.smem_buffers[name]
            group = _COPY_SUFFIX.sub("", name)
            if group not in self._group_names:
                self._group_names.append(group)
            idx = self._group_names.index(group)
            lo = max(0, base)
            hi = min(words, base + size)
            if lo < hi:
                self._word_group[lo:hi] = idx

        # Synchronization state.
        self._arrival_cummax: dict[str, list[np.ndarray]] = {}
        self._sync_rendezvous: dict[tuple[str, int], np.ndarray] = {}
        self._entry_clocks: dict[
            tuple[int, int], deque[np.ndarray]
        ] = {}
        self._pop_releases: dict[tuple[int, int], list[np.ndarray]] = {}
        self._push_counts: dict[tuple[int, int], int] = {}
        self._queue_size: dict[int, int] = {}
        if self._spec is not None:
            self._queue_size = {
                q.queue_id: max(1, q.size) for q in self._spec.queues
            }

        self.races: list[SanitizerRace] = []
        self._seen: set[tuple[str, str, int, int]] = set()

    # -- clock primitives ----------------------------------------------

    def _join(self, warp_id: int, other: np.ndarray) -> None:
        np.maximum(
            self._clocks[warp_id], other, out=self._clocks[warp_id]
        )

    def _release(self, warp_id: int) -> np.ndarray:
        """Snapshot the warp's clock, then advance its own epoch."""
        snap = self._clocks[warp_id].copy()
        self._clocks[warp_id, warp_id] += 1
        return snap

    # -- synchronization hooks -----------------------------------------

    def on_arrive(self, warp_id: int, barrier_id: str) -> None:
        snap = self._release(warp_id)
        history = self._arrival_cummax.setdefault(barrier_id, [])
        if history:
            snap = np.maximum(snap, history[-1])
        history.append(snap)

    def on_wait_pass(
        self, warp_id: int, barrier_id: str, threshold: int
    ) -> None:
        """Join the arrivals this wait provably consumed.

        The wait passed once ``threshold`` arrivals had landed, so
        those are ordered before it; later arrivals may have raced past.
        """
        history = self._arrival_cummax.get(barrier_id, [])
        if threshold > 0 and history:
            index = min(threshold, len(history)) - 1
            self._join(warp_id, history[index])

    def on_sync_pass(
        self, warp_id: int, barrier_id: str, phase: int
    ) -> None:
        key = (barrier_id, phase)
        rendezvous = self._sync_rendezvous.get(key)
        if rendezvous is None:
            # First passer: every warp has arrived (else it could not
            # pass) and arrived warps are blocked, so current clocks
            # are the arrival clocks.
            rendezvous = self._clocks.max(axis=0)
            self._sync_rendezvous[key] = rendezvous
        self._join(warp_id, rendezvous)
        self._clocks[warp_id, warp_id] += 1

    def on_push(
        self, warp_id: int, queue_id: int, slice_id: int
    ) -> None:
        key = (queue_id, slice_id)
        count = self._push_counts.get(key, 0)
        self._push_counts[key] = count + 1
        capacity = self._queue_size.get(queue_id)
        if capacity is not None and count >= capacity:
            releases = self._pop_releases.get(key, [])
            index = count - capacity
            if index < len(releases):
                self._join(warp_id, releases[index])
        self._entry_clocks.setdefault(key, deque()).append(
            self._release(warp_id)
        )

    def on_pop(
        self, warp_id: int, queue_id: int, slice_id: int
    ) -> None:
        key = (queue_id, slice_id)
        entries = self._entry_clocks.get(key)
        if entries:
            self._join(warp_id, entries.popleft())
        self._pop_releases.setdefault(key, []).append(
            self._release(warp_id)
        )

    # -- SMEM access hooks ---------------------------------------------

    def on_read(
        self, warp_id: int, stage: int, addrs: np.ndarray
    ) -> None:
        if stage < 0:
            return
        addrs = np.unique(np.asarray(addrs, dtype=np.int64))
        clock = self._clocks[warp_id]
        writers = self._last_writer[addrs]
        ticks = self._last_write_tick[addrs]
        conflict = (
            (writers >= 0)
            & (self._warp_stage[writers] != stage)
            & (ticks > clock[writers])
        )
        if conflict.any():
            self._report(
                "write-read", addrs, conflict, writers,
                self._warp_stage[writers], warp_id, stage,
            )
        self._read_ticks[warp_id, addrs] = clock[warp_id]

    def on_write(
        self, warp_id: int, stage: int, addrs: np.ndarray
    ) -> None:
        if stage < 0:
            return
        addrs = np.unique(np.asarray(addrs, dtype=np.int64))
        clock = self._clocks[warp_id]
        writers = self._last_writer[addrs]
        ticks = self._last_write_tick[addrs]
        conflict = (
            (writers >= 0)
            & (self._warp_stage[writers] != stage)
            & (ticks > clock[writers])
        )
        if conflict.any():
            self._report(
                "write-write", addrs, conflict, writers,
                self._warp_stage[writers], warp_id, stage,
            )
        for other in range(self.num_warps):
            if other == warp_id or self._warp_stage[other] == stage:
                continue
            read = self._read_ticks[other, addrs] > clock[other]
            if read.any():
                others = np.full(len(addrs), other, dtype=np.int64)
                self._report(
                    "read-write", addrs, read, others,
                    self._warp_stage[others], warp_id, stage,
                )
        self._last_writer[addrs] = warp_id
        self._last_write_tick[addrs] = clock[warp_id]

    def _report(
        self,
        kind: str,
        addrs: np.ndarray,
        conflict: np.ndarray,
        other_warps: np.ndarray,
        other_stages: np.ndarray,
        warp_id: int,
        stage: int,
    ) -> None:
        for pos in np.flatnonzero(conflict):
            address = int(addrs[pos])
            group_idx = int(self._word_group[address])
            group = (
                self._group_names[group_idx]
                if group_idx >= 0 else ANON_GROUP
            )
            other_stage = int(other_stages[pos])
            key = (
                group, kind,
                min(stage, other_stage), max(stage, other_stage),
            )
            if key in self._seen:
                continue
            self._seen.add(key)
            self.races.append(SanitizerRace(
                group=group,
                address=address,
                kind=kind,
                first_stage=other_stage,
                first_warp=int(other_warps[pos]),
                second_stage=stage,
                second_warp=warp_id,
                tb_id=self.tb_id,
            ))

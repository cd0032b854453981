"""Wakeup heap for the event-skipping SM core.

The heap holds *sleeping* warps — warps whose next issue attempt has a
known finite time (a scoreboard release, a queue head's data-ready
time, an MSHR fill, a timed barrier release).  The event core pops
every warp whose time has come at the top of each processed cycle and
re-admits it to the arbitration scan; between pops the warp costs
nothing.

Entries are ``(wake time, warp key, warp)``.  The warp key breaks time
ties, so the pop order of simultaneous wakeups is a pure function of
the heap *contents* — independent of the order events were inserted.
(The scan then re-sorts awake warps by their processing-block position
anyway, but deterministic pop order keeps the data structure itself
reproducible, which the edge-case tests assert directly.)
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any

from repro.fexec.barriers import INFINITY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.sm import _WarpRun

__all__ = ["WakeupHeap"]


class WakeupHeap:
    """Min-heap of sleeping warps keyed by wake time, tie-broken by key.

    Keeps raw telemetry tallies (pushes, pops, peak depth) as plain
    integer adds; the event core harvests them into the metrics
    registry at end of run (DESIGN.md §7) so the counters cost a few
    attribute adds even when telemetry is disabled.
    """

    __slots__ = ("_items", "pushes", "pops", "max_depth")

    def __init__(self) -> None:
        self._items: list[tuple[float, int, Any]] = []
        self.pushes = 0
        self.pops = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def push(self, time: float, warp: "_WarpRun") -> None:
        heapq.heappush(self._items, (time, warp.key, warp))
        self.pushes += 1
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def next_time(self) -> float:
        """Earliest wake time in the heap (inf when empty)."""
        if not self._items:
            return INFINITY
        return self._items[0][0]

    def pop(self) -> "_WarpRun":
        """Remove and return the warp with the earliest wake time."""
        self.pops += 1
        return heapq.heappop(self._items)[2]

    def pop_due(self, now: float) -> list["_WarpRun"]:
        """Remove and return every warp whose wake time is <= ``now``.

        Returned in (time, key) order — deterministic regardless of
        insertion order.
        """
        items = self._items
        due: list[Any] = []
        while items and items[0][0] <= now:
            due.append(heapq.heappop(items)[2])
        self.pops += len(due)
        return due

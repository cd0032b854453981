"""Worklist dataflow framework: lattices, transfers, fixpoint solver.

A :class:`DataflowProblem` is a directed graph plus a join-semilattice
of facts and an *edge* transfer function.  The solver computes the
least fixpoint of

    value[n]  =  initial(n)  ⊔  ⊔ { transfer(u, n, value[u]) : u → n }

(edges reversed for :attr:`Direction.BACKWARD`) by chaotic iteration
with a FIFO worklist.  Edge transfers subsume the classic block-level
formulation — fold the source block's transfer into every outgoing
edge — and additionally express edge-weighted problems such as
min-plus shift propagation.

Termination requires the usual conditions: monotone transfers and a
lattice with no infinite ascending chains from the initial values.
The two stock lattices below guarantee both — :class:`MinShiftLattice`
clamps unbounded descent to ``-inf``, and :class:`MeetSetLattice`
intersects finite sets downward from an implicit universe.
:class:`MinShiftLattice` also specifies the happens-before engine's
dedicated shortest-shift solver (:mod:`.hb`); :func:`solve` over it
is that solver's reference in the tests.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generic, Hashable, Mapping, TypeVar

N = TypeVar("N", bound=Hashable)
V = TypeVar("V")
T = TypeVar("T", bound=Hashable)


class Direction(enum.Enum):
    """Which way facts flow relative to the graph's edges."""

    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class MinShiftLattice:
    """Min-plus lattice over iteration shifts: ``float`` = int ∪ ±inf.

    ``join`` is ``min`` (smaller shift = stronger ordering claim) and
    the identity/bottom element is ``+inf`` ("no path").  ``add``
    implements the transfer arithmetic: summing edge shifts along a
    path, absorbing at ``±inf`` and clamping runaway descent (a
    negative cycle) to ``-inf`` so fixpoints always terminate.
    """

    clamp: int = 1 << 20

    def bottom(self) -> float:
        return float("inf")

    def join(self, a: float, b: float) -> float:
        return a if a <= b else b

    def leq(self, a: float, b: float) -> bool:
        """True when ``b`` already subsumes ``a`` (a ≥ b here)."""
        return a >= b

    def add(self, value: float, shift: float) -> float:
        if value == float("inf") or shift == float("inf"):
            return float("inf")
        total = value + shift
        if total < -self.clamp:
            return float("-inf")
        return total


@dataclass(frozen=True)
class MeetSetLattice(Generic[T]):
    """Intersection lattice over finite sets with an implicit universe.

    ``None`` is the top/identity element ("every fact holds", used for
    not-yet-visited predecessors in optimistic forward analyses such as
    definite assignment and dominators); joining intersects.
    """

    def bottom(self) -> frozenset[T] | None:
        return None

    def join(
        self, a: frozenset[T] | None, b: frozenset[T] | None
    ) -> frozenset[T] | None:
        if a is None:
            return b
        if b is None:
            return a
        return a & b

    def leq(
        self, a: frozenset[T] | None, b: frozenset[T] | None
    ) -> bool:
        """True when ``b`` already subsumes ``a`` (a ⊇ b here)."""
        if b is None:
            return a is None
        if a is None:
            return True
        return a >= b


@dataclass(frozen=True)
class DataflowProblem(Generic[N, V]):
    """One dataflow instance: graph, lattice, transfers, seeds."""

    nodes: tuple[N, ...]
    successors: Mapping[N, tuple[N, ...]]
    bottom: Callable[[], V]
    join: Callable[[V, V], V]
    leq: Callable[[V, V], bool]
    transfer: Callable[[N, N, V], V]
    initial: Mapping[N, V] = field(default_factory=dict)
    direction: Direction = Direction.FORWARD


def solve(problem: DataflowProblem[N, V]) -> dict[N, V]:
    """Least-fixpoint chaotic iteration over ``problem``.

    Returns the final fact at every node.  Nodes unreachable from any
    seeded initial value keep the lattice bottom.
    """
    edges: dict[N, list[N]] = {n: [] for n in problem.nodes}
    if problem.direction is Direction.FORWARD:
        for src, dsts in problem.successors.items():
            edges[src] = list(dsts)
    else:
        for src, dsts in problem.successors.items():
            for dst in dsts:
                edges[dst].append(src)

    values: dict[N, V] = {n: problem.bottom() for n in problem.nodes}
    worklist: deque[N] = deque()
    queued: set[N] = set()
    for node, value in problem.initial.items():
        values[node] = problem.join(values[node], value)
        if node not in queued:
            worklist.append(node)
            queued.add(node)

    while worklist:
        node = worklist.popleft()
        queued.discard(node)
        value = values[node]
        for succ in edges[node]:
            contribution = problem.transfer(node, succ, value)
            if problem.leq(contribution, values[succ]):
                continue
            values[succ] = problem.join(values[succ], contribution)
            if succ not in queued:
                worklist.append(succ)
                queued.add(succ)
    return values


def dominators(
    entry: N,
    nodes: tuple[N, ...],
    successors: Mapping[N, tuple[N, ...]],
) -> dict[N, frozenset[N]]:
    """Dominator sets for every node reachable from ``entry``.

    Expressed as an instance of the framework: facts are "the set of
    nodes on every path from the entry", joined by intersection, with
    each edge contributing its destination.  Nodes unreachable from
    ``entry`` map to the empty set.
    """
    lattice: MeetSetLattice[N] = MeetSetLattice()

    def transfer(
        src: N, dst: N, value: frozenset[N] | None
    ) -> frozenset[N] | None:
        if value is None:
            return None
        return value | {dst}

    problem = DataflowProblem(
        nodes=nodes,
        successors=successors,
        bottom=lattice.bottom,
        join=lattice.join,
        leq=lattice.leq,
        transfer=transfer,
        initial={entry: frozenset({entry})},
    )
    solution = solve(problem)
    return {
        node: value if value is not None else frozenset()
        for node, value in solution.items()
    }

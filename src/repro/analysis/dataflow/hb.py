"""Happens-before ordering engine over the stage-partitioned CFG.

The engine abstracts a pipelined kernel into an *event graph*: one node
per synchronization or SMEM-access instruction, and directed edges
labelled with an **iteration shift** δ.  An edge ``u →δ→ v`` claims

    the i-th dynamic occurrence of ``u`` happens-before the
    (i+δ)-th dynamic occurrence of ``v``, for every i

where an occurrence of a site inside a loop is one loop iteration (all
warps of the stage), and a site outside any loop occurs once.  Edge
sources:

* **program order** (δ=0) between sites of one stage whose blocks
  execute exactly once per iteration (they dominate the loop latch),
  plus a δ=1 backedge closing each loop;
* **arrive/wait barriers**: with expected count E per generation and
  initial credit C (C a multiple of E), every arrive site
  happens-before every wait site at δ = C/E — the n-th wait passes only
  once ``initial_credit + arrivals ≥ n·expected``
  (:class:`repro.fexec.barriers.TimedArriveWait`), which needs at
  least one gen-(n−1−C/E) arrival;
* **BAR.SYNC**: the k-th sync of every participating stage is one
  rendezvous — bidirectional δ=0 edges;
* **queues** (single-warp endpoint stages only): FIFO data edges
  push→pop, and *credit* edges pop→push at δ = ⌈K/c⌉ reflecting the
  timing model's bounded queue of K entries (c pushed per iteration);
* **TMA completion**: the transfer's implicit completion arrive
  (``attrs['barrier']``) enters through the ordinary barrier sites.

Min-plus shortest shifts d(u,v) — the strongest provable ordering —
come from a FIFO relaxation over integer event ids, one per source
event.  It computes exactly the fixpoint that
:func:`repro.analysis.dataflow.framework.solve` reaches over the
:class:`MinShiftLattice` (the reference the tests compare it with):
``+inf`` is "no path" and a total below ``-clamp`` (a negative cycle)
becomes ``-inf``.  A cross-stage access pair (W writes,
T touches) is then unordered exactly at occurrence shifts
``s = j − i`` in the open window ``(−d(T,W), d(W,T))``; the pair races
iff some unordered shift can touch the same circular-buffer phase
(``s ≡ r (mod N)`` for N phases).  Known approximations are documented
in DESIGN.md §6e.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping

from repro.analysis.cfg import DISPATCH, NaturalLoop
from repro.analysis.dataflow.framework import MinShiftLattice, dominators
from repro.analysis.sites import SmemAccess, arrivals_per_iteration
from repro.errors import ValidationError
from repro.telemetry.spans import span

if TYPE_CHECKING:
    from repro.analysis.facts import PipelineFacts

INF = float("inf")

#: Totals below ``-_CLAMP`` are a negative cycle and become ``-inf``.
_CLAMP = MinShiftLattice().clamp

ORDERED = "ordered"
RACY = "racy"
PHASE_DISJOINT = "phase-disjoint"

#: Credit depth used for the attribution re-solve: would the pair be
#: ordered if queue back-pressure allowed only one iteration in flight?
_TIGHT_CREDIT = 1


@dataclass(frozen=True, order=True)
class Event:
    """One static site in the event graph, ordered by layout position."""

    stage: int
    block_ord: int
    instr_ord: int
    block: str


@dataclass(frozen=True)
class PhaseInfo:
    """Which circular-buffer phase an access touches.

    ``index`` is a fixed phase (a double-buffer copy, or an unrolled
    circular-buffer slot); with ``rotating`` the site cycles through
    phases as ``(occurrence + index) mod period`` — the contract for
    modulo-indexed N-stage circular buffers.  ``index is None`` means
    the phase is statically unknown: the access conservatively
    conflicts with every phase.
    """

    period: int
    index: int | None
    rotating: bool = False


@dataclass(frozen=True)
class AccessInfo:
    """One SMEM access lifted into the event graph."""

    event: Event
    stage: int
    block: str
    instr_repr: str
    is_write: bool
    group: str | None
    phase: PhaseInfo
    address: int | None
    #: Block is outside every section loop: at most one occurrence,
    #: so the only feasible occurrence shift against any other
    #: once-only site is 0.
    once: bool = False


@dataclass(frozen=True)
class PairVerdict:
    """Classification of one cross-stage access pair on one buffer."""

    group: str
    writer: AccessInfo
    other: AccessInfo
    verdict: str  # ORDERED | RACY | PHASE_DISJOINT
    rule: str | None  # WASP-S001/S004/S005 when racy
    d_wt: float  # min shift writer -> other
    d_tw: float  # min shift other -> writer


@dataclass
class HBAnalysis:
    """The engine's full output for one program."""

    accesses: list[AccessInfo] = field(default_factory=list)
    unresolved: list[AccessInfo] = field(default_factory=list)
    verdicts: list[PairVerdict] = field(default_factory=list)
    num_events: int = 0
    num_edges: int = 0

    def racy(self) -> list[PairVerdict]:
        return [v for v in self.verdicts if v.verdict == RACY]

    def racy_stage_pairs(self) -> set[tuple[str, frozenset[int]]]:
        """Buffer-group + unordered stage pair for every static race."""
        return {
            (v.group, frozenset((v.writer.stage, v.other.stage)))
            for v in self.racy()
        }

    def skipped_stage_groups(self) -> set[tuple[str | None, int]]:
        """(group, stage) of accesses excluded as unresolvable (S003)."""
        return {(a.group, a.stage) for a in self.unresolved}


class _EventGraph:
    """Shift-labelled event graph plus cached min-plus solves.

    Events get dense integer ids in insertion order.  ``_succs[u]``
    maps each successor id to the minimum shift over the parallel
    edges ``u → v``: only that one can lie on a shortest path.
    """

    def __init__(self) -> None:
        self.nodes: list[Event] = []
        self._ids: dict[Event, int] = {}
        self._succs: list[dict[int, int]] = []
        self._dists: dict[int, list[float]] = {}
        self.num_edges = 0

    def add_node(self, event: Event) -> int:
        node = self._ids.get(event)
        if node is None:
            node = self._ids[event] = len(self.nodes)
            self.nodes.append(event)
            self._succs.append({})
        return node

    def add_edge(self, src: Event, dst: Event, shift: int) -> None:
        out = self._succs[self.add_node(src)]
        node = self.add_node(dst)
        if node not in out or shift < out[node]:
            out[node] = shift
        self.num_edges += 1

    def dist(self, src: Event, dst: Event) -> float:
        """Min total shift over all paths src → dst (+inf if none)."""
        source = self._ids[src]
        dists = self._dists.get(source)
        if dists is None:
            dists = self._dists[source] = self._solve_from(source)
        node = self._ids.get(dst)
        return INF if node is None else dists[node]

    def _solve_from(self, src: int) -> list[float]:
        """FIFO min-plus relaxation from ``src``.

        The worklist order and the arithmetic are those of
        ``framework.solve`` over :class:`MinShiftLattice` seeded with
        ``{src: 0.0}``: only nodes with a finite or ``-inf`` distance
        are ever queued, so ``+inf`` absorbs, and a total below
        ``-_CLAMP`` becomes ``-inf``, which ends every negative cycle.
        """
        succs = self._succs
        dists = [INF] * len(succs)
        dists[src] = 0.0
        queued = [False] * len(succs)
        queued[src] = True
        worklist = deque([src])
        floor = -_CLAMP
        while worklist:
            node = worklist.popleft()
            queued[node] = False
            base = dists[node]
            for succ, shift in succs[node].items():
                total = base + shift
                if total < floor:
                    total = -INF
                if total < dists[succ]:
                    dists[succ] = total
                    if not queued[succ]:
                        queued[succ] = True
                        worklist.append(succ)
        return dists


def analyze_hb(facts: PipelineFacts) -> HBAnalysis:
    """Run the happens-before engine and classify every access pair.

    Read the result through :attr:`PipelineFacts.hb`, which solves
    once per program.  Graph construction runs under the
    ``hb-build`` span and the shortest-shift solves under
    ``hb-solve``.
    """
    with span("verifier", "hb-build"):
        builder = _GraphBuilder(facts)
        graph = builder.build()
    with span("verifier", "hb-solve"):
        analysis, pending = _classify(builder, graph)
    if pending:
        # Pairs racy only at non-zero shifts: re-solve with depth-1
        # queue credit to tell credit underflow (S005) from phase
        # overlap (S004).
        with span("verifier", "hb-build"):
            tight = builder.build(credit_depth=_TIGHT_CREDIT)
        with span("verifier", "hb-solve"):
            for index, residue in pending:
                verdict = analysis.verdicts[index]
                t_wt = tight.dist(verdict.writer.event, verdict.other.event)
                t_tw = tight.dist(verdict.other.event, verdict.writer.event)
                rule = (
                    "WASP-S004" if _window_hits(t_wt, t_tw, residue)
                    else "WASP-S005"
                )
                analysis.verdicts[index] = replace(verdict, rule=rule)
    return analysis


def _classify(
    builder: _GraphBuilder, graph: _EventGraph
) -> tuple[HBAnalysis, list[tuple[int, tuple[int, int]]]]:
    """Classify every pair on the base graph.

    Also returns ``(verdict index, conflict residue)`` of each racy
    pair whose rule needs the tight-credit re-solve; its verdict
    carries ``rule=None`` until :func:`analyze_hb` attributes it.
    """
    analysis = HBAnalysis()
    analysis.accesses = builder.accesses
    analysis.unresolved = [
        a for a in builder.accesses if a.group is None
    ]
    analysis.num_events = len(graph.nodes)
    analysis.num_edges = graph.num_edges
    pending: list[tuple[int, tuple[int, int]]] = []

    by_group: dict[str, list[AccessInfo]] = {}
    for access in builder.accesses:
        if access.group is not None and access.stage != DISPATCH:
            by_group.setdefault(access.group, []).append(access)

    for group in sorted(by_group):
        accesses = sorted(by_group[group], key=lambda a: a.event)
        for writer in accesses:
            if not writer.is_write:
                continue
            for other in accesses:
                if other.stage == writer.stage:
                    continue
                d_wt = graph.dist(writer.event, other.event)
                d_tw = graph.dist(other.event, writer.event)
                residue = _conflict_residue(writer.phase, other.phase)
                if residue is None:
                    verdict, rule = PHASE_DISJOINT, None
                elif writer.once and other.once:
                    # Both sites are straight-line (at most one
                    # occurrence each): shift 0 is the only feasible
                    # pairing, so the open-window sweep over all
                    # integer shifts would over-report.
                    if not _residue_matches(0, residue):
                        verdict, rule = PHASE_DISJOINT, None
                    elif _shift_unordered(0, d_wt, d_tw):
                        verdict, rule = RACY, "WASP-S001"
                    else:
                        verdict, rule = ORDERED, None
                elif not _window_hits(d_wt, d_tw, residue):
                    verdict, rule = ORDERED, None
                elif _shift_unordered(0, d_wt, d_tw) and (
                    _residue_matches(0, residue)
                ):
                    verdict, rule = RACY, "WASP-S001"
                else:
                    verdict, rule = RACY, None
                    pending.append((len(analysis.verdicts), residue))
                analysis.verdicts.append(PairVerdict(
                    group=group,
                    writer=writer,
                    other=other,
                    verdict=verdict,
                    rule=rule,
                    d_wt=d_wt,
                    d_tw=d_tw,
                ))
    return analysis, pending


# -- shift-window arithmetic ------------------------------------------


def _shift_unordered(s: int, d_wt: float, d_tw: float) -> bool:
    """Is occurrence shift ``s`` inside the unordered open window?"""
    return -d_tw < s < d_wt


def _residue_matches(
    s: int, residue: tuple[int, int]
) -> bool:
    period, rem = residue
    return s % period == rem


def _window_hits(
    d_wt: float, d_tw: float, residue: tuple[int, int]
) -> bool:
    """Does any conflicting shift fall inside the unordered window?

    The window is the open interval (−d_tw, d_wt); conflicting shifts
    are ``s ≡ rem (mod period)``.
    """
    period, rem = residue
    if d_tw == INF or d_wt == INF:
        # A half-open (or fully open) window contains arbitrarily
        # large |s|, so every residue class hits it.
        return True
    # Finite: integers s with 1 - d_tw <= s <= d_wt - 1.
    lo = 1 - int(d_tw)
    hi = int(d_wt) - 1
    if lo > hi:
        return False
    s = lo + ((rem - lo) % period)  # smallest s >= lo in the class
    return s <= hi


def _conflict_residue(
    a: PhaseInfo, b: PhaseInfo
) -> tuple[int, int] | None:
    """Shifts ``s = occ(b) − occ(a)`` at which the phases coincide.

    Returns ``(period, remainder)`` — conflicting shifts are
    ``s ≡ remainder (mod period)`` — or ``None`` when the two sites
    can never touch the same phase.  Unknown or mismatched phase
    schemes conservatively conflict at every shift.
    """
    if a.index is None or b.index is None:
        return (1, 0)
    if a.rotating or b.rotating:
        if a.rotating and b.rotating and a.period == b.period:
            # (i + a.index) ≡ (j + b.index) (mod N)  ⇔
            # s = j − i ≡ a.index − b.index (mod N)
            return (a.period, (a.index - b.index) % a.period)
        return (1, 0)
    if a.index == b.index:
        return (1, 0)
    return None


# -- event-graph construction -----------------------------------------


class _GraphBuilder:
    """Builds the shift-labelled event graph from one program's facts."""

    def __init__(self, facts: PipelineFacts) -> None:
        view = facts.view
        self.view = view
        self.sites = facts.sites
        self.spec = facts.spec
        self._facts = facts
        # Layout position of every instruction in a reachable block.
        self._pos: dict[int, Event] = {}
        self._block_ord: dict[str, int] = {}
        self._stage_blocks: dict[int, list[str]] = {}
        ord_counter = 0
        for stage in sorted(view.sections):
            labels: list[str] = []
            for block in view.reachable_blocks(stage):
                self._block_ord[block.label] = ord_counter
                labels.append(block.label)
                for idx, instr in enumerate(block.instructions):
                    self._pos[id(instr)] = Event(
                        stage=stage,
                        block_ord=ord_counter,
                        instr_ord=idx,
                        block=block.label,
                    )
                ord_counter += 1
            self._stage_blocks[stage] = labels
        self._doms = self._section_dominators()
        self._loops = {
            stage: facts.outermost_loops(stage) for stage in view.sections
        }
        self._aligned = self._aligned_blocks()
        self.accesses = self._collect_accesses()

    # -- structural facts ---------------------------------------------

    def _section_dominators(self) -> dict[str, frozenset[str]]:
        doms: dict[str, frozenset[str]] = {}
        for stage, labels in self._stage_blocks.items():
            if not labels:
                continue
            in_section = set(labels)
            succs = {
                label: tuple(
                    s for s in self.view.successors.get(label, ())
                    if s in in_section
                )
                for label in labels
            }
            result = dominators(labels[0], tuple(labels), succs)
            doms.update(result)
        return doms

    def _aligned_blocks(self) -> dict[str, NaturalLoop | None]:
        """Block -> its loop when the block runs once per iteration.

        Blocks outside every loop map to ``None`` (they execute at most
        once); guarded blocks — conditionally executed inside a loop,
        or part of a nested inner loop — are absent from the map and
        get no cross-block program-order edges.
        """
        aligned: dict[str, NaturalLoop | None] = {}
        for stage, labels in self._stage_blocks.items():
            loops = self._loops[stage]
            nested = self._facts.nested_blocks(stage)
            in_loop: dict[str, NaturalLoop] = {}
            for loop in loops:
                for label in loop.body:
                    in_loop[label] = loop
            for label in labels:
                loop = in_loop.get(label)
                if loop is None:
                    aligned[label] = None
                    continue
                if label in nested:
                    continue  # inner-loop block: occurrence count skews
                latch_doms = self._doms.get(loop.body[-1], frozenset())
                if label in latch_doms:
                    aligned[label] = loop
        return aligned

    # -- event collection ---------------------------------------------

    def _collect_accesses(self) -> list[AccessInfo]:
        buffers = self.view.program.smem_buffers
        looped = {
            stage: {
                label for loop in loops for label in loop.body
            }
            for stage, loops in self._loops.items()
        }
        accesses: list[AccessInfo] = []
        for site in self.sites.smem_accesses:
            accesses.append(AccessInfo(
                event=self._event_of(id(site.instr)),
                stage=site.stage,
                block=site.block,
                instr_repr=repr(site.instr),
                is_write=site.is_write,
                group=site.buffer,
                phase=_resolve_phase(site, buffers),
                address=site.address,
                once=site.block not in looped.get(site.stage, set()),
            ))
        return accesses

    def _event_of(self, instr_id: int) -> Event:
        return self._pos[instr_id]

    def _chain_eligible(self, event: Event) -> bool:
        """May ``event`` have cross-block program-order edges out?"""
        return event.block in self._aligned

    # -- graph assembly ------------------------------------------------

    def build(self, credit_depth: int | None = None) -> _EventGraph:
        graph = _EventGraph()
        interesting = self._interesting_events()
        for event in interesting:
            graph.add_node(event)
        self._add_program_order(graph, interesting)
        self._add_barrier_edges(graph)
        self._add_sync_edges(graph)
        self._add_queue_edges(graph, credit_depth)
        return graph

    def _interesting_events(self) -> list[Event]:
        ids: set[Event] = {a.event for a in self.accesses}
        for barrier in self.sites.barriers.values():
            for bsite in barrier.arrives + barrier.waits + barrier.syncs:
                ids.add(self._event_of(id(bsite.instr)))
        for queue in self.sites.queues.values():
            for qsite in queue.pushes + queue.pops:
                ids.add(self._event_of(id(qsite.instr)))
        return sorted(ids)

    def _add_program_order(
        self, graph: _EventGraph, events: list[Event]
    ) -> None:
        by_stage: dict[int, list[Event]] = {}
        for event in events:
            by_stage.setdefault(event.stage, []).append(event)
        for stage, stage_events in sorted(by_stage.items()):
            stage_events.sort()
            # Same-block chains are always sound (same execution
            # counts, instruction order).
            by_block: dict[str, list[Event]] = {}
            for event in stage_events:
                by_block.setdefault(event.block, []).append(event)
            for chain in by_block.values():
                for u, v in zip(chain, chain[1:]):
                    graph.add_edge(u, v, 0)
            # Cross-block: consecutive chain-eligible events.  An edge
            # u →0→ v claims u@i hb v@i, which needs u to execute at
            # least as often and earlier — guaranteed for latch
            # dominators of the same/earlier loop, and for
            # once-blocks dominating the destination.
            spine = [e for e in stage_events
                     if self._chain_eligible(e)]
            for u, v in zip(spine, spine[1:]):
                if u.block == v.block:
                    continue
                u_loop = self._aligned.get(u.block)
                if u_loop is None:
                    u_doms_v = u.block in self._doms.get(
                        v.block, frozenset()
                    )
                    if not u_doms_v:
                        continue
                graph.add_edge(u, v, 0)
            # Guarded events (inner-loop or conditional sites) are
            # bracketed at outer-iteration granularity: every one of
            # their executions inside iteration i falls after the
            # nearest preceding spine event's i-th occurrence and
            # before the nearest following spine event's i-th
            # occurrence — and, inside a loop, before anything in
            # iteration i+1.
            in_loop: dict[str, NaturalLoop] = {
                label: loop
                for loop in self._loops[stage]
                for label in loop.body
            }
            for event in stage_events:
                if self._chain_eligible(event):
                    continue
                prev = [e for e in spine if e < event]
                if prev:
                    u = prev[-1]
                    u_loop = self._aligned.get(u.block)
                    if u_loop is not None or u.block in self._doms.get(
                        event.block, frozenset()
                    ):
                        graph.add_edge(u, event, 0)
                following = [e for e in spine if event < e]
                if following:
                    graph.add_edge(event, following[0], 0)
                loop = in_loop.get(event.block)
                if loop is not None:
                    loop_spine = [
                        e for e in spine
                        if self._aligned.get(e.block) == loop
                    ]
                    if loop_spine:
                        graph.add_edge(event, loop_spine[0], 1)
            # Loop backedges: last aligned event → first, one
            # iteration later.
            by_loop: dict[NaturalLoop, list[Event]] = {}
            for event in stage_events:
                loop = self._aligned.get(event.block)
                if loop is not None:
                    by_loop.setdefault(loop, []).append(event)
            for loop_events in by_loop.values():
                loop_events.sort()
                graph.add_edge(loop_events[-1], loop_events[0], 1)

    def _barrier_delta(self, barrier_id: str) -> int | None:
        """δ for arrive→wait edges, or None when inexpressible.

        Requires the initial credit to be a whole number of
        generations (C % E == 0): with partial credit the n-th wait
        can pass on a strict subset of a generation's arrivals, so no
        per-site happens-before edge exists.
        """
        expected = 1
        initial = 0
        if self.spec is not None:
            expected = self.spec.barrier_expected.get(barrier_id, 1)
            initial = self.spec.barrier_initial.get(barrier_id, 0)
        if expected <= 0 or initial % expected != 0:
            return None
        return initial // expected

    def _add_barrier_edges(self, graph: _EventGraph) -> None:
        for barrier_id in sorted(self.sites.barriers):
            arrives = self.sites.barriers[barrier_id].arrives
            waits = self.sites.barriers[barrier_id].waits
            if not arrives or not waits:
                continue
            # Generation counting needs every arrive site to fire
            # exactly once per iteration (or once ever): a guarded
            # arrive breaks the cumulative-threshold argument.
            if not all(
                self._chain_eligible(self._event_of(id(a.instr)))
                for a in arrives
            ):
                continue
            # The per-site edge arrive@i hb wait@(i+δ) also needs the
            # arrivals of one iteration to make exactly one generation
            # (Σ site warps == expected).  An over-subscribed barrier
            # — e.g. a ring slot credited from an extra site — reaches
            # the wait threshold early, so no per-site edge holds;
            # dropping them lets the window analysis surface the
            # over-credited accesses as racy.
            if (
                self.spec is not None
                and barrier_id in self.spec.barrier_expected
                and arrivals_per_iteration(self.spec, arrives)
                != self.spec.barrier_expected[barrier_id]
            ):
                continue
            delta = self._barrier_delta(barrier_id)
            if delta is None:
                continue
            for arrive in arrives:
                for wait in waits:
                    # A guarded wait's n-th execution may be behind
                    # its iteration index, needing fewer arrivals
                    # than the edge claims — skip it.
                    wait_event = self._event_of(id(wait.instr))
                    if not self._chain_eligible(wait_event):
                        continue
                    graph.add_edge(
                        self._event_of(id(arrive.instr)),
                        wait_event,
                        delta,
                    )

    def _add_sync_edges(self, graph: _EventGraph) -> None:
        for barrier_id in sorted(self.sites.barriers):
            per_stage: dict[int, list[Event]] = {}
            for bsite in self.sites.barriers[barrier_id].syncs:
                per_stage.setdefault(bsite.stage, []).append(
                    self._event_of(id(bsite.instr))
                )
            if not all(
                self._chain_eligible(e)
                for events in per_stage.values() for e in events
            ):
                continue  # phase counting would skew
            counts = {len(evts) for evts in per_stage.values()}
            if len(per_stage) < 2 or len(counts) != 1:
                continue
            stages = sorted(per_stage)
            for stage_events in per_stage.values():
                stage_events.sort()
            count = counts.pop()
            for k in range(count):
                kth = [per_stage[s][k] for s in stages]
                for a in kth:
                    for b in kth:
                        if a is not b:
                            graph.add_edge(a, b, 0)

    def _add_queue_edges(
        self, graph: _EventGraph, credit_depth: int | None
    ) -> None:
        """FIFO data and capacity-credit edges, single-warp lanes only.

        Queues are per-(queue, stage-warp) lanes, so their edges order
        only same-lane occurrences; they are sound as all-warp claims
        exactly when both endpoint stages run one warp.
        """
        if self.spec is None:
            return
        for queue_id in sorted(self.sites.queues):
            pushes = self.sites.queues[queue_id].pushes
            pops = self.sites.queues[queue_id].pops
            if not pushes or not pops:
                continue
            if any(s.bulk for s in pushes + pops):
                continue  # data-dependent entry counts
            push_stages = {s.stage for s in pushes}
            pop_stages = {s.stage for s in pops}
            if len(push_stages) != 1 or len(pop_stages) != 1:
                continue  # Q001/Q002 territory
            sp, sc = push_stages.pop(), pop_stages.pop()
            if sp < 0 or sc < 0:
                continue
            if max(sp, sc) >= self.spec.num_stages:
                continue  # R006 territory: stage without a spec slot
            if len(self.spec.warps_in_stage(sp)) != 1 or (
                len(self.spec.warps_in_stage(sc)) != 1
            ):
                continue
            push_events = sorted(
                self._event_of(id(s.instr)) for s in pushes
            )
            pop_events = sorted(
                self._event_of(id(s.instr)) for s in pops
            )
            if len(push_events) != len(pop_events):
                continue  # Q004 territory: unbalanced per iteration
            if not all(
                self._chain_eligible(e)
                for e in push_events + pop_events
            ):
                continue  # guarded endpoint: occurrence counts skew
            c = len(push_events)
            capacity = credit_depth if credit_depth is not None else (
                self._queue_capacity(queue_id)
            )
            for k, push in enumerate(push_events):
                for m, pop in enumerate(pop_events):
                    # FIFO: entry i·c+k is popped at the consumer's
                    # occurrence i (site m=k), or i+1 for earlier
                    # pop sites.
                    graph.add_edge(push, pop, 0 if k <= m else 1)
                    # Credit: pushing entry (j+δ)·c+k needs
                    # (j+δ)c+k+1−K pops, i.e. the consumer past
                    # occurrence j of site m once δc ≥ K+m−k.
                    delta = -(-(capacity + m - k) // c)  # ceil div
                    graph.add_edge(pop, push, max(delta, 0))

    def _queue_capacity(self, queue_id: int) -> int:
        assert self.spec is not None
        try:
            queue = self.spec.queue_by_id(queue_id)
        except ValidationError:
            return 1
        return max(1, queue.size)


def _resolve_phase(
    site: SmemAccess, buffers: Mapping[str, tuple[int, int]]
) -> PhaseInfo:
    """Phase of one access within its buffer group.

    Order: an explicit ``smem_phase`` tag (with ``smem_phases`` for a
    rotating modulo-N schedule), then the physical ring-slot copy the
    address lands in, else unknown.  Ring copies follow the buffering
    pass's naming: slot 0 is the bare buffer, slot 1 is ``name__db``,
    slot k>=2 is ``name__db<k>``.
    """
    group = site.buffer
    copies: list[str] = []
    if group is not None and group in buffers:
        copies = [group]
        k = 1
        while True:
            partner = f"{group}__db" if k == 1 else f"{group}__db{k}"
            if partner not in buffers:
                break
            copies.append(partner)
            k += 1
    period = max(1, len(copies))

    attrs = site.instr.attrs
    tagged_phase = attrs.get("smem_phase")
    tagged_period = attrs.get("smem_phases")
    if isinstance(tagged_period, int) and tagged_period > 1:
        period = tagged_period
    if isinstance(tagged_phase, int):
        return PhaseInfo(
            period=period,
            index=tagged_phase % period,
            rotating=isinstance(tagged_period, int) and tagged_period > 1,
        )
    if site.address is not None and copies:
        for idx, name in enumerate(copies):
            base, words = buffers[name]
            if base <= site.address < base + words:
                return PhaseInfo(period=period, index=idx)
    if period == 1:
        return PhaseInfo(period=1, index=0)
    return PhaseInfo(period=period, index=None)

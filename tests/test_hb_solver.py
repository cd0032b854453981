"""The happens-before solver agrees with the dataflow framework.

``hb._EventGraph`` computes min-plus shortest shifts with a dedicated
FIFO relaxation over integer event ids.  The reference is the generic
:func:`~repro.analysis.dataflow.framework.solve` over
:class:`~repro.analysis.dataflow.framework.MinShiftLattice`, run on
the raw edge list the graph was built from, parallel edges included.

The synthetic graphs pin the lattice's corner cases.  The sweep
records every graph the engine builds (base and tight-credit) for the
toolchain benchmark's certify subset at ring depths 2/4/8, the fuzz
corpus and 20 fuzz seeds, each clean and under every
:mod:`repro.fuzz.mutate` operator, and compares every source's
distances, and every distance the classification queried, with the
reference.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.dataflow import hb
from repro.analysis.dataflow.framework import (
    DataflowProblem,
    MinShiftLattice,
    solve,
)
from repro.analysis.dataflow.hb import INF, Event
from repro.analysis.facts import PipelineFacts
from repro.analysis.lint import standard_option_sets
from repro.core.compiler import WaspCompiler
from repro.errors import ReproError
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import build_kernel
from repro.fuzz.mutate import MUTATIONS
from repro.fuzz.oracle import OPTION_SETS
from repro.fuzz.spec import generate_spec
from repro.isa.serialize import program_digest
from repro.sweeps import registry_kernels


#: The engine's graph class; the sweep patches the module's name.
EventGraph = hb._EventGraph


class _RecordingGraph(EventGraph):
    """An event graph that keeps its raw edges and its queries."""

    def __init__(self) -> None:
        super().__init__()
        self.raw: list[tuple[Event, Event, int]] = []
        self.queries: list[tuple[Event, Event, float]] = []

    def add_edge(self, src: Event, dst: Event, shift: int) -> None:
        self.raw.append((src, dst, shift))
        super().add_edge(src, dst, shift)

    def dist(self, src: Event, dst: Event) -> float:
        result = super().dist(src, dst)
        self.queries.append((src, dst, result))
        return result


def reference_dists(
    nodes: list[Event], edges: list[tuple[Event, Event, int]], src: Event
) -> dict[Event, float]:
    """Shortest shifts from ``src`` by ``framework.solve``."""
    lattice = MinShiftLattice()
    succs: dict[Event, list[Event]] = {n: [] for n in nodes}
    shifts: dict[tuple[Event, Event], int] = {}
    for u, v, shift in edges:
        succs[u].append(v)
        if (u, v) not in shifts or shift < shifts[(u, v)]:
            shifts[(u, v)] = shift
    problem: DataflowProblem[Event, float] = DataflowProblem(
        nodes=tuple(nodes),
        successors={n: tuple(out) for n, out in succs.items()},
        bottom=lattice.bottom,
        join=lattice.join,
        leq=lattice.leq,
        transfer=lambda u, v, value: lattice.add(value, shifts[(u, v)]),
        initial={src: 0.0},
    )
    return solve(problem)


def assert_matches_reference(graph: _RecordingGraph) -> None:
    """Every source's distances and every recorded query agree.

    Distances are compared by ``repr``: the verdicts carry them as
    floats (``2.0``, ``inf``, ``-inf``) into the pinned digests.
    """
    reference = {
        src: reference_dists(graph.nodes, graph.raw, src)
        for src in graph.nodes
    }
    for src, dst, got in graph.queries:
        assert repr(got) == repr(reference[src].get(dst, INF)), (src, dst)
    for src in graph.nodes:
        for dst in graph.nodes:
            want = reference[src][dst]
            assert repr(EventGraph.dist(graph, src, dst)) == repr(want)


def _event(n: int) -> Event:
    return Event(stage=n % 2, block_ord=n, instr_ord=0, block=f"b{n}")


A, B, C, D = (_event(n) for n in range(4))


def _graph(edges, nodes=()) -> _RecordingGraph:
    graph = _RecordingGraph()
    for node in nodes:
        graph.add_node(node)
    for u, v, shift in edges:
        graph.add_edge(u, v, shift)
    return graph


# -- synthetic graphs: the lattice's corner cases ----------------------


def test_unreachable_node_is_plus_inf():
    graph = _graph([(A, B, 1)], nodes=[C])
    assert graph.dist(A, B) == 1.0
    assert graph.dist(A, C) == INF
    assert graph.dist(C, A) == INF
    # An event outside the graph is unreachable too.
    assert graph.dist(A, D) == INF
    assert_matches_reference(graph)


def test_parallel_edges_keep_the_smallest_shift():
    graph = _graph([(A, B, 3), (A, B, 1), (A, B, 2), (B, C, 0)])
    assert graph.num_edges == 4
    assert graph.dist(A, B) == 1.0
    assert graph.dist(A, C) == 1.0
    assert_matches_reference(graph)


def test_zero_shift_sync_cycle_terminates_at_zero():
    # A BAR.SYNC rendezvous: bidirectional δ=0 edges between stages.
    graph = _graph([(A, B, 0), (B, A, 0), (B, C, 1)])
    assert graph.dist(A, B) == graph.dist(B, A) == 0.0
    assert graph.dist(A, A) == 0.0
    assert graph.dist(A, C) == 1.0
    assert repr(graph.dist(A, B)) == "0.0"
    assert_matches_reference(graph)


def test_negative_cycle_clamps_to_minus_inf():
    # A steep cycle: at -1 per lap the reference takes ~10**6 laps.
    graph = _graph([(A, B, -(1 << 18)), (B, A, 0), (B, C, 2), (D, A, 5)])
    for dst in (A, B, C):
        assert graph.dist(A, dst) == -INF
        assert graph.dist(D, dst) == -INF
    assert graph.dist(A, D) == INF
    assert_matches_reference(graph)


# -- every graph the engine builds ---------------------------------------


@pytest.fixture
def recorded(monkeypatch):
    """Every graph the engine builds, with its credit depth."""
    graphs: list[tuple[int | None, _RecordingGraph]] = []
    real_build = hb._GraphBuilder.build

    def build(self, credit_depth=None):
        graph = real_build(self, credit_depth)
        graphs.append((credit_depth, graph))
        return graph

    monkeypatch.setattr(hb, "_EventGraph", _RecordingGraph)
    monkeypatch.setattr(hb._GraphBuilder, "build", build)
    return graphs


def _programs(kernel, options):
    """The compiled program and each mutant of it that applies."""
    compiler = WaspCompiler(replace(options, verify=False, validate=False))
    try:
        result = compiler.compile(kernel.program, kernel.launch.num_warps)
    except ReproError:
        return []
    programs = [result.program]
    if result.specialized:
        for mutation in MUTATIONS.values():
            mutant = mutation(result.program)
            if mutant is not None:
                programs.append(mutant)
    return programs


def _compiles():
    for _bench, kernel in registry_kernels(None, 0.25)[::5]:
        for _name, options in standard_option_sets():
            for depth in (2, 4, 8):
                yield kernel, replace(options, pipeline_depth=depth)
    specs = [entry.spec for entry in load_corpus()]
    specs += [generate_spec(seed) for seed in range(20)]
    for spec in specs:
        kernel = build_kernel(spec)
        for _name, options in OPTION_SETS:
            yield kernel, options


def test_every_engine_graph_matches_the_reference(recorded):
    seen: set[str] = set()
    for kernel, options in _compiles():
        for program in _programs(kernel, options):
            digest = program_digest(program)
            if digest not in seen:
                seen.add(digest)
                PipelineFacts(program).hb
    base = [g for depth, g in recorded if depth is None]
    tight = [g for depth, g in recorded if depth is not None]
    assert len(base) == len(seen)
    # A sweep that never needed the tight-credit re-solve would leave
    # that graph's distances unchecked.
    assert tight and all(g.queries for g in tight)
    for _depth, graph in recorded:
        assert_matches_reference(graph)

"""Property tests for the translation validator (Hypothesis).

Invariances the certificate machinery must have to be trustworthy:

* **Serializer round-trip**: effect summaries — and therefore verdicts
  — are functions of program *meaning*, so encoding a program through
  :mod:`repro.isa.serialize` (including a JSON text round-trip) and
  decoding it back must produce bit-identical summaries.
* **Normalization**: a :class:`DiagnosticReport` is a set of findings,
  not a narrative; ``normalized()`` output must not depend on the
  order diagnostics were discovered in.
* **Cached node facts**: over expressions built randomly through the
  smart constructors, rebuilding a tree is the identity (the premise
  that lets :func:`rewrite` return untouched subtrees as is), the
  cached sort key and leaf set equal fresh recomputations, and the
  cache fields are invisible to ``==``, ``hash``, ``repr`` and pickle.
"""

from __future__ import annotations

import functools
import json
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.transval import validate_programs
from repro.analysis.transval.effects import Summary, summarize_program
from repro.analysis.transval.expr import (
    Const,
    Expr,
    GLoad,
    LoopIdx,
    Marker,
    Op,
    RecExit,
    RecPhi,
    SLoad,
    Sym,
    Trip,
    Unknown,
    _key,
    add,
    cmp,
    ite,
    leaves,
    mul,
    negate,
    op2,
    rewrite,
    stable_repr,
    unary,
    walk,
    warpsum,
)
from repro.core.compiler import WaspCompiler, WaspCompilerOptions
from repro.fuzz.generator import build_kernel
from repro.fuzz.mutate import apply_mutation
from repro.fuzz.spec import generate_spec
from repro.isa.serialize import decode_program, encode_program


def _round_trip(program):
    """Serializer round trip through actual JSON text."""
    return decode_program(json.loads(json.dumps(encode_program(program))))


def _fingerprint(summary: Summary) -> tuple:
    """Order-preserving structural digest of everything matchable."""
    effects = tuple(
        (
            stable_repr(e.addr),
            stable_repr(e.value),
            stable_repr(e.guard) if e.guard is not None else None,
            e.path,
            e.ring,
            e.stage,
        )
        for e in summary.effects
    )
    loops = tuple(
        (
            key,
            info.base,
            info.path,
            info.depth,
            tuple(stable_repr(x) for x in info.rec_inits),
            tuple(
                tuple(stable_repr(x) for x in copy)
                for copy in info.rec_deltas
            ),
            tuple(stable_repr(x) for x in info.cont_conds),
        )
        for key, info in sorted(summary.loops.items())
    )
    abst = tuple(str(a) for a in summary.abstentions)
    return (summary.side, effects, loops, abst)


@functools.lru_cache(maxsize=None)
def _compiled(seed: int):
    kernel = build_kernel(generate_spec(seed))
    result = WaspCompiler(WaspCompilerOptions(
        enable_tma_offload=False, verify=False, validate=False,
    )).compile(kernel.program, kernel.launch.num_warps)
    return kernel.program, result


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=60))
def test_summaries_invariant_under_serializer_round_trip(seed):
    source, result = _compiled(seed)

    assert _fingerprint(
        summarize_program(source, side="source")
    ) == _fingerprint(
        summarize_program(_round_trip(source), side="source")
    )

    if result.specialized:
        assert _fingerprint(
            summarize_program(result.program, side="specialized")
        ) == _fingerprint(
            summarize_program(
                _round_trip(result.program), side="specialized"
            )
        )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=60))
def test_verdict_invariant_under_serializer_round_trip(seed):
    source, result = _compiled(seed)
    direct = validate_programs(source, result.program)
    round_tripped = validate_programs(
        _round_trip(source), _round_trip(result.program)
    )
    assert direct.verdict == round_tripped.verdict
    assert direct.report.rules_fired() == round_tripped.report.rules_fired()


@functools.lru_cache(maxsize=None)
def _mutant_diagnostics() -> tuple:
    """Diagnostics from a known not-equivalent validation."""
    source, result = _compiled(2)
    assert result.specialized
    mutated = apply_mutation(result.program, "drop-pop")
    assert mutated is not None
    report = validate_programs(source, mutated)
    assert report.verdict == "not-equivalent"
    assert len(report.report.diagnostics) >= 2
    return tuple(report.report.diagnostics)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_normalized_report_invariant_under_shuffling(data):
    diags = list(_mutant_diagnostics())
    shuffled = data.draw(st.permutations(diags))
    baseline = DiagnosticReport(list(diags)).normalized()
    reordered = DiagnosticReport(list(shuffled)).normalized()
    assert baseline.diagnostics == reordered.diagnostics
    assert baseline.rules_fired() == reordered.rules_fired()


# -- cached node facts --------------------------------------------------------

_NODES = (Op, GLoad, SLoad)

_leaf_exprs = st.one_of(
    st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 8.0]).map(Const),
    st.sampled_from(["lane", "warp", "tb", "~pop1.1"]).map(Sym),
    st.sampled_from(["a", "b"]).map(LoopIdx),
    st.sampled_from(["a", "b"]).map(Trip),
    st.builds(RecPhi, st.sampled_from(["a", "s1|a"]), st.integers(0, 1)),
    st.builds(RecExit, st.sampled_from(["a", "s1|a"]), st.integers(0, 1)),
    st.sampled_from(["a#1", "a#2"]).map(Marker),
    st.sampled_from(["x", "y"]).map(Unknown),
)


def _grow(children):
    pairs = st.lists(st.tuples(children, children), max_size=2)
    return st.one_of(
        st.lists(children, min_size=1, max_size=4).map(lambda xs: add(*xs)),
        st.lists(children, min_size=1, max_size=3).map(lambda xs: mul(*xs)),
        st.tuples(
            st.sampled_from(["idiv", "shl", "shr", "and", "or", "min",
                             "max"]),
            children, children,
        ).map(lambda t: op2(*t)),
        st.tuples(
            st.sampled_from(["lt", "le", "gt", "ge", "eq", "ne"]),
            children, children,
        ).map(lambda t: cmp(*t)),
        st.tuples(children, children, children).map(lambda t: ite(*t)),
        children.map(negate),
        children.map(lambda x: unary("frcp", x)),
        children.map(warpsum),
        children.map(GLoad),
        st.tuples(children, pairs).map(
            lambda t: SLoad("buf", t[0], tuple(t[1]))
        ),
    )


_exprs = st.recursive(_leaf_exprs, _grow, max_leaves=12)


def _fresh_key(e: Expr) -> tuple:
    """The structural sort key, recomputed without any cache."""
    if isinstance(e, Op):
        return (9, e.op, tuple(_fresh_key(a) for a in e.args))
    if isinstance(e, GLoad):
        return (7, _fresh_key(e.addr))
    if isinstance(e, SLoad):
        return (8, e.family, _fresh_key(e.addr), len(e.writes))
    return _key(e)


def _fresh_leaves(e: Expr) -> frozenset:
    """The non-constant leaves, collected without any cache."""
    if isinstance(e, Op):
        return frozenset().union(*map(_fresh_leaves, e.args))
    if isinstance(e, GLoad):
        return _fresh_leaves(e.addr)
    if isinstance(e, SLoad):
        return _fresh_leaves(e.addr).union(
            *(_fresh_leaves(a) | _fresh_leaves(v) for a, v in e.writes)
        )
    return frozenset() if isinstance(e, Const) else frozenset((e,))


def _rebuild(e: Expr, mapping=None) -> Expr:
    """Rebuild every node through the smart constructors, mapping each
    node of the result through ``mapping`` — what ``rewrite`` computes
    without skipping untouched subtrees."""
    mapping = mapping or {}
    if isinstance(e, Op):
        args = [_rebuild(a, mapping) for a in e.args]
        if e.op == "add":
            built = add(*args)
        elif e.op == "mul":
            built = mul(*args)
        elif e.op == "ite":
            built = ite(*args)
        elif e.op == "not":
            built = negate(args[0])
        elif e.op == "frcp":
            built = unary("frcp", args[0])
        elif e.op == "warpsum":
            built = warpsum(args[0])
        elif e.op in ("lt", "le", "gt", "ge", "eq", "ne"):
            built = cmp(e.op, *args)
        else:
            built = op2(e.op, *args)
    elif isinstance(e, GLoad):
        built = GLoad(_rebuild(e.addr, mapping))
    elif isinstance(e, SLoad):
        built = SLoad(e.family, _rebuild(e.addr, mapping), tuple(
            (_rebuild(a, mapping), _rebuild(v, mapping))
            for a, v in e.writes
        ))
    else:
        built = e
    return mapping.get(built, built)


@settings(max_examples=300, deadline=None)
@given(e=_exprs)
def test_rebuilding_a_constructed_expression_is_the_identity(e):
    assert _rebuild(e) == e
    assert rewrite(e, {leaf: leaf for leaf in leaves(e)}) == e


@settings(max_examples=300, deadline=None)
@given(e=_exprs, repl=_exprs, loop=st.sampled_from(["a", "b"]))
def test_rewrite_equals_a_full_rebuild(e, repl, loop):
    mapping = {LoopIdx(loop): repl, RecPhi("s1|a", 0): RecPhi("a", 1)}
    assert rewrite(e, mapping) == _rebuild(e, mapping)


@settings(max_examples=300, deadline=None)
@given(e=_exprs)
def test_cached_key_equals_a_fresh_recomputation(e):
    for node in walk(e):
        assert _key(node) == _fresh_key(node)


@settings(max_examples=300, deadline=None)
@given(e=_exprs)
def test_cached_leaf_set_equals_the_leaves_of_a_full_walk(e):
    assert leaves(e) == _fresh_leaves(e)
    for node in walk(e):
        assert leaves(node) == frozenset(
            n for n in walk(node) if not isinstance(n, (*_NODES, Const))
        )


@settings(max_examples=300, deadline=None)
@given(e=_exprs)
def test_cache_fields_are_invisible(e):
    before = (hash(e), repr(e), pickle.dumps(e))
    clone = pickle.loads(before[2])
    for node in walk(e):
        _key(node)
        leaves(node)
    assert (hash(e), repr(e), pickle.dumps(e)) == before
    assert "_sort_key" not in before[1] and "_leaves" not in before[1]
    assert clone == e and hash(clone) == hash(e)
    assert repr(clone) == repr(e)
    for node in walk(clone):
        if isinstance(node, _NODES):
            assert node._sort_key is None and node._leaves is None

"""Normalized symbolic expressions for translation validation.

The validator compares the memory effects of the source kernel and the
warp-specialized program *structurally*: both sides are walked with the
same symbolic evaluator (mirroring :mod:`repro.fexec.machine` semantics
exactly) and every value is rebuilt through the normalizing smart
constructors below, so semantically identical computations collapse to
identical trees and plain ``==`` decides equivalence.

Normal form: n-ary ``add``/``mul`` with constants folded, products
distributed over sums and like terms collected, so affine address
arithmetic — the bread and butter of tile/stream kernels — lands in a
canonical sum-of-products shape.  Everything the machine computes with
floor/bit semantics (``shl``, ``idiv``, …) stays opaque but is folded
exactly when all operands are constant, by the functional executor's
own lane functions (:func:`repro.fexec.machine.fold_lane`).

Each recursive node (``Op``, ``GLoad``, ``SLoad``) computes two facts
once, on first use, and keeps them in fields that ``==``, ``hash``,
``repr`` and pickling ignore: its structural sort key and its set of
non-constant leaves.  Read-only questions (:func:`leaves`,
:func:`walk`, :func:`contains_marker`, :func:`first_unknown`) never
rebuild a tree, and :func:`rewrite` returns every subtree whose leaf
set it cannot touch as is.

Loop-carried structure is expressed with dedicated nodes:

``LoopIdx(loop)``
    The current iteration index of ``loop`` (0-based).  Loop identity is
    the *stripped* head-block label (stage prefix and ``__db<k>`` ring
    suffix removed), which is stable across the source, the stage
    sections and the unrolled ring copies.
``RecPhi(loop, slot)`` / ``RecExit(loop, slot)``
    A genuine loop-carried recurrence value at iteration entry / after
    the loop.  The per-loop recurrence systems (inits + per-copy deltas)
    live in the walk summary, not in the nodes; slots are matched by
    bijection at comparison time.
``Trip(loop)``
    The number of iterations ``loop`` executed (opaque; equal on both
    sides because exit conditions are cloned, and checked separately).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.fexec.machine import fold_lane
from repro.isa.opcodes import Opcode

__all__ = [
    "Expr",
    "Const",
    "Sym",
    "LoopIdx",
    "Trip",
    "RecPhi",
    "RecExit",
    "Marker",
    "GLoad",
    "SLoad",
    "Op",
    "Unknown",
    "add",
    "mul",
    "op2",
    "cmp",
    "ite",
    "negate",
    "unary",
    "warpsum",
    "subst_loop",
    "rewrite",
    "leaves",
    "walk",
    "contains_marker",
    "first_unknown",
    "stable_repr",
    "digest",
]


class Expr:
    """Base class for all symbolic expression nodes (frozen, hashable)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Sym(Expr):
    """A free symbolic input: lane id, warp id, thread-block id, …"""

    name: str


@dataclass(frozen=True, slots=True)
class LoopIdx(Expr):
    loop: str


@dataclass(frozen=True, slots=True)
class Trip(Expr):
    loop: str


@dataclass(frozen=True, slots=True)
class RecPhi(Expr):
    loop: str
    slot: int


@dataclass(frozen=True, slots=True)
class RecExit(Expr):
    loop: str
    slot: int


@dataclass(frozen=True, slots=True)
class Marker(Expr):
    """Internal loop-entry placeholder used during classification.

    Markers must never survive into a final summary — a leaked marker
    means the walker could not resolve a loop-entry value and the
    validator abstains (WASP-T004).
    """

    tag: str


def _cache() -> Any:
    """A lazily filled node fact, invisible to ``==``/hash/repr."""
    return field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class GLoad(Expr):
    """A load from (initial) global memory at a symbolic address."""

    addr: "Expr"
    _sort_key: tuple | None = _cache()
    _leaves: frozenset["Expr"] | None = _cache()

    def __reduce__(self) -> tuple[Any, ...]:
        return GLoad, (self.addr,)


@dataclass(frozen=True, slots=True)
class SLoad(Expr):
    """An unresolved shared-memory read.

    Carries the ordered write set of the staging scope it reads from so
    cooperative (lane-partitioned writer vs element-addressed reader)
    staging patterns compare as "same parametric write set" without
    per-element alias reasoning.
    """

    family: str
    addr: "Expr"
    writes: tuple[tuple["Expr", "Expr"], ...]
    _sort_key: tuple | None = _cache()
    _leaves: frozenset["Expr"] | None = _cache()

    def __reduce__(self) -> tuple[Any, ...]:
        return SLoad, (self.family, self.addr, self.writes)


@dataclass(frozen=True, slots=True)
class Op(Expr):
    op: str
    args: tuple["Expr", ...]
    _sort_key: tuple | None = _cache()
    _leaves: frozenset["Expr"] | None = _cache()

    def __reduce__(self) -> tuple[Any, ...]:
        return Op, (self.op, self.args)


@dataclass(frozen=True, slots=True)
class Unknown(Expr):
    reason: str


# -- cached node facts ---------------------------------------------------

_NODES = (Op, GLoad, SLoad)


def _children(e: Expr) -> tuple[Expr, ...]:
    """Direct subexpressions, left to right (leaves have none)."""
    if isinstance(e, Op):
        return e.args
    if isinstance(e, GLoad):
        return (e.addr,)
    if isinstance(e, SLoad):
        return (e.addr,) + tuple(x for pair in e.writes for x in pair)
    return ()


def _key(e: Expr) -> tuple:
    """Deterministic structural sort key, cached on recursive nodes."""
    if isinstance(e, _NODES):
        k = e._sort_key
        if k is None:
            if isinstance(e, Op):
                k = (9, e.op, tuple(_key(a) for a in e.args))
            elif isinstance(e, GLoad):
                k = (7, _key(e.addr))
            else:
                k = (8, e.family, _key(e.addr), len(e.writes))
            object.__setattr__(e, "_sort_key", k)
        return k
    if isinstance(e, Const):
        return (0, e.value)
    if isinstance(e, Sym):
        return (1, e.name)
    if isinstance(e, LoopIdx):
        return (2, e.loop)
    if isinstance(e, Trip):
        return (3, e.loop)
    if isinstance(e, RecPhi):
        return (4, e.loop, e.slot)
    if isinstance(e, RecExit):
        return (5, e.loop, e.slot)
    if isinstance(e, Marker):
        return (6, e.tag)
    assert isinstance(e, Unknown)
    return (10, e.reason)


def leaves(e: Expr) -> frozenset[Expr]:
    """The non-constant leaves of ``e`` (cached on recursive nodes)."""
    if isinstance(e, _NODES):
        found = e._leaves
        if found is None:
            sets = [leaves(c) for c in _children(e)]
            # Share the largest child's set when the others add nothing:
            # summaries keep these sets alive on every node.
            found = max(sets, key=len)
            merged = found.union(*sets)
            if len(merged) != len(found):
                found = merged
            object.__setattr__(e, "_leaves", found)
        return found
    if isinstance(e, Const):
        return frozenset()
    return frozenset((e,))


def walk(e: Expr) -> Iterator[Expr]:
    """Every node of ``e``, parents before children and children left
    to right.  Nothing is rebuilt; a shared subtree is visited once per
    occurrence."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


_COMMUTATIVE = frozenset({"add", "mul", "and", "or", "min", "max", "eq", "ne"})

_NEGATED_CMP = {
    "lt": "ge",
    "ge": "lt",
    "le": "gt",
    "gt": "le",
    "eq": "ne",
    "ne": "eq",
}


def _unknown_in(args: tuple[Expr, ...]) -> Unknown | None:
    for a in args:
        if isinstance(a, Unknown):
            return a
    return None


# -- constant folding (exact machine semantics) --------------------------


#: Folded ops computed by one machine opcode's lane function.
_FOLD_OPCODES = {
    "idiv": Opcode.IDIV,
    "shl": Opcode.SHL,
    "shr": Opcode.SHR,
    "and": Opcode.AND,
    "or": Opcode.OR,
    "min": Opcode.MIN,
    "max": Opcode.MAX,
    "frcp": Opcode.FRCP,
}


def _fold(op: str, vals: list[float]) -> float:
    """``op`` over constants: the functional machine's own lane result."""
    if op == "not":
        return 0.0 if vals[0] else 1.0
    if op in _NEGATED_CMP:
        return fold_lane(Opcode.ISETP, vals, cmp=op)
    if op in _FOLD_OPCODES:
        return fold_lane(_FOLD_OPCODES[op], vals)
    raise AssertionError(f"unfoldable op {op}")


# -- smart constructors --------------------------------------------------


def add(*args: Expr) -> Expr:
    """Normalized n-ary sum: flatten, fold constants, collect like terms."""
    bad = _unknown_in(tuple(args))
    if bad is not None:
        return bad
    flat: list[Expr] = []
    for a in args:
        if isinstance(a, Op) and a.op == "add":
            flat.extend(a.args)
        else:
            flat.append(a)
    const = 0.0
    terms: dict[tuple, tuple[float, tuple[Expr, ...]]] = {}
    for a in flat:
        if isinstance(a, Const):
            const += a.value
            continue
        coeff, factors = _term(a)
        k = tuple(_key(f) for f in factors)
        if k in terms:
            prev, _ = terms[k]
            terms[k] = (prev + coeff, factors)
        else:
            terms[k] = (coeff, factors)
    out: list[Expr] = []
    for coeff, factors in terms.values():
        if coeff == 0.0:
            continue
        out.append(_build_term(coeff, factors))
    if const != 0.0 or not out:
        out.append(Const(const))
    out.sort(key=_key)
    if len(out) == 1:
        return out[0]
    return Op("add", tuple(out))


def _term(e: Expr) -> tuple[float, tuple[Expr, ...]]:
    """Decompose into (constant coefficient, sorted non-const factors)."""
    if isinstance(e, Op) and e.op == "mul":
        coeff = 1.0
        factors: list[Expr] = []
        for f in e.args:
            if isinstance(f, Const):
                coeff *= f.value
            else:
                factors.append(f)
        factors.sort(key=_key)
        return coeff, tuple(factors)
    return 1.0, (e,)


def _build_term(coeff: float, factors: tuple[Expr, ...]) -> Expr:
    if not factors:
        return Const(coeff)
    if coeff == 1.0 and len(factors) == 1:
        return factors[0]
    parts: list[Expr] = []
    if coeff != 1.0:
        parts.append(Const(coeff))
    parts.extend(factors)
    if len(parts) == 1:
        return parts[0]
    return Op("mul", tuple(sorted(parts, key=_key)))


def mul(*args: Expr) -> Expr:
    """Normalized n-ary product, fully distributed over sums."""
    bad = _unknown_in(tuple(args))
    if bad is not None:
        return bad
    flat: list[Expr] = []
    for a in args:
        if isinstance(a, Op) and a.op == "mul":
            flat.extend(a.args)
        else:
            flat.append(a)
    const = 1.0
    rest: list[Expr] = []
    for a in flat:
        if isinstance(a, Const):
            const *= a.value
        else:
            rest.append(a)
    if const == 0.0:
        return Const(0.0)
    sums = [a for a in rest if isinstance(a, Op) and a.op == "add"]
    if sums:
        # Distribute: expand the product of sums into a sum of products.
        products: list[list[Expr]] = [[]]
        for a in rest:
            if isinstance(a, Op) and a.op == "add":
                products = [p + [t] for p in products for t in a.args]
            else:
                products = [p + [a] for p in products]
        return add(*[mul(Const(const), *p) for p in products])
    if not rest:
        return Const(const)
    return _build_term(const, tuple(sorted(rest, key=_key)))


def op2(op: str, a: Expr, b: Expr) -> Expr:
    """Opaque binary op (``idiv``/``shl``/``shr``/``and``/``or``/…)."""
    bad = _unknown_in((a, b))
    if bad is not None:
        return bad
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_fold(op, [a.value, b.value]))
    args = (a, b)
    if op in _COMMUTATIVE:
        args = tuple(sorted(args, key=_key))  # type: ignore[assignment]
    return Op(op, args)


def cmp(op: str, a: Expr, b: Expr) -> Expr:
    bad = _unknown_in((a, b))
    if bad is not None:
        return bad
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_fold(op, [a.value, b.value]))
    if op in ("eq", "ne"):
        a, b = sorted((a, b), key=_key)
    return Op(op, (a, b))


def ite(c: Expr, t: Expr, f: Expr) -> Expr:
    """``where(bool(c), t, f)`` — models SEL and predicated writeback."""
    if isinstance(c, Unknown):
        return c
    if isinstance(c, Const):
        return t if c.value else f
    if t == f:
        return t
    bad = _unknown_in((t, f))
    if bad is not None:
        return bad
    return Op("ite", (c, t, f))


def negate(e: Expr) -> Expr:
    """Logical negation, pushed into comparisons."""
    if isinstance(e, Unknown):
        return e
    if isinstance(e, Const):
        return Const(0.0 if e.value else 1.0)
    if isinstance(e, Op):
        if e.op in _NEGATED_CMP:
            return Op(_NEGATED_CMP[e.op], e.args)
        if e.op == "not":
            return e.args[0]
    return Op("not", (e,))


def unary(op: str, a: Expr) -> Expr:
    if isinstance(a, Unknown):
        return a
    if isinstance(a, Const) and op in ("frcp", "not"):
        return Const(_fold(op, [a.value]))
    return Op(op, (a,))


def warpsum(a: Expr) -> Expr:
    """REDUX: sum over lanes, broadcast to the warp (opaque)."""
    if isinstance(a, Unknown):
        return a
    return Op("warpsum", (a,))


# -- rewriting -----------------------------------------------------------


def rewrite(e: Expr, mapping: Mapping[Expr, Expr]) -> Expr:
    """Substitute leaves through ``mapping`` and renormalize bottom-up.

    Interior nodes above a substituted leaf are rebuilt through the
    smart constructors, so the result stays in normal form; a rebuilt
    node that collapses to a leaf is looked up in ``mapping`` too.  A
    subtree whose leaf set misses every key is returned as is, which is
    exact because rebuilding a normalized tree is the identity.
    """
    if leaves(e).isdisjoint(mapping):
        return e
    if isinstance(e, Op):
        args = [rewrite(a, mapping) for a in e.args]
        if e.op == "add":
            built = add(*args)
        elif e.op == "mul":
            built = mul(*args)
        elif e.op == "ite":
            built = ite(args[0], args[1], args[2])
        elif e.op == "not":
            built = negate(args[0])
        elif e.op == "frcp":
            built = unary(e.op, args[0])
        elif e.op == "warpsum":
            built = warpsum(args[0])
        elif len(args) == 2 and e.op in _NEGATED_CMP:
            built = cmp(e.op, args[0], args[1])
        elif len(args) == 2:
            built = op2(e.op, args[0], args[1])
        else:
            built = Op(e.op, tuple(args))
    elif isinstance(e, GLoad):
        built = GLoad(rewrite(e.addr, mapping))
    elif isinstance(e, SLoad):
        built = SLoad(
            e.family,
            rewrite(e.addr, mapping),
            tuple(
                (rewrite(a, mapping), rewrite(v, mapping))
                for a, v in e.writes
            ),
        )
    else:
        return mapping.get(e, e)
    if isinstance(built, _NODES):
        return built
    return mapping.get(built, built)


def subst_loop(e: Expr, loop: str, repl: Expr) -> Expr:
    """Replace ``LoopIdx(loop)`` with ``repl`` and renormalize."""
    return rewrite(e, {LoopIdx(loop): repl})


def contains_marker(e: Expr) -> bool:
    return any(isinstance(leaf, Marker) for leaf in leaves(e))


def first_unknown(e: Expr) -> Unknown | None:
    """The leftmost ``Unknown`` node in ``e`` (Unknowns absorb, so it
    is usually ``e`` itself), or ``None``."""
    if not any(isinstance(leaf, Unknown) for leaf in leaves(e)):
        return None
    for node in walk(e):
        if isinstance(node, Unknown):
            return node
    return None


# -- display -------------------------------------------------------------


def stable_repr(e: Expr) -> str:
    """Deterministic, serializer-independent text form."""
    if isinstance(e, Const):
        v = e.value
        return str(int(v)) if math.isfinite(v) and v == int(v) else repr(v)
    if isinstance(e, Sym):
        return e.name.lower()
    if isinstance(e, LoopIdx):
        return f"i[{e.loop}]"
    if isinstance(e, Trip):
        return f"trip[{e.loop}]"
    if isinstance(e, RecPhi):
        return f"rec[{e.loop}#{e.slot}]"
    if isinstance(e, RecExit):
        return f"recout[{e.loop}#{e.slot}]"
    if isinstance(e, Marker):
        return f"<marker:{e.tag}>"
    if isinstance(e, GLoad):
        return f"gmem[{stable_repr(e.addr)}]"
    if isinstance(e, SLoad):
        w = ",".join(
            f"{stable_repr(a)}:={stable_repr(v)}" for a, v in e.writes
        )
        return f"smem<{e.family}>[{stable_repr(e.addr)} | {w}]"
    if isinstance(e, Op):
        inner = " ".join(stable_repr(a) for a in e.args)
        return f"({e.op} {inner})"
    assert isinstance(e, Unknown)
    return f"<unknown:{e.reason}>"


def digest(e: Expr) -> str:
    """Short stable digest of an expression (for reports/telemetry)."""
    return hashlib.sha256(stable_repr(e).encode()).hexdigest()[:12]

"""The cutpoint simulation relation between source and specialized walks.

Given the two effect summaries, this module decides whether every
global store of the specialized program matches a source store 1:1 in
address, value and guard — across every ring residue — and emits
WASP-T diagnostics where the relation fails.

Ring reasoning happens here, at match time, over slot residues: a
source store inside a loop the compiler unrolled to depth ``u`` must be
matched by ``u`` specialized stores, one per copy ``k``, each
equivalent to the source store with ``i -> u*i + k`` substituted into
the *source* expression.  The specialized side already carries the
``u*i + k`` iteration expressions from the walk, so equivalence is a
plain structural comparison after the substitution.

Recurrence slots are matched by searching for an injective slot map per
loop (a handful of coupled accumulators at most — e.g. attention's
running max-free ``o``/``norm`` pair), validating inits, per-copy
deltas and continue conditions under the same substitutions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.transval.effects import (
    LoopInfo,
    RingCtx,
    StoreEffect,
    Summary,
)
from repro.analysis.transval.expr import (
    Const,
    Expr,
    GLoad,
    LoopIdx,
    Op,
    RecExit,
    RecPhi,
    add,
    first_unknown,
    leaves,
    mul,
    rewrite,
    stable_repr,
    subst_loop,
    walk,
)

__all__ = ["MatchResult", "match_summaries"]


@dataclass
class MatchResult:
    """Diagnostics plus bookkeeping from one simulation-relation check."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    matched_stores: int = 0
    source_stores: int = 0
    spec_stores: int = 0

    def abstained(self) -> bool:
        return any(d.rule == "WASP-T004" for d in self.diagnostics)


def match_summaries(source: Summary, spec: Summary) -> MatchResult:
    return _Matcher(source, spec).run()


class _Matcher:
    def __init__(self, source: Summary, spec: Summary) -> None:
        self.source = source
        self.spec = spec
        self.kernel = spec.kernel
        self.result = MatchResult()
        #: spec loop key -> slot map into the source frame (None when
        #: the search failed; missing when the loop has no recurrences).
        self.sigma: dict[str, dict[int, int] | None] = {}
        self.depth_of: dict[str, int] = {}
        for info in spec.loops.values():
            prev = self.depth_of.get(info.base, 1)
            self.depth_of[info.base] = max(prev, info.depth)

    # -- driver ----------------------------------------------------------

    def run(self) -> MatchResult:
        for exc in self.source.abstentions + self.spec.abstentions:
            self._t004(exc.reason, stage=exc.stage, block=exc.block)
        for issue in self.spec.queue_issues:
            self._diag(
                "WASP-T002",
                issue.message,
                stage=None if issue.stage < 0 else issue.stage,
                block=issue.block or None,
                hint="re-pair queue pushes and pops: every value pushed "
                     "per iteration must be popped exactly once by the "
                     "consumer stage",
            )
        self._check_global_aliasing()
        self._solve_loops()
        self._match_stores()
        return self.result

    def _diag(self, rule: str, message: str, *, stage: int | None = None,
              block: str | None = None, instruction: str | None = None,
              hint: str | None = None) -> None:
        self.result.diagnostics.append(Diagnostic(
            rule=rule,
            message=message,
            kernel=self.kernel,
            stage=stage,
            block=block,
            instruction=instruction,
            hint=hint,
        ))

    def _t004(self, reason: str, *, stage: int | None = None,
              block: str | None = None) -> None:
        self._diag(
            "WASP-T004",
            f"validator abstained: {reason}",
            stage=stage,
            block=block,
            hint="equivalence is unproven here, not disproven; the "
                 "differential fuzz oracle remains the safety net",
        )

    # -- soundness guard -------------------------------------------------

    def _check_global_aliasing(self) -> None:
        """Loads are modeled as reads of *initial* memory.

        That is sound only if no load can observe a store of the same
        run.  Compare the constant (region-base) terms of every global
        load and store address on the source side and abstain on
        overlap — the registry and fuzz kernels keep inputs and outputs
        in disjoint regions, so this fires only outside the fragment.
        """
        store_bases = {_const_term(e.addr) for e in self.source.effects}
        load_bases: set[float] = set()

        def collect(expr: Expr) -> None:
            for node in walk(expr):
                if isinstance(node, GLoad):
                    load_bases.add(_const_term(node.addr))

        for eff in self.source.effects:
            collect(eff.addr)
            collect(eff.value)
            if eff.guard is not None:
                collect(eff.guard)
        for info in self.source.loops.values():
            for e in list(info.rec_inits) + [
                d for row in info.rec_deltas for d in row
            ]:
                collect(e)
        overlap = store_bases & load_bases
        if overlap:
            self._t004(
                "a global load may alias a global store (shared region "
                f"base {sorted(overlap)}); load/store forwarding is "
                "outside the validated fragment"
            )

    # -- loop matching ---------------------------------------------------

    def _solve_loops(self) -> None:
        """Find the slot map sigma for every specialized loop.

        A loop's recurrence system may reference another loop's slots
        in *both* directions (an accumulator's init reads the outer
        RecPhi while the outer delta reads the inner RecExit), so slot
        maps are searched jointly per connected nest rather than one
        loop at a time.
        """
        infos = list(self.spec.loops.values())
        missing: set[str] = set()
        for info in infos:
            if self.source.loops.get(info.base) is None:
                self._diag(
                    "WASP-T002",
                    f"loop {info.base!r} in stage {info.stage} has no "
                    "counterpart in the source kernel",
                    stage=info.stage,
                    hint="stage splitting should clone source loops, "
                         "not invent new ones",
                )
                self.sigma[info.key] = None
                missing.add(info.key)
        for component in self._nest_components(
            [i for i in infos if i.key not in missing]
        ):
            self._solve_component(component)

    def _nest_components(
        self, infos: list[LoopInfo]
    ) -> list[list[LoopInfo]]:
        keys = {i.key for i in infos}
        adj: dict[str, set[str]] = {i.key: set() for i in infos}
        for info in infos:
            for ref in self._referenced_keys(info):
                if ref in keys and ref != info.key:
                    adj[info.key].add(ref)
                    adj[ref].add(info.key)
        by_key = {i.key: i for i in infos}
        seen: set[str] = set()
        components: list[list[LoopInfo]] = []
        for info in sorted(infos, key=lambda i: i.key):
            if info.key in seen:
                continue
            comp: list[str] = []
            stack = [info.key]
            while stack:
                k = stack.pop()
                if k in seen:
                    continue
                seen.add(k)
                comp.append(k)
                stack.extend(adj[k])
            components.append([by_key[k] for k in sorted(comp)])
        return components

    def _referenced_keys(self, info: LoopInfo) -> set[str]:
        return {
            leaf.loop
            for e in self._loop_exprs(info)
            for leaf in leaves(e)
            if isinstance(leaf, (RecPhi, RecExit))
        }

    def _loop_exprs(self, info: LoopInfo) -> list[Expr]:
        return (list(info.rec_inits)
                + [d for row in info.rec_deltas for d in row]
                + list(info.cont_conds))

    def _solve_component(self, component: list[LoopInfo]) -> None:
        choices: list[list[dict[int, int]]] = []
        for info in component:
            src = self.source.loops[info.base]
            m = len(src.rec_inits)
            n = len(info.rec_inits)
            choices.append([
                dict(enumerate(perm))
                for perm in itertools.permutations(range(m), n)
            ])
        found: dict[str, dict[int, int] | None] | None = None
        for combo in itertools.product(*choices):
            overlay: dict[str, dict[int, int] | None] = {
                info.key: trial
                for info, trial in zip(component, combo)
            }
            if all(
                self._loop_matches(info, self.source.loops[info.base],
                                   overlay)
                for info in component
            ):
                found = overlay
                break
        if found is not None:
            self.sigma.update(found)
            return
        for info in component:
            self.sigma[info.key] = None
        if any(
            self._loop_has_unknown(info, self.source.loops[info.base])
            for info in component
        ):
            self._t004(
                "a loop nest carries a value the walker could not "
                f"resolve ({', '.join(i.base for i in component)})",
                stage=component[0].stage,
            )
            return
        bases = ", ".join(f"{i.base!r}" for i in component)
        self._diag(
            "WASP-T002",
            f"recurrence system or exit condition of loop nest "
            f"{bases} (stage {component[0].stage}) does not simulate "
            "the source",
            stage=component[0].stage,
            hint="check queue value threading and the per-slot "
                 "induction rewiring of the circular-buffer unroll",
        )

    def _loop_has_unknown(self, info: LoopInfo, src: LoopInfo) -> bool:
        exprs = self._loop_exprs(info) + self._loop_exprs(src)
        return any(first_unknown(e) is not None for e in exprs)

    def _loop_matches(
        self,
        info: LoopInfo,
        src: LoopInfo,
        overlay: dict[str, dict[int, int] | None],
    ) -> bool:
        trial = overlay[info.key]
        assert trial is not None
        for s, t in trial.items():
            if not self._equiv(
                info.rec_inits[s], src.rec_inits[t], info.ctx, overlay
            ):
                return False
        if len(src.cont_conds) != 1 or src.depth != 1:
            return False
        for k in range(info.depth):
            ring = info.ctx
            if info.depth > 1:
                ring = ring + (RingCtx(info.base, info.depth, k),)
            for s, t in trial.items():
                if not self._equiv(
                    info.rec_deltas[k][s], src.rec_deltas[0][t],
                    ring, overlay,
                ):
                    return False
            if not self._equiv(
                info.cont_conds[k], src.cont_conds[0], ring, overlay
            ):
                return False
        return True

    # -- expression equivalence ------------------------------------------

    def _subst_ring(self, e: Expr, ring: tuple[RingCtx, ...]) -> Expr:
        for ctx in ring:
            if ctx.depth <= 1:
                continue
            e = subst_loop(e, ctx.loop, add(
                mul(Const(float(ctx.depth)), LoopIdx(ctx.loop)),
                Const(float(ctx.copy)),
            ))
        return e

    def _canon_spec(
        self, e: Expr, overlay: dict[str, dict[int, int] | None]
    ) -> Expr:
        """Map spec-side recurrence nodes into the source frame."""
        mapping: dict[Expr, Expr] = {}
        for leaf in leaves(e):
            if not isinstance(leaf, (RecPhi, RecExit)):
                continue
            info = self.spec.loops.get(leaf.loop)
            if info is None:
                continue  # already in the source frame
            sigma = overlay.get(leaf.loop, self.sigma.get(leaf.loop))
            if sigma is None or leaf.slot not in sigma:
                # Unmatched recurrence: poison comparisons that depend
                # on it by leaving the spec-side key intact.
                continue
            mapping[leaf] = type(leaf)(info.base, sigma[leaf.slot])
        return rewrite(e, mapping)

    def _equiv(
        self,
        spec_e: Expr,
        src_e: Expr,
        ring: tuple[RingCtx, ...],
        overlay: dict[str, dict[int, int] | None] | None = None,
    ) -> bool:
        canon = self._canon_spec(spec_e, overlay or {})
        return canon == self._subst_ring(src_e, ring)

    # -- store matching --------------------------------------------------

    def _match_stores(self) -> None:
        self.result.source_stores = len(self.source.effects)
        self.result.spec_stores = len(self.spec.effects)
        used: set[int] = set()
        for src_eff in self.source.effects:
            ring_bases = [
                b for b in src_eff.path if self.depth_of.get(b, 1) > 1
            ]
            residues = itertools.product(
                *[range(self.depth_of[b]) for b in ring_bases]
            )
            for vec in residues:
                ring = tuple(
                    RingCtx(b, self.depth_of[b], k)
                    for b, k in zip(ring_bases, vec)
                )
                self._match_one(src_eff, ring, used)
        for idx, se in enumerate(self.spec.effects):
            if idx not in used:
                self._diag(
                    "WASP-T001",
                    f"store at {se.block} has no matching source store "
                    f"(address {stable_repr(se.addr)})",
                    stage=se.stage,
                    block=se.block,
                    instruction=se.instr,
                    hint="the specialized program writes something the "
                         "source never writes — check stage extraction "
                         "and address rewiring",
                )

    def _match_one(
        self,
        src_eff: StoreEffect,
        ring: tuple[RingCtx, ...],
        used: set[int],
    ) -> None:
        want_copy = {c.loop: c.copy for c in ring}
        src_addr = self._subst_ring(src_eff.addr, ring)
        candidate: int | None = None
        for idx, se in enumerate(self.spec.effects):
            if idx in used or se.path != src_eff.path:
                continue
            have_copy = {c.loop: c.copy for c in se.ring}
            if have_copy != want_copy:
                continue
            if self._canon_spec(se.addr, {}) == src_addr:
                candidate = idx
                break
        if candidate is None:
            unknown = first_unknown(src_addr)
            if unknown is not None:
                self._t004(unknown.reason, block=src_eff.block)
                return
            residue = (
                " (ring residue "
                + ",".join(f"{c.loop}={c.copy}" for c in ring) + ")"
                if ring else ""
            )
            self._diag(
                "WASP-T001",
                f"source store at {src_eff.block} to address "
                f"{stable_repr(src_addr)} has no specialized "
                f"counterpart{residue}",
                block=src_eff.block,
                instruction=src_eff.instr,
                hint="a store was lost in specialization — check that "
                     "the consumer stage kept every STG and that ring "
                     "unrolling covers this slot residue",
            )
            return
        used.add(candidate)
        se = self.spec.effects[candidate]
        ok_guard = (
            (se.guard is None and src_eff.guard is None)
            or (
                se.guard is not None and src_eff.guard is not None
                and self._equiv(se.guard, src_eff.guard, ring)
            )
        )
        ok_value = self._equiv(se.value, src_eff.value, ring)
        if ok_guard and ok_value:
            self.result.matched_stores += 1
            return
        spec_val = self._canon_spec(se.value, {})
        src_val = self._subst_ring(src_eff.value, ring)
        for e in (spec_val, src_val, se.guard, src_eff.guard):
            if e is None:
                continue
            unknown = first_unknown(e)
            if unknown is not None:
                self._t004(unknown.reason, stage=se.stage, block=se.block)
                return
        what = "guard" if not ok_guard else "value"
        self._diag(
            "WASP-T002",
            f"store at {se.block} matches the source address but its "
            f"{what} differs: specialized "
            f"{stable_repr(spec_val if what == 'value' else se.guard or Const(1.0))} "
            "vs source "
            f"{stable_repr(src_val if what == 'value' else src_eff.guard or Const(1.0))}",
            stage=se.stage,
            block=se.block,
            instruction=se.instr,
            hint="the value threaded through queues/SMEM to this store "
                 "diverged — check push/pop pairing, ring slot "
                 "addresses and barrier phases along the producer path",
        )


def _const_term(e: Expr) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Op) and e.op == "add":
        for a in e.args:
            if isinstance(a, Const):
                return a.value
    return 0.0

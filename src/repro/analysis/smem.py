"""Shared-memory race detector (rules WASP-S001..S005, HB-backed).

Bounds (S002) and unresolvable-target reporting (S003) are unchanged
from the original pass.  Race detection is now exact up to the
happens-before model (:mod:`repro.analysis.dataflow.hb`): every
cross-stage access pair on a shared buffer group is classified as
ordered, phase-disjoint, or racy from the min-plus iteration-shift
fixpoint, instead of the old "some arrive/wait pair crosses the two
stages" heuristic.  Racy pairs are attributed to:

* ``WASP-S001`` — the same generation is unordered (shift 0): the
  classic missing filled-style barrier;
* ``WASP-S004`` — same-generation accesses are ordered but a later
  generation's write can lap an outstanding access on the same
  circular-buffer phase (phase-overlap);
* ``WASP-S005`` — the pair is ordered only under tighter queue
  back-pressure: the configured queue capacity admits more
  generations in flight than the buffer has phases
  (credit-underflow).
"""

from __future__ import annotations

from repro.analysis.dataflow.hb import HBAnalysis, PairVerdict
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.facts import PipelineFacts


def check_smem(facts: PipelineFacts) -> list[Diagnostic]:
    diags = _check_bounds(facts)
    if len(facts.view.stages) > 1:
        kernel = facts.program.name
        diags.extend(_report_unresolved(kernel, facts.hb))
        diags.extend(_report_races(kernel, facts.hb))
    return diags


def _check_bounds(facts: PipelineFacts) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    total = facts.program.smem_words
    for access in facts.sites.smem_accesses:
        if access.address is None:
            continue
        if access.address < 0 or access.address >= max(total, 0):
            diags.append(Diagnostic(
                rule="WASP-S002",
                message=f"SMEM {'store' if access.is_write else 'load'} "
                        f"at word {access.address} is outside the "
                        f"program's {total}-word footprint",
                kernel=facts.program.name,
                stage=access.stage if access.stage >= 0 else None,
                block=access.block,
                instruction=repr(access.instr),
            ))
    return diags


def _report_unresolved(
    kernel: str, analysis: HBAnalysis
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    reported: set[int] = set()
    for access in analysis.unresolved:
        if access.stage < 0 or access.stage in reported:
            continue
        reported.add(access.stage)
        diags.append(Diagnostic(
            rule="WASP-S003",
            message="SMEM access with register address and no "
                    "buffer tag; race analysis skips it",
            kernel=kernel,
            stage=access.stage,
            block=access.block,
            instruction=access.instr_repr,
            hint="tag the access with smem_buffer= in the builder",
        ))
    return diags


def _report_races(kernel: str, analysis: HBAnalysis) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    seen: set[tuple[str, str | None, int, int]] = set()
    for verdict in analysis.racy():
        key = (
            verdict.group,
            verdict.rule,
            verdict.writer.stage,
            verdict.other.stage,
        )
        if key in seen:
            continue
        seen.add(key)
        diags.append(_race_diagnostic(kernel, verdict))
    return diags


def _race_diagnostic(kernel: str, v: PairVerdict) -> Diagnostic:
    writer, other = v.writer, v.other
    window = _format_window(v.d_tw, v.d_wt)
    if v.rule == "WASP-S001":
        message = (
            f"buffer {v.group!r} is written by stage {writer.stage} "
            f"and touched by stage {other.stage} with no ordering "
            "between the write and the access in the same generation"
        )
        hint = (
            "insert a filled-style barrier: arrive in stage "
            f"{writer.stage} after the writes, wait in stage "
            f"{other.stage} before its accesses"
        )
    elif v.rule == "WASP-S005":
        message = (
            f"buffer {v.group!r}: queue credit lets stage "
            f"{writer.stage} run far enough ahead of stage "
            f"{other.stage} to lap the buffer (unordered generation "
            f"shifts {window}); ordering holds only with depth-1 "
            "credit"
        )
        hint = (
            "shrink the queue below the buffer's phase count or add "
            "an empty-style barrier"
        )
    else:
        message = (
            f"buffer {v.group!r}: stage {writer.stage}'s write can "
            f"land on a phase while stage {other.stage}'s access to "
            f"the same phase from another generation is outstanding "
            f"(unordered generation shifts {window})"
        )
        hint = (
            "deepen the circular buffer or arrive an empty-style "
            f"barrier in stage {other.stage} when each phase is done"
        )
    assert v.rule is not None
    return Diagnostic(
        rule=v.rule,
        message=message,
        kernel=kernel,
        stage=writer.stage,
        block=writer.block,
        instruction=writer.instr_repr,
        hint=hint,
    )


def _format_window(d_tw: float, d_wt: float) -> str:
    lo = "-inf" if d_tw == float("inf") else str(int(-d_tw))
    hi = "inf" if d_wt == float("inf") else str(int(d_wt))
    return f"({lo}, {hi})"

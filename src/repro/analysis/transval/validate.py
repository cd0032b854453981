"""Translation validation: execution-free equivalence certificates.

``validate_programs`` is the one entry point: given the pre-compile
kernel and the :class:`WaspCompiler` output it walks both sides into
symbolic effect summaries (:mod:`repro.analysis.transval.effects`),
checks the cutpoint simulation relation over ring-slot residues
(:mod:`repro.analysis.transval.match`), and folds in the ordering
obligations the value proof relies on — the happens-before engine must
be able to order every cross-stage SMEM access the threading step read
through, and the static verifier must not have found protocol errors
(a racy or deadlocking program has no meaningful simulation relation to
certify).  Both come from the specialized program's shared
:class:`~repro.analysis.facts.PipelineFacts`, so a compile that already
verified its output solves neither again.

Verdicts are three-valued, and abstention is *never* silently folded
into a pass:

``equivalent``
    every specialized store matched 1:1, no T-errors, no abstentions.
``not-equivalent``
    at least one T001/T002/T003 error — a concrete broken obligation.
``abstain``
    no errors, but at least one WASP-T004: the program left the
    validated fragment somewhere, so equivalence is unproven.

Certificates live in the compiler's per-source slot
(:mod:`repro.core.compiler.memo`, which also says why one slot is
enough).  Many compiles of one source produce the same program (the
ring depth often changes nothing), so each distinct (source, compiled
program) pair is certified once:

* **Key.** :func:`~repro.isa.serialize.program_digest` of both sides:
  the SHA-256 of the full serialized program — name, thread-block
  spec, SMEM layout, every instruction field and attr — with the
  compiler's uid-derived ``key`` attrs renumbered by first appearance.
  The source's digest is the slot's, under the slot's source rule
  (the source object last selected keeps its digest only while its
  snapshot is unchanged, so an in-place edit is digested again); the
  compiled side's is ``facts.program_digest``.  A mutated or injected
  program has different content and so gets its own certificate.
* **Why reuse is exact.** A validation reads only the two programs'
  contents: the effect summaries, the HB solve and the verifier report
  (under the default :class:`~repro.analysis.resources.VerifyLimits`)
  are functions of the program.  No analysis reads an instruction's
  ``uid`` or ``key`` attr, and diagnostics render instructions through
  ``Instruction.__repr__``, which omits both.  A hit therefore returns
  what a fresh run would, as a new :class:`ValidationReport` with a
  copied diagnostic list (the summaries are shared and read-only).  A
  hit on private facts leaves their ``hb`` and ``report`` unsolved; it
  still opens the ``transval/validate`` span and counts its verdict.

Exceptions are never memoized, and nothing is written to disk;
:func:`~repro.core.compiler.memo.clear_source_slot` empties the slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
)
from repro.analysis.facts import PipelineFacts
from repro.analysis.transval.effects import Summary, summarize_program
from repro.analysis.transval.match import match_summaries
from repro.core.compiler.memo import SOURCE_SLOT
from repro.errors import VerificationError
from repro.isa.program import Program
from repro.telemetry.registry import TELEMETRY
from repro.telemetry.spans import span

__all__ = [
    "EQUIVALENT",
    "NOT_EQUIVALENT",
    "ABSTAIN",
    "ValidationReport",
    "validate_programs",
    "validate_or_raise",
]

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not-equivalent"
ABSTAIN = "abstain"

_T_ERRORS = ("WASP-T001", "WASP-T002", "WASP-T003")


@dataclass
class ValidationReport:
    """One translation-validation run: verdict plus the evidence."""

    kernel: str
    verdict: str
    report: DiagnosticReport
    matched_stores: int = 0
    source_stores: int = 0
    spec_stores: int = 0
    specialized: bool = True
    #: True when an earlier identical compile's certificate was reused;
    #: not serialized.
    reused: bool = field(default=False, compare=False)
    #: Populated for introspection/tests; not serialized.
    source_summary: Summary | None = field(default=None, repr=False)
    spec_summary: Summary | None = field(default=None, repr=False)

    @property
    def t_errors(self) -> list[Diagnostic]:
        return [d for d in self.report if d.rule in _T_ERRORS]

    @property
    def abstentions(self) -> list[Diagnostic]:
        return [d for d in self.report if d.rule == "WASP-T004"]

    def summary_line(self) -> str:
        detail = (
            f"{self.matched_stores}/{self.source_stores} store "
            "obligations matched"
            if self.specialized else "unspecialized output (identity)"
        )
        return f"transval: {self.verdict} ({detail})"

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": "repro-transval-v1",
            "kernel": self.kernel,
            "verdict": self.verdict,
            "specialized": self.specialized,
            "matched_stores": self.matched_stores,
            "source_stores": self.source_stores,
            "spec_stores": self.spec_stores,
            "num_t_errors": len(self.t_errors),
            "num_abstentions": len(self.abstentions),
            "diagnostics": self.report.to_json()["diagnostics"],
        }


def validate_programs(
    source: Program,
    specialized: Program,
    *,
    facts: PipelineFacts | None = None,
) -> ValidationReport:
    """Check the simulation relation between ``source`` and its compile.

    ``facts`` are the specialized program's shared facts (a compile's
    :attr:`CompileResult.facts`); without them private ones are built.
    A (source, compiled program) pair certified before is answered from
    the per-source slot (module docstring).
    """
    facts = facts or PipelineFacts(specialized)
    if facts.program is not specialized:
        raise ValueError("facts describe a different program")
    with span("transval", "validate"):
        SOURCE_SLOT.select(source)
        key = facts.program_digest
        cached = SOURCE_SLOT.certificates.get(key)
        reused = cached is not None
        if cached is None:
            cached = _validate(source, specialized, facts)
            SOURCE_SLOT.certificates[key] = cached
        _count(cached.report, cached.verdict, reused)
        return replace(
            cached,
            report=DiagnosticReport(list(cached.report)),
            reused=reused,
        )


def _validate(
    source: Program, specialized: Program, facts: PipelineFacts
) -> ValidationReport:
    """One uncached validation; the source summary comes from the slot."""
    report = DiagnosticReport()
    specialized_output = bool(facts.view.stages)
    src_sum: Summary | None = None
    spec_sum: Summary | None = None
    matched = n_src = n_spec = 0

    if specialized_output:
        report.extend(_ordering_diagnostics(facts))
        with span("transval", "summarize"):
            if SOURCE_SLOT.source_summary is None:
                SOURCE_SLOT.source_summary = summarize_program(
                    source, side="source"
                )
            src_sum = SOURCE_SLOT.source_summary
            spec_sum = summarize_program(
                specialized, side="specialized", facts=facts
            )
        with span("transval", "match"):
            res = match_summaries(src_sum, spec_sum)
        report.extend(res.diagnostics)
        matched = res.matched_stores
        n_src = res.source_stores
        n_spec = res.spec_stores
    # An unspecialized compile is the identity transformation: the
    # compiler bailed before rewriting anything, so the relation holds
    # trivially and there is nothing to walk.

    report = report.normalized()
    return ValidationReport(
        kernel=source.name,
        verdict=_verdict(report),
        report=report,
        matched_stores=matched,
        source_stores=n_src,
        spec_stores=n_spec,
        specialized=specialized_output,
        source_summary=src_sum,
        spec_summary=spec_sum,
    )


def validate_or_raise(
    source: Program,
    specialized: Program,
    *,
    facts: PipelineFacts | None = None,
) -> ValidationReport:
    """The compiler's opt-out post-pass: raise on ``not-equivalent``.

    Abstention does **not** raise — it is a coverage statement, not a
    counterexample — but it is preserved on the report so callers (CI,
    the fuzz cross-check) can gate on it explicitly.
    """
    result = validate_programs(source, specialized, facts=facts)
    if result.verdict == NOT_EQUIVALENT:
        errs = result.t_errors
        raise VerificationError(
            f"{source.name!r} failed translation validation with "
            f"{len(errs)} error(s); first: {errs[0].format()}",
            diagnostics=list(result.report),
        )
    return result


def _ordering_diagnostics(facts: PipelineFacts) -> list[Diagnostic]:
    """T003: the ordering facts the value proof depends on must hold.

    The queue threading step assumed FIFO pairing and the SMEM
    threading step assumed writer-before-reader per ring slot; both
    are exactly what the happens-before engine proves.  Any RACY pair
    — and any error-severity queue/deadlock/SMEM finding in the shared
    verifier report — voids the simulation relation.
    """
    specialized = facts.program
    diags: list[Diagnostic] = []
    for verdict in facts.hb.racy():
        base = verdict.rule or "WASP-S001"
        diags.append(Diagnostic(
            rule="WASP-T003",
            message=(
                f"accesses to {verdict.group!r} are unordered "
                f"({base}: stage {verdict.writer.stage} "
                f"{verdict.writer.instr_repr} vs stage "
                f"{verdict.other.stage} {verdict.other.instr_repr}); "
                "the equivalence proof relies on this ordering"
            ),
            kernel=specialized.name,
            stage=verdict.writer.stage,
            block=verdict.writer.block,
            instruction=verdict.writer.instr_repr,
            hint="fix the barrier/credit protocol first — value "
                 "equivalence cannot hold across a data race",
        ))
    for diag in facts.report:
        family = diag.rule.split("-")[1][0]
        if diag.severity is Severity.ERROR and family in "QDS":
            diags.append(Diagnostic(
                rule="WASP-T003",
                message=(
                    f"static verifier found {diag.rule} on the "
                    f"specialized program: {diag.message}"
                ),
                kernel=specialized.name,
                stage=diag.stage,
                block=diag.block,
                instruction=diag.instruction,
                hint=diag.hint,
            ))
    return diags


def _verdict(report: DiagnosticReport) -> str:
    if any(d.rule in _T_ERRORS for d in report):
        return NOT_EQUIVALENT
    if any(d.rule == "WASP-T004" for d in report):
        return ABSTAIN
    return EQUIVALENT


def _count(report: DiagnosticReport, verdict: str, reused: bool) -> None:
    # Whether a validation runs at all depends on trace-cache locality
    # (cached sweeps skip the compile entirely), and so does whether it
    # repeats an earlier compile, so like the fuzz verdict cache these
    # series are ``invariant=False`` — not expected to be bit-identical
    # across --jobs settings.
    if not TELEMETRY.enabled:
        return
    if reused:
        TELEMETRY.counter(
            "repro_transval_certificate_reuses_total",
            help="Validations answered by an earlier identical "
                 "compile's certificate.",
            invariant=False,
        ).inc()
    TELEMETRY.counter(
        "repro_transval_verdicts_total",
        labels={"verdict": verdict},
        help="Translation-validation verdicts by kind.",
        invariant=False,
    ).inc()
    for diag in report:
        if diag.rule.startswith("WASP-T"):
            TELEMETRY.counter(
                "repro_transval_rule_firings_total",
                labels={"rule": diag.rule},
                help="Diagnostics emitted per translation-validation "
                     "rule.",
                invariant=False,
            ).inc()

"""Static pipeline verifier: one entry point over the three passes.

``verify_program`` runs without executing anything: structural (CFG)
validation first, then — when the CFG is sound — the queue/barrier
protocol, SMEM-race and resource passes over the stage-partitioned
program view.  Programs without a :class:`ThreadBlockSpec` get the
single-stage subset (hygiene, bounds, resources, use-before-def).

``verify_or_raise`` is the compiler's opt-out post-pass: any
error-severity diagnostic raises :class:`repro.errors.VerificationError`
carrying the full report.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.analysis.facts import PipelineFacts
from repro.analysis.protocol import check_protocol
from repro.analysis.resources import VerifyLimits, check_resources
from repro.analysis.smem import check_smem
from repro.errors import VerificationError
from repro.isa.program import Program
from repro.telemetry.registry import TELEMETRY
from repro.telemetry.spans import span


def verify_program(
    program: Program,
    limits: VerifyLimits | None = None,
    *,
    facts: PipelineFacts | None = None,
) -> DiagnosticReport:
    """Run every static-analysis pass over ``program``.

    Never raises on findings — the report carries them.  Structural
    breakage severe enough to invalidate the CFG (duplicate labels,
    unresolved branch targets) short-circuits the protocol passes
    before the stage view is built, since stage partitioning would be
    meaningless.  ``facts`` are the program's shared facts; without
    them the passes build private ones.
    """
    with span("verifier", "verify"):
        limits = limits or VerifyLimits()
        report = DiagnosticReport()

        structural = program.structural_diagnostics()
        report.extend(structural)
        if any(d.rule in ("WASP-C001", "WASP-C002", "WASP-C004")
               for d in structural):
            return _finish(report)

        facts = facts or PipelineFacts(program)
        report.extend(check_protocol(facts))
        report.extend(check_smem(facts))
        report.extend(check_resources(facts, limits))
        return _finish(report)


def _finish(report: DiagnosticReport) -> DiagnosticReport:
    """Normalize (sort + dedup) and count rule firings."""
    report = report.normalized()
    if TELEMETRY.enabled:
        for diag in report:
            TELEMETRY.counter(
                "verifier_rule_firings_total",
                labels={"rule": diag.rule},
                help="Diagnostics emitted per static-verifier rule.",
            ).inc()
    return report


def verify_or_raise(
    program: Program, *, facts: PipelineFacts | None = None
) -> DiagnosticReport:
    """Verify and raise :class:`VerificationError` on any error finding."""
    report = (facts or PipelineFacts(program)).report
    errors = report.errors
    if errors:
        raise VerificationError(
            f"{program.name!r} failed static pipeline verification "
            f"with {len(errors)} error(s); first: {errors[0].format()}",
            diagnostics=list(report),
        )
    return report


def structural_error(diag: Diagnostic) -> VerificationError:
    """A :class:`VerificationError` wrapping one structural diagnostic."""
    return VerificationError(diag.format(), diagnostics=[diag])

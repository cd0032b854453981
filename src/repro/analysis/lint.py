"""The ``repro lint`` and ``repro validate`` sweeps.

Lint compiles each kernel with verification-as-exception disabled,
runs the static verifier over the result (the specialized program when
extraction succeeds, the original otherwise), and aggregates the
findings into one report document.  Validate compiles each kernel under
named option sets at each ring depth and certifies every compile
equivalent to its source with the translation validator.

Unlike the compiler's opt-out post-passes these never raise on
findings: they exist to *show* them.  Both commands are
:class:`repro.sweeps.Sweep` declarations (:data:`LINT`,
:data:`VALIDATE`); the driver gates the exit code on their reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.facts import PipelineFacts
from repro.analysis.sarif import sarif_from_lint, sarif_from_validate
from repro.core.compiler.pipeline import (
    CompileResult,
    WaspCompiler,
    WaspCompilerOptions,
)
from repro.isa.program import Program
from repro.sweeps import Cell, Sweep, registry_kernels

if TYPE_CHECKING:
    from argparse import Namespace

    from repro.analysis.transval import ValidationReport
    from repro.fuzz.corpus import CorpusEntry
    from repro.workloads.base import Kernel

LINT_SCHEMA = "repro-lint-report-v1"
VALIDATE_SCHEMA = "repro-validate-report-v1"


@dataclass
class KernelLint:
    """One kernel's verification outcome."""

    benchmark: str
    kernel: str
    specialized: bool
    num_stages: int
    report: DiagnosticReport

    @property
    def label(self) -> str:
        return f"{self.benchmark}/{self.kernel}"

    def to_json(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "kernel": self.kernel,
            "specialized": self.specialized,
            "num_stages": self.num_stages,
            **self.report.to_json(),
        }


@dataclass
class LintResult:
    """Aggregated lint outcome over a set of benchmarks."""

    scale: float
    kernels: list[KernelLint] = field(default_factory=list)

    @property
    def num_errors(self) -> int:
        return sum(len(k.report.errors) for k in self.kernels)

    @property
    def num_warnings(self) -> int:
        return sum(len(k.report.warnings) for k in self.kernels)

    @property
    def clean(self) -> bool:
        return self.num_errors == 0

    def summary_line(self) -> str:
        if self.num_errors == 0 and self.num_warnings == 0:
            return (
                f"verifier: clean across {len(self.kernels)} kernel(s)"
            )
        parts = []
        if self.num_errors:
            parts.append(f"{self.num_errors} error(s)")
        if self.num_warnings:
            parts.append(f"{self.num_warnings} warning(s)")
        return (
            f"verifier: {', '.join(parts)} across "
            f"{len(self.kernels)} kernel(s)"
        )

    def to_json(self) -> dict:
        return {
            "schema": LINT_SCHEMA,
            "scale": self.scale,
            "num_kernels": len(self.kernels),
            "num_errors": self.num_errors,
            "num_warnings": self.num_warnings,
            "kernels": [k.to_json() for k in self.kernels],
        }

    def to_text(self, verbose: bool = False) -> str:
        lines: list[str] = []
        for kernel in self.kernels:
            findings = list(kernel.report)
            tag = (
                f"{kernel.num_stages}-stage pipeline"
                if kernel.specialized else "not specialized"
            )
            if findings:
                lines.append(f"{kernel.label} [{tag}]:")
                lines.extend(f"  {d.format()}" for d in findings)
            elif verbose:
                lines.append(f"{kernel.label} [{tag}]: clean")
        lines.append(self.summary_line())
        return "\n".join(lines)


def lint_kernel(
    program: Program,
    num_warps: int,
    options: WaspCompilerOptions | None = None,
    validate: bool = False,
) -> tuple[CompileResult, DiagnosticReport]:
    """Compile one kernel program (verifier-as-exception off) and verify.

    Returns ``(compile_result, DiagnosticReport)``.  Used by tests and
    :func:`lint_benchmarks`; callers that want raising behaviour should
    compile with ``verify=True`` instead.  With ``validate=True`` the
    translation validator runs too and its WASP-T findings are merged
    into the report.
    """
    result = _compile_unchecked(program, num_warps, options)
    facts = result.facts or PipelineFacts(result.program)
    report = facts.report
    if validate:
        from repro.analysis.transval import validate_programs

        tv = validate_programs(program, result.program, facts=facts)
        report = DiagnosticReport([*report, *tv.report]).normalized()
    return result, report


def lint_one(
    benchmark: str,
    name: str,
    kernel: Kernel,
    options: WaspCompilerOptions | None = None,
    validate: bool = False,
) -> KernelLint:
    """Lint one kernel and label its outcome ``benchmark/name``."""
    result, report = lint_kernel(
        kernel.program, kernel.launch.num_warps, options, validate=validate
    )
    return KernelLint(
        benchmark=benchmark,
        kernel=name,
        specialized=result.specialized,
        num_stages=result.num_stages,
        report=report,
    )


def lint_benchmarks(
    names: list[str] | None = None,
    scale: float = 0.25,
    options: WaspCompilerOptions | None = None,
    validate: bool = False,
) -> LintResult:
    """Lint every kernel of the named benchmarks (default: all)."""
    return LintResult(scale, [
        lint_one(bench, kernel.name, kernel, options, validate)
        for bench, kernel in registry_kernels(names, scale)
    ])


@dataclass
class KernelValidation:
    """One kernel's translation-validation outcome at one ring depth."""

    benchmark: str
    kernel: str
    depth: int
    specialized: bool
    verdict: str
    report: DiagnosticReport
    matched_stores: int = 0
    source_stores: int = 0
    options_name: str = ""
    #: The certificate came from an earlier identical compile; not
    #: serialized.
    reused: bool = False
    #: The compile came from an earlier compile of the same source
    #: under the same compile key; not serialized.
    compile_reused: bool = False

    @property
    def label(self) -> str:
        opts = f"[{self.options_name}]" if self.options_name else ""
        return f"{self.benchmark}/{self.kernel}{opts}@depth{self.depth}"

    def to_json(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "kernel": self.kernel,
            "depth": self.depth,
            "options": self.options_name,
            "specialized": self.specialized,
            "verdict": self.verdict,
            "matched_stores": self.matched_stores,
            "source_stores": self.source_stores,
            **self.report.to_json(),
        }


@dataclass
class ValidateResult:
    """Aggregated translation-validation outcome (``repro validate``)."""

    scale: float
    kernels: list[KernelValidation] = field(default_factory=list)

    @property
    def num_errors(self) -> int:
        return sum(len(k.report.errors) for k in self.kernels)

    @property
    def num_warnings(self) -> int:
        return sum(len(k.report.warnings) for k in self.kernels)

    @property
    def num_abstentions(self) -> int:
        return sum(
            1 for k in self.kernels if k.verdict == "abstain"
        )

    @property
    def num_reused(self) -> int:
        return sum(k.reused for k in self.kernels)

    @property
    def num_compiles_reused(self) -> int:
        return sum(k.compile_reused for k in self.kernels)

    @property
    def clean(self) -> bool:
        """Every compile certified: no T-errors and no abstentions."""
        return all(k.verdict == "equivalent" for k in self.kernels)

    def summary_line(self) -> str:
        n = len(self.kernels)
        if self.clean:
            return f"transval: {n} compile(s) certified equivalent"
        n_neq = sum(
            1 for k in self.kernels if k.verdict == "not-equivalent"
        )
        parts = []
        if n_neq:
            parts.append(f"{n_neq} not-equivalent")
        if self.num_abstentions:
            parts.append(f"{self.num_abstentions} abstained")
        return f"transval: {', '.join(parts)} of {n} compile(s)"

    def to_json(self) -> dict:
        return {
            "schema": VALIDATE_SCHEMA,
            "scale": self.scale,
            "num_kernels": len(self.kernels),
            "num_errors": self.num_errors,
            "num_abstentions": self.num_abstentions,
            "kernels": [k.to_json() for k in self.kernels],
        }

    def to_text(self, verbose: bool = False) -> str:
        lines: list[str] = []
        for kernel in self.kernels:
            tag = (
                f"{kernel.matched_stores}/{kernel.source_stores} stores"
                if kernel.specialized else "not specialized"
            )
            if kernel.verdict != "equivalent":
                lines.append(
                    f"{kernel.label} [{tag}]: {kernel.verdict}"
                )
                lines.extend(f"  {d.format()}" for d in kernel.report)
            elif verbose:
                lines.append(f"{kernel.label} [{tag}]: equivalent")
        lines.append(self.summary_line())
        return "\n".join(lines)


def validate_kernel(
    program: Program,
    num_warps: int,
    options: WaspCompilerOptions | None = None,
) -> tuple[CompileResult, ValidationReport]:
    """Compile one kernel and run the translation validator over it."""
    from repro.analysis.transval import validate_programs

    result = _compile_unchecked(program, num_warps, options)
    return result, validate_programs(
        program, result.program, facts=result.facts
    )


def _compile_unchecked(
    program: Program, num_warps: int, options: WaspCompilerOptions | None
) -> CompileResult:
    """Compile with the raising verify/validate post-passes off."""
    options = replace(
        options or WaspCompilerOptions(), verify=False, validate=False
    )
    return WaspCompiler(options).compile(program, num_warps)


class OptionSet(NamedTuple):
    """A named compiler option set: one entry of validate's axis."""

    name: str
    compiler: WaspCompilerOptions


def standard_option_sets() -> list[OptionSet]:
    """The named compiler option sets ``repro validate`` sweeps.

    These are the fuzz oracle's deterministic variants minus
    ``deep-ring`` (its ``pipeline_depth=4`` would be overridden by the
    depth cross anyway, duplicating ``full``).
    """
    from repro.fuzz.oracle import OPTION_SETS

    return [OptionSet(n, o) for n, o in OPTION_SETS if n != "deep-ring"]


def _lint_entry(entry: CorpusEntry, args: Namespace) -> list[KernelLint]:
    """Lint a corpus entry's clean compile; the corpus doubles as lint
    coverage beyond the registry.  Injected corruptions are exercised
    by ``repro validate --corpus`` and the fuzz gates, not here."""
    from repro.fuzz.generator import build_kernel

    kernel = build_kernel(entry.spec)
    return [lint_one("corpus", entry.name, kernel, validate=args.validate)]


#: ``repro lint``: every registry kernel (or corpus entry) under the
#: default compiler options.
LINT: Sweep[KernelLint, LintResult] = Sweep(
    label="lint",
    checks={
        "corpus": _lint_entry,
        "registry": lambda cell, args: [lint_one(
            cell.benchmark, cell.kernel.name, cell.kernel, cell.options,
            args.validate,
        )],
    },
    default_sources=("registry",),
    report=LintResult,
    footer=lambda result, elapsed: (
        f"[linted {len(result.kernels)} kernel(s) in {elapsed:.1f}s]"
    ),
    axis=lambda args: [OptionSet("default", WaspCompilerOptions())],
    sarif=sarif_from_lint,
)


def _validate_axis(args: Namespace) -> list[OptionSet]:
    """The ``--options`` sets, by name (``standard``: all four)."""
    standard = {s.name: s for s in standard_option_sets()}
    wanted = args.options.split(",")
    if "standard" in wanted:
        wanted = list(standard)
    unknown = [w for w in wanted if w not in standard]
    if unknown:
        raise SystemExit(
            f"unknown option set(s) {unknown}; choose from: "
            + ", ".join([*standard, "standard"])
        )
    return [standard[w] for w in wanted]


def _validate_cell(cell: Cell, args: Namespace) -> list[KernelValidation]:
    result, tv = validate_kernel(
        cell.kernel.program, cell.kernel.launch.num_warps, cell.options
    )
    return [KernelValidation(
        benchmark=cell.benchmark,
        kernel=cell.kernel.name,
        depth=cell.depth,
        options_name=cell.entry.name,
        specialized=result.specialized,
        verdict=tv.verdict,
        report=tv.report,
        matched_stores=tv.matched_stores,
        source_stores=tv.source_stores,
        reused=tv.reused,
        compile_reused=result.reused,
    )]


def _validate_entry(
    entry: CorpusEntry, args: Namespace
) -> list[KernelValidation]:
    """Translation-validate a corpus entry's first specializing compile.

    An entry carrying an injected corruption is compiled, mutated, and
    validated: the validator must report ``not-equivalent`` (these are
    the detector self-tests).  A clean entry must certify
    ``equivalent``.  A verdict contradicting the expectation surfaces
    as a synthetic WASP-T002 so the standard gating
    (:attr:`ValidateResult.clean`) fails.
    """
    from repro.analysis.transval import validate_programs
    from repro.fuzz.generator import build_kernel
    from repro.fuzz.mutate import apply_mutation
    from repro.fuzz.oracle import OPTION_SETS

    kernel = build_kernel(entry.spec)
    for opts_name, options in OPTION_SETS:
        result = _compile_unchecked(
            kernel.program, kernel.launch.num_warps, options
        )
        if not result.specialized:
            continue
        program, facts = result.program, result.facts
        if entry.inject is not None:
            program, facts = apply_mutation(program, entry.inject), None
            if program is None:
                continue
        tv = validate_programs(kernel.program, program, facts=facts)
        verdict = tv.verdict
        report = tv.report
        if entry.inject is not None:
            # Expectation flip: a flagged corruption is the
            # *passing* outcome for an injected entry.
            if verdict == "not-equivalent":
                verdict = "equivalent"
                report = DiagnosticReport()
            else:
                from repro.analysis.diagnostics import Diagnostic

                verdict = "not-equivalent"
                report = DiagnosticReport([Diagnostic(
                    rule="WASP-T002",
                    message=(
                        f"injected corruption {entry.inject!r} was "
                        f"NOT statically flagged (validator said "
                        f"{tv.verdict!r}) — the corpus self-test "
                        "expects not-equivalent"
                    ),
                    kernel=kernel.program.name,
                )])
        return [KernelValidation(
            benchmark="corpus",
            kernel=entry.name,
            depth=options.pipeline_depth,
            options_name=opts_name,
            specialized=True,
            verdict=verdict,
            report=report,
            matched_stores=tv.matched_stores,
            source_stores=tv.source_stores,
            reused=tv.reused,
            compile_reused=result.reused,
        )]
    return []


#: ``repro validate``: registry kernels × ``--options`` sets × ring
#: depths (depths nested inside each set), or the corpus self-tests.
VALIDATE: Sweep[KernelValidation, ValidateResult] = Sweep(
    label="validation",
    checks={"corpus": _validate_entry, "registry": _validate_cell},
    default_sources=("registry",),
    report=ValidateResult,
    footer=lambda result, elapsed: (
        f"[validated {len(result.kernels)} compile(s) in {elapsed:.1f}s; "
        f"{result.num_compiles_reused} compile(s) reused; "
        f"{result.num_reused} certificate(s) reused]"
    ),
    axis=_validate_axis,
    depths_outer=False,
    sarif=sarif_from_validate,
)

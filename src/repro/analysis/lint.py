"""Registry-wide lint driver behind ``repro lint``.

Compiles each workload kernel with the standard compiler options but
verification-as-exception disabled, runs the static verifier over the
result (the specialized program when extraction succeeds, the original
otherwise), and aggregates the findings into one report document.

Unlike the compiler's opt-out post-pass this never raises on findings:
lint exists to *show* them.  The CLI maps error-severity findings to a
non-zero exit code so CI can gate on a clean registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.facts import PipelineFacts
from repro.core.compiler.pipeline import (
    CompileResult,
    WaspCompiler,
    WaspCompilerOptions,
)
from repro.isa.program import Program

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


def lint_benchmarks(
    names: list[str] | None = None,
    scale: float = 0.25,
    options: WaspCompilerOptions | None = None,
    validate: bool = False,
) -> LintResult:
    """Lint every kernel of the named benchmarks (default: all)."""
    from repro.workloads.registry import all_benchmarks, get_benchmark

    names = list(names) if names else all_benchmarks()
    out = LintResult(scale=scale)
    for name in names:
        bench = get_benchmark(name, scale)
        for kernel in bench.kernels:
            result, report = lint_kernel(
                kernel.program, kernel.launch.num_warps, options,
                validate=validate,
            )
            out.kernels.append(KernelLint(
                benchmark=bench.name,
                kernel=kernel.name,
                specialized=result.specialized,
                num_stages=result.num_stages,
                report=report,
            ))
    return out


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
    def num_abstentions(self) -> int:
        return sum(
            1 for k in self.kernels if k.verdict == "abstain"
        )

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
) -> tuple[CompileResult, "object"]:
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


def validate_benchmarks(
    names: list[str] | None = None,
    scale: float = 0.25,
    option_sets: (
        list[tuple[str, WaspCompilerOptions]] | None
    ) = None,
    depths: tuple[int, ...] = (2,),
) -> ValidateResult:
    """Validate the named benchmarks under each (options, depth) pair.

    ``option_sets`` is ``[(name, options), …]``; each is crossed with
    every ring depth in ``depths`` (``pipeline_depth`` is overridden
    per run).  Default: one run per depth under default options.
    """
    from repro.workloads.registry import all_benchmarks, get_benchmark

    names = list(names) if names else all_benchmarks()
    option_sets = option_sets or [("default", WaspCompilerOptions())]
    out = ValidateResult(scale=scale)
    for name in names:
        bench = get_benchmark(name, scale)
        for kernel in bench.kernels:
            for opts_name, options in option_sets:
                for depth in depths:
                    result, tv = validate_kernel(
                        kernel.program,
                        kernel.launch.num_warps,
                        replace(options, pipeline_depth=depth),
                    )
                    out.kernels.append(KernelValidation(
                        benchmark=bench.name,
                        kernel=kernel.name,
                        depth=depth,
                        options_name=opts_name,
                        specialized=result.specialized,
                        verdict=tv.verdict,
                        report=tv.report,
                        matched_stores=tv.matched_stores,
                        source_stores=tv.source_stores,
                    ))
    return out


def standard_option_sets() -> list[tuple[str, WaspCompilerOptions]]:
    """The named compiler option sets ``repro validate`` sweeps.

    These are the fuzz oracle's deterministic variants minus
    ``deep-ring`` (its ``pipeline_depth=4`` would be overridden by the
    depth cross anyway, duplicating ``full``).
    """
    from repro.fuzz.oracle import OPTION_SETS

    return [(n, o) for n, o in OPTION_SETS if n != "deep-ring"]


def lint_corpus(corpus_dir=None, validate: bool = False) -> LintResult:
    """Lint the committed fuzz-corpus kernels (``repro lint --corpus``).

    Each corpus entry's spec is rebuilt into a kernel and its *clean*
    compile is verified — the corpus doubles as extra lint coverage
    beyond the registry.  Injected corruptions are exercised by
    ``repro validate --corpus`` and the fuzz gates, not here.
    """
    from repro.fuzz.corpus import load_corpus
    from repro.fuzz.generator import build_kernel

    out = LintResult(scale=1.0)
    for entry in load_corpus(corpus_dir):
        kernel = build_kernel(entry.spec)
        result, report = lint_kernel(
            kernel.program, kernel.launch.num_warps, validate=validate,
        )
        out.kernels.append(KernelLint(
            benchmark="corpus",
            kernel=entry.name,
            specialized=result.specialized,
            num_stages=result.num_stages,
            report=report,
        ))
    return out


def validate_corpus(corpus_dir=None) -> ValidateResult:
    """Translation-validate the committed fuzz corpus.

    Entries carrying an injected corruption are compiled, mutated, and
    validated — the validator must report ``not-equivalent`` (these
    are the detector self-tests).  Clean entries must certify
    ``equivalent``.  An entry whose verdict contradicts its expectation
    is surfaced as a synthetic WASP-T002 so the standard gating
    (:attr:`ValidateResult.clean`) fails.
    """
    from repro.analysis.transval import validate_programs
    from repro.fuzz.corpus import load_corpus
    from repro.fuzz.generator import build_kernel
    from repro.fuzz.mutate import apply_mutation
    from repro.fuzz.oracle import OPTION_SETS

    out = ValidateResult(scale=1.0)
    for entry in load_corpus(corpus_dir):
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
            out.kernels.append(KernelValidation(
                benchmark="corpus",
                kernel=entry.name,
                depth=options.pipeline_depth,
                options_name=opts_name,
                specialized=True,
                verdict=verdict,
                report=report,
                matched_stores=tv.matched_stores,
                source_stores=tv.source_stores,
            ))
            break
    return out

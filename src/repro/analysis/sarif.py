"""SARIF 2.1.0 export for verifier diagnostics (``repro lint --sarif``).

Static Analysis Results Interchange Format output lets GitHub code
scanning, VS Code SARIF viewers and other standard tooling ingest the
WASP verifier's findings directly.  The document is built by hand (no
external dependency): one ``run`` whose ``tool.driver.rules`` array is
the full rule catalogue (:data:`repro.analysis.diagnostics.RULES`) and
whose ``results`` map each :class:`Diagnostic` to a SARIF result with a
logical location — pipeline kernels have no source files, so findings
anchor to ``kernel::block`` logical names instead of physical ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.analysis.diagnostics import RULES, Diagnostic, Severity

if TYPE_CHECKING:
    from repro.analysis.lint import (
        KernelLint,
        KernelValidation,
        LintResult,
        ValidateResult,
    )

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Verifier severity -> SARIF result level.
_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def _rule_descriptors() -> list[dict[str, Any]]:
    """The catalogue as ``reportingDescriptor`` objects, sorted by id."""
    descriptors = []
    for rule_id in sorted(RULES):
        severity, description = RULES[rule_id]
        descriptors.append({
            "id": rule_id,
            "shortDescription": {"text": description},
            "defaultConfiguration": {"level": _LEVELS[severity]},
        })
    return descriptors


def _result(diag: Diagnostic, rule_index: dict[str, int]) -> dict[str, Any]:
    assert diag.severity is not None
    message = diag.message
    if diag.hint:
        message += f" (hint: {diag.hint})"
    result: dict[str, Any] = {
        "ruleId": diag.rule,
        "ruleIndex": rule_index[diag.rule],
        "level": _LEVELS[diag.severity],
        "message": {"text": message},
    }
    logical: dict[str, Any] = {"kind": "function"}
    name_parts = [p for p in (diag.kernel, diag.block) if p]
    if name_parts:
        logical["name"] = name_parts[-1]
        logical["fullyQualifiedName"] = "::".join(name_parts)
    result["locations"] = [{"logicalLocations": [logical]}]
    properties: dict[str, Any] = {}
    if diag.stage is not None:
        properties["stage"] = diag.stage
    if diag.instruction is not None:
        properties["instruction"] = diag.instruction
    if properties:
        result["properties"] = properties
    return result


def _sarif_document(
    tool_name: str, results: list[dict[str, Any]]
) -> dict[str, Any]:
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": tool_name,
                    "rules": _rule_descriptors(),
                }
            },
            "columnKind": "unicodeCodePoints",
            "results": results,
        }],
    }


def _sarif_log(
    tool_name: str, kernels: Iterable[KernelLint | KernelValidation]
) -> dict[str, Any]:
    rule_index = {rule_id: i for i, rule_id in enumerate(sorted(RULES))}
    results = [
        _result(diag, rule_index)
        for kernel in kernels
        for diag in kernel.report
    ]
    return _sarif_document(tool_name, results)


def sarif_from_lint(result: LintResult) -> dict[str, Any]:
    """One SARIF 2.1.0 log for a whole ``repro lint`` run."""
    return _sarif_log("repro-lint", result.kernels)


def sarif_from_validate(result: ValidateResult) -> dict[str, Any]:
    """One SARIF 2.1.0 log for a whole ``repro validate`` run.

    WASP-T diagnostics export exactly like the verifier families: the
    rule catalogue in ``tool.driver.rules`` already carries T001–T004,
    so code-scanning UIs render translation-validation findings with
    no extra plumbing.
    """
    return _sarif_log("repro-transval", result.kernels)

"""SARIF export, deterministic diagnostic ordering, strict lint exits.

SARIF structure is validated against the parts of the 2.1.0 schema the
exporter exercises (required top-level keys, rule metadata wiring,
result/rule index consistency) so downstream viewers and GitHub code
scanning can rely on the document shape without a network fetch.
"""

from __future__ import annotations

import json
import random

from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    DiagnosticReport,
    Severity,
)
from repro.analysis.lint import KernelLint, LintResult
from repro.analysis.sarif import (
    SARIF_SCHEMA_URI,
    SARIF_VERSION,
    sarif_from_lint,
)
from repro.cli import main


def _report(*diags: Diagnostic) -> DiagnosticReport:
    report = DiagnosticReport()
    report.extend(list(diags))
    return report


def _lint_result(report: DiagnosticReport) -> LintResult:
    return LintResult(
        scale=0.25,
        kernels=[
            KernelLint(
                benchmark="bench",
                kernel="k",
                specialized=True,
                num_stages=2,
                report=report,
            )
        ],
    )


def _sample_diags() -> list[Diagnostic]:
    return [
        Diagnostic(
            rule="WASP-S001",
            message="cross-stage race",
            kernel="k",
            stage=0,
            block="s0_loop",
            instruction="STS R1, R2",
            hint="add a barrier",
        ),
        Diagnostic(
            rule="WASP-D003",
            message="suspicious wait",
            kernel="k",
            stage=1,
            block="s1_loop",
        ),
        Diagnostic(rule="WASP-S003", message="unresolved access"),
    ]


# -- SARIF structure -----------------------------------------------------


def test_sarif_document_shape():
    doc = sarif_from_lint(_lint_result(_report(*_sample_diags())))
    assert doc["$schema"] == SARIF_SCHEMA_URI
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert len(doc["runs"]) == 1
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert run["columnKind"] == "unicodeCodePoints"
    json.dumps(doc)  # must be pure JSON, no stray objects


def test_sarif_rules_cover_the_whole_catalogue():
    doc = sarif_from_lint(_lint_result(_report()))
    rules = doc["runs"][0]["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == sorted(RULES)
    for rule in rules:
        assert rule["shortDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] in {
            "error", "warning", "note",
        }


def test_sarif_results_reference_valid_rule_indices():
    doc = sarif_from_lint(_lint_result(_report(*_sample_diags())))
    run = doc["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    assert len(run["results"]) == 3
    for result in run["results"]:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
        assert result["message"]["text"]
        assert result["level"] in {"error", "warning", "note"}
    by_rule = {r["ruleId"]: r for r in run["results"]}
    assert by_rule["WASP-S001"]["level"] == "error"
    assert by_rule["WASP-D003"]["level"] == "warning"
    assert by_rule["WASP-S003"]["level"] == "note"
    assert "(hint: add a barrier)" in by_rule["WASP-S001"]["message"]["text"]


def test_sarif_logical_locations_and_properties():
    doc = sarif_from_lint(_lint_result(_report(*_sample_diags())))
    result = doc["runs"][0]["results"][0]
    logical = result["locations"][0]["logicalLocations"][0]
    assert logical["kind"] == "function"
    assert logical["fullyQualifiedName"] == "k::s0_loop"
    assert result["properties"]["stage"] == 0
    assert result["properties"]["instruction"] == "STS R1, R2"


def test_every_registered_rule_round_trips_through_the_exporter():
    """One Diagnostic per catalogue rule (C/Q/D/S/R/T families) must
    export as a SARIF result whose ruleId, ruleIndex and level all
    agree with the catalogue entry — no family is special-cased."""
    assert {r.split("-")[1][0] for r in RULES} == set("CQDSRT")
    diags = [
        Diagnostic(rule=rule_id, message=f"probe for {rule_id}",
                   kernel="k", block="b")
        for rule_id in sorted(RULES)
    ]
    doc = sarif_from_lint(_lint_result(_report(*diags)))
    run = doc["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    exported = {r["ruleId"] for r in run["results"]}
    assert exported == set(RULES)
    levels = {
        Severity.ERROR: "error",
        Severity.WARNING: "warning",
        Severity.INFO: "note",
    }
    for result in run["results"]:
        descriptor = rules[result["ruleIndex"]]
        assert descriptor["id"] == result["ruleId"]
        severity, _ = RULES[result["ruleId"]]
        assert result["level"] == levels[severity]
        assert (
            descriptor["defaultConfiguration"]["level"] == levels[severity]
        )


def test_sarif_from_validate_exports_t_rules():
    from repro.analysis.lint import KernelValidation, ValidateResult
    from repro.analysis.sarif import sarif_from_validate

    report = _report(Diagnostic(
        rule="WASP-T002",
        message="value diverges through queue 1",
        kernel="k",
        stage=1,
        block="s1_loop",
    ))
    doc = sarif_from_validate(ValidateResult(
        scale=0.25,
        kernels=[KernelValidation(
            benchmark="bench", kernel="k", depth=4,
            specialized=True, verdict="not-equivalent", report=report,
        )],
    ))
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-transval"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == sorted(RULES)
    (result,) = run["results"]
    assert result["ruleId"] == "WASP-T002"
    assert result["level"] == "error"
    json.dumps(doc)


# -- deterministic diagnostic ordering -----------------------------------


def test_normalized_order_is_shuffle_stable():
    diags = _sample_diags() + [
        Diagnostic(rule="WASP-S001", message="another race", kernel="k"),
    ]
    baseline = _report(*diags).normalized()
    expected = [(d.rule, d.message) for d in baseline]
    rng = random.Random(7)
    for _ in range(5):
        shuffled = list(diags)
        rng.shuffle(shuffled)
        got = _report(*shuffled).normalized()
        assert [(d.rule, d.message) for d in got] == expected


def test_normalized_sorts_by_rule_then_site_then_message():
    report = _report(*_sample_diags()).normalized()
    keys = [(d.rule, d.message) for d in report]
    assert keys == sorted(keys)


def test_normalized_deduplicates_identical_findings():
    diag = _sample_diags()[0]
    report = _report(diag, diag, diag).normalized()
    assert len(report) == 1


def test_normalized_is_idempotent():
    report = _report(*_sample_diags()).normalized()
    again = report.normalized()
    assert [d for d in again] == [d for d in report]


# -- strict lint exit codes ----------------------------------------------


def _fake_lint(monkeypatch, severity: Severity):
    rule = {
        Severity.ERROR: "WASP-S001",
        Severity.WARNING: "WASP-D003",
    }[severity]
    result = _lint_result(
        _report(Diagnostic(rule=rule, message="synthetic"))
    )

    import repro.analysis.lint as lint_module

    monkeypatch.setattr(
        lint_module, "lint_one", lambda *args, **kwargs: result.kernels[0],
    )


def test_lint_warnings_exit_zero_without_strict(monkeypatch, capsys):
    _fake_lint(monkeypatch, Severity.WARNING)
    assert main(["lint", "--all"]) == 0
    capsys.readouterr()


def test_lint_warnings_exit_nonzero_with_strict(monkeypatch, capsys):
    _fake_lint(monkeypatch, Severity.WARNING)
    assert main(["lint", "--all", "--strict"]) == 1
    capsys.readouterr()


def test_lint_errors_exit_nonzero_either_way(monkeypatch, capsys):
    _fake_lint(monkeypatch, Severity.ERROR)
    assert main(["lint", "--all"]) == 1
    capsys.readouterr()


def test_lint_sarif_flag_writes_the_log(monkeypatch, capsys, tmp_path):
    _fake_lint(monkeypatch, Severity.WARNING)
    out = tmp_path / "findings.sarif"
    assert main(["lint", "--all", "--sarif", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"][0]["ruleId"] == "WASP-D003"

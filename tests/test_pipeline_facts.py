"""Shared per-program facts: one HB solve per specialized program.

Every analysis of a compiled program — verifier, translation
validation, lint, racediff and the fuzz oracle — reads the compile's
:class:`PipelineFacts` instead of rebuilding the view, the site walk
and the happens-before solve.  These tests pin that sharing, and that
facts never outlive the program they describe.  A compile whose
program was already certified reuses that certificate and solves
nothing.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.analysis.facts as facts_module
from repro.analysis.facts import PipelineFacts
from repro.analysis.lint import lint_kernel, validate_kernel
from repro.analysis.racediff import racediff_registry_kernel
from repro.analysis.transval import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    validate_programs,
)
from repro.core.compiler import WaspCompiler, WaspCompilerOptions
from repro.experiments.configs import wasp_gpu_config
from repro.fuzz.generator import build_kernel
from repro.fuzz.mutate import apply_mutation
from repro.fuzz.oracle import run_oracle
from repro.fuzz.spec import generate_spec
from repro.isa.serialize import program_digest
from repro.workloads import get_benchmark

#: A fuzz seed every oracle option set specializes, each with a
#: barrier arrive to drop.
_ARRIVE_SEED = 5


@pytest.fixture
def solves(monkeypatch):
    """Count HB solves and specialized compiles while a test runs."""
    counts: Counter = Counter()
    real_hb = facts_module.analyze_hb
    real_compile = WaspCompiler.compile

    def analyze_hb(facts):
        counts["hb"] += 1
        return real_hb(facts)

    def compile_(self, program, num_warps):
        result = real_compile(self, program, num_warps)
        counts["specialized"] += result.specialized
        return result

    monkeypatch.setattr(facts_module, "analyze_hb", analyze_hb)
    monkeypatch.setattr(WaspCompiler, "compile", compile_)
    return counts


def _kernel():
    return get_benchmark("pointnet", 0.1).kernels[0]


def _default_compile(kernel):
    WaspCompiler().compile(kernel.program, kernel.launch.num_warps)


def _validate_kernel(kernel):
    validate_kernel(kernel.program, kernel.launch.num_warps)


def _lint_validate(kernel):
    lint_kernel(kernel.program, kernel.launch.num_warps, validate=True)


def _racediff(kernel):
    assert racediff_registry_kernel(kernel, wasp_gpu_config())


@pytest.mark.parametrize(
    "path",
    [_default_compile, _validate_kernel, _lint_validate, _racediff],
    ids=["compile", "validate_kernel", "lint-validate", "racediff"],
)
def test_one_hb_solve_per_specialized_program(solves, path):
    path(_kernel())
    assert solves["specialized"] == 1
    assert solves["hb"] == 1


def test_one_hb_solve_per_distinct_program_across_depths(solves):
    # Ring depth changes nothing in this kernel's compile: the three
    # compiles coincide and share one certificate, hence one HB solve.
    kernel = _kernel()
    digests = set()
    for depth in (2, 4, 8):
        result, tv = validate_kernel(
            kernel.program, kernel.launch.num_warps,
            WaspCompilerOptions(pipeline_depth=depth),
        )
        digests.add(program_digest(result.program))
        assert tv.verdict == EQUIVALENT
    assert len(digests) == 1
    assert solves["specialized"] == 3
    assert solves["hb"] == 1


def test_one_hb_solve_per_oracle_variant(solves):
    report = run_oracle(
        generate_spec(_ARRIVE_SEED), metamorphic=False,
        use_verdict_cache=False,
    )
    assert report.passed
    assert solves["specialized"] == len(report.specialized_under) > 1
    assert solves["hb"] == solves["specialized"]


def test_facts_never_outlive_their_program():
    spec = generate_spec(_ARRIVE_SEED)
    kernel = build_kernel(spec)
    result = WaspCompiler().compile(
        kernel.program, kernel.launch.num_warps
    )
    facts = result.facts
    assert facts is not None
    assert not facts.report.errors and not facts.hb.racy()

    mutated = apply_mutation(result.program, "drop-arrive")
    assert mutated is not None
    assert validate_programs(
        kernel.program, mutated
    ).verdict == NOT_EQUIVALENT
    with pytest.raises(ValueError):
        validate_programs(kernel.program, mutated, facts=facts)
    oracle = run_oracle(
        spec, metamorphic=False, inject="drop-arrive",
        use_verdict_cache=False,
    )
    assert oracle.transval_verdicts
    assert set(oracle.transval_verdicts.values()) == {NOT_EQUIVALENT}

    clean = validate_programs(kernel.program, result.program, facts=facts)
    assert clean.verdict == EQUIVALENT


def test_unspecialized_compile_has_no_facts():
    kernel = _kernel()
    options = WaspCompilerOptions(enable_streaming=False, enable_tile=False)
    result = WaspCompiler(options).compile(
        kernel.program, kernel.launch.num_warps
    )
    assert not result.specialized
    assert result.facts is None
    assert not PipelineFacts(result.program).view.stages

"""Verifier/oracle agreement under deliberate pipeline corruption.

Satellite requirement: corrupting a generated specialized program
(dropping a pop, dropping a push, flipping arrive→wait) must be caught
**twice** — statically by :func:`repro.analysis.verify_program` and
dynamically by the differential oracle.  Disagreement in either
direction is a blind spot.
"""

from __future__ import annotations

import pytest

from repro.analysis import verify_program
from repro.core.compiler import WaspCompiler, WaspCompilerOptions
from repro.fuzz.generator import build_kernel
from repro.fuzz.mutate import MUTATIONS, apply_mutation
from repro.fuzz.oracle import run_oracle
from repro.fuzz.spec import generate_spec
from repro.isa.serialize import program_digest

#: (mutation, seed with an applicable site, expected dynamic checks,
#: expected static rule prefix).  Seed skeletons are pinned by the
#: generator determinism tests: 2 = streaming (queue push/pop sites),
#: 7 = tiled (arrive/wait barrier sites under TMA offload), 5 = deep
#: (dual-stream circular-buffer ring).
CASES = [
    ("drop-pop", 2, {"memory-divergence", "queue-balance", "deadlock"},
     "WASP-Q"),
    ("drop-push", 2, {"deadlock", "runtime-crash"}, "WASP-"),
    ("arrive-to-wait", 7, {"deadlock"}, "WASP-D"),
    # The producer's "data ready" signal disappears: the consumer's
    # wait starves (dynamic deadlock) and the happens-before engine
    # loses the ordering edge (WASP-D002 + WASP-S001).
    ("drop-arrive", 7, {"deadlock", "sanitizer-race"}, "WASP-"),
    # One extra generation of barrier credit: nothing deadlocks, so
    # only the SMEM sanitizer can catch it dynamically — and the
    # static side must see the phase overlap (WASP-S004).
    ("phase-off-by-one", 7, {"sanitizer-race"}, "WASP-S"),
    # Deep-pipeline corruptions on the dual-stream ring: all three
    # race without deadlocking (barriers still fire), so the sanitizer
    # is the only dynamic detector, and the happens-before engine must
    # flag the mis-rotated slot (WASP-S001/S004).
    ("skip-slot-advance", 5, {"sanitizer-race"}, "WASP-S"),
    ("depth-off-by-one", 5, {"sanitizer-race"}, "WASP-S"),
    ("stale-phase-read", 5, {"sanitizer-race"}, "WASP-S"),
]


def _specialized(seed, mutation):
    """First compiled variant with a site for ``mutation``."""
    kernel = build_kernel(generate_spec(seed))
    for options in (
        WaspCompilerOptions(enable_tma_offload=False),
        WaspCompilerOptions(),
    ):
        result = WaspCompiler(options).compile(
            kernel.program, num_warps=kernel.launch.num_warps
        )
        if not result.specialized:
            continue
        mutated = apply_mutation(result.program, mutation)
        if mutated is not None:
            return result.program, mutated
    pytest.fail(f"no {mutation} site in any variant of seed {seed}")


@pytest.mark.parametrize(
    "mutation,seed,checks,rule_prefix",
    CASES, ids=[c[0] for c in CASES],
)
def test_verifier_and_oracle_agree(mutation, seed, checks, rule_prefix):
    clean, mutated = _specialized(seed, mutation)

    # Statically: the verifier is quiet on the clean program and raises
    # error-severity diagnostics on the corrupted one.
    assert not verify_program(clean).errors
    report = verify_program(mutated)
    assert report.errors, f"verifier blind to {mutation}"
    assert any(
        d.rule.startswith(rule_prefix) for d in report.errors
    ), f"expected a {rule_prefix}* rule, got {sorted(report.rules_fired())}"

    # Dynamically: the oracle catches the same corruption at runtime.
    oracle = run_oracle(
        generate_spec(seed), metamorphic=False, inject=mutation,
        use_verdict_cache=False,
    )
    assert oracle.failures, f"oracle blind to {mutation}"
    seen = {f.check for f in oracle.failures}
    assert seen & checks, f"unexpected failure modes {seen}"

    # Agreement recorded on the failure itself: the cross-check found
    # static rules for at least one runtime failure.
    assert any(f.verifier_rules for f in oracle.failures)


def test_eight_slot_ring_mutants_flagged_by_both_layers():
    """Acceptance: an 8-slot circular-buffer program compiles, runs
    clean, and every deep-pipeline mutant is flagged statically (HB
    engine) and dynamically (vector-clock sanitizer)."""
    from dataclasses import replace

    from repro.fexec.machine import run_kernel

    # More tiles than ring slots, so the 8-slot ring wraps and slot
    # reuse is live — the regime the credit protocol must protect.
    kernel = build_kernel(replace(generate_spec(5), iters=12))
    result = WaspCompiler(
        WaspCompilerOptions(pipeline_depth=8, enable_tma_offload=False)
    ).compile(kernel.program, num_warps=kernel.launch.num_warps)
    assert result.specialized
    assert not verify_program(result.program).errors
    launch = replace(
        kernel.launch,
        num_warps=kernel.launch.num_warps * result.num_stages,
    )
    clean = run_kernel(
        result.program, kernel.image_factory(), launch, sanitize=True
    )
    assert clean.races == []
    for mutation in (
        "skip-slot-advance", "depth-off-by-one", "stale-phase-read"
    ):
        mutated = apply_mutation(result.program, mutation)
        assert mutated is not None, f"no {mutation} site at depth 8"
        report = verify_program(mutated)
        assert any(
            d.rule.startswith("WASP-S") for d in report.errors
        ), f"HB engine blind to {mutation} at depth 8"
        run = run_kernel(
            mutated, kernel.image_factory(), launch, sanitize=True
        )
        assert run.races, f"sanitizer blind to {mutation} at depth 8"


def test_mutations_return_none_without_a_site():
    """A streaming kernel without TMA offload has no arrive/wait
    barriers, so the barrier mutation must decline, not crash."""
    kernel = build_kernel(generate_spec(2))
    result = WaspCompiler(
        WaspCompilerOptions(enable_tma_offload=False)
    ).compile(kernel.program, num_warps=kernel.launch.num_warps)
    assert result.specialized
    assert apply_mutation(result.program, "arrive-to-wait") is None


def test_mutations_do_not_modify_the_input():
    kernel = build_kernel(generate_spec(2))
    result = WaspCompiler(
        WaspCompilerOptions(enable_tma_offload=False)
    ).compile(kernel.program, num_warps=kernel.launch.num_warps)
    before = program_digest(result.program)
    for mutation in MUTATIONS:
        apply_mutation(result.program, mutation)
        assert program_digest(result.program) == before


def test_unknown_mutation_rejected():
    kernel = build_kernel(generate_spec(0))
    with pytest.raises(ValueError, match="unknown mutation"):
        apply_mutation(kernel.program, "flip-everything")

"""The differential oracle: catches nothing on a healthy compiler,
caches passing verdicts, and never caches injected corruptions."""

from __future__ import annotations

import pytest

from repro.experiments.runner import GLOBAL_CACHE
from repro.fexec.trace_store import TraceStore
from repro.fuzz.oracle import (
    OPTION_SETS,
    FuzzFailure,
    run_oracle,
    verdict_key,
)
from repro.fuzz.generator import build_kernel
from repro.fuzz.spec import generate_spec


@pytest.fixture
def tmp_cache(tmp_path):
    """Point the global cache at a private disk store, then restore."""
    saved = GLOBAL_CACHE.store
    GLOBAL_CACHE.store = TraceStore(str(tmp_path / "cache"))
    try:
        yield GLOBAL_CACHE.store
    finally:
        GLOBAL_CACHE.store = saved


@pytest.mark.parametrize("seed", list(range(10)))
def test_healthy_compiler_passes(seed):
    report = run_oracle(
        generate_spec(seed), metamorphic=False, use_verdict_cache=False
    )
    assert report.passed, [f.summary() for f in report.failures]
    # Every option set both compiles and specializes these kernels.
    assert set(report.specialized_under) == {n for n, _o in OPTION_SETS}


def test_verdict_cached_on_pass(tmp_cache):
    spec = generate_spec(3)
    first = run_oracle(spec, metamorphic=False)
    assert first.passed and not first.from_cache
    second = run_oracle(spec, metamorphic=False)
    assert second.passed and second.from_cache
    assert second.specialized_under == first.specialized_under


def test_verdict_key_separates_metamorphic_mode(tmp_cache):
    kernel = build_kernel(generate_spec(3))
    assert verdict_key(kernel, True) != verdict_key(kernel, False)


def test_injected_runs_never_touch_the_cache(tmp_cache):
    spec = generate_spec(3)
    broken = run_oracle(spec, metamorphic=False, inject="drop-push")
    assert not broken.passed and not broken.from_cache
    # The injected failure must not have poisoned the verdict cache...
    clean = run_oracle(spec, metamorphic=False)
    assert clean.passed and not clean.from_cache
    # ...and a pass verdict must not leak back into injected runs.
    broken_again = run_oracle(spec, metamorphic=False, inject="drop-push")
    assert not broken_again.passed and not broken_again.from_cache


def test_failures_cross_checked_against_verifier():
    report = run_oracle(
        generate_spec(3), metamorphic=False, inject="drop-push",
        use_verdict_cache=False,
    )
    assert report.failures
    assert any(f.verifier_rules for f in report.failures), (
        "the static verifier saw nothing wrong with a program whose "
        "queue push was dropped"
    )


def test_failure_json_round_trip():
    report = run_oracle(
        generate_spec(3), metamorphic=False, inject="drop-push",
        use_verdict_cache=False,
    )
    for failure in report.failures:
        back = FuzzFailure.from_json(failure.to_json())
        assert back.seed == failure.seed
        assert back.spec == failure.spec
        assert back.check == failure.check
        assert back.options_name == failure.options_name
        assert back.verifier_rules == failure.verifier_rules
        assert back.minimized == failure.minimized


def test_summary_mentions_check_and_seed():
    failure = FuzzFailure(
        seed=7, spec=generate_spec(7), check="memory-divergence",
        message="3 words differ", options_name="full",
    )
    text = failure.summary()
    assert "memory-divergence" in text
    assert "seed=7" in text
    assert "full" in text


#: Seed whose ``full``, ``two-stage`` and ``deep-ring`` variants
#: compile to one program; every variant has a push to drop.
REPEATING_SEED = 0


def variant_digests(spec) -> dict[str, str]:
    """Compiled-program digest of each option set that specializes."""
    from dataclasses import replace

    from repro.core.compiler import WaspCompiler
    from repro.isa.serialize import program_digest

    kernel = build_kernel(spec)
    digests = {}
    for name, options in OPTION_SETS:
        result = WaspCompiler(replace(options, validate=False)).compile(
            kernel.program, num_warps=kernel.launch.num_warps
        )
        if result.specialized:
            digests[name] = program_digest(result.program)
    return digests


def _count_fexec(monkeypatch) -> list[int]:
    import repro.fuzz.oracle as oracle

    real = oracle.run_kernel
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "run_kernel", counting)
    return calls


def test_repeated_programs_execute_once(monkeypatch):
    spec = generate_spec(REPEATING_SEED)
    digests = variant_digests(spec)
    distinct = len(set(digests.values()))
    assert distinct < len(digests) == len(OPTION_SETS)
    calls = _count_fexec(monkeypatch)
    report = run_oracle(spec, metamorphic=False, use_verdict_cache=False)
    assert report.passed
    assert len(report.transval_verdicts) == len(digests)
    # The reference run, then one run per distinct compiled program.
    assert calls[0] == 1 + distinct


def test_injected_variants_each_execute(monkeypatch):
    spec = generate_spec(REPEATING_SEED)
    calls = _count_fexec(monkeypatch)
    report = run_oracle(
        spec, metamorphic=False, inject="drop-push",
        use_verdict_cache=False,
    )
    assert calls[0] == 1 + len(OPTION_SETS)
    assert {f.options_name for f in report.failures} == {
        name for name, _o in OPTION_SETS
    }


def test_reused_failure_is_reported_under_each_variant(monkeypatch):
    import repro.fuzz.oracle as oracle

    spec = generate_spec(REPEATING_SEED)
    digests = variant_digests(spec)
    runs = [0]

    def forced(*args, **kwargs):
        runs[0] += 1
        return [("memory-divergence", "forced")]

    monkeypatch.setattr(oracle, "_dynamic_outcome", forced)
    report = run_oracle(spec, metamorphic=False, use_verdict_cache=False)
    assert runs[0] == len(set(digests.values()))
    diverged = [
        f for f in report.failures if f.check == "memory-divergence"
    ]
    assert [f.options_name for f in diverged] == list(digests)
    assert all(f.message == "forced" for f in diverged)
    # Each variant is still cross-checked against its own certificate.
    assert {
        f.options_name for f in report.failures
        if f.check == "transval-false-equivalent"
    } == set(digests)

"""Translation validation: execution-free equivalence certificates.

Tentpole acceptance, statically checked end to end:

* every registry workload certifies ``equivalent`` under the standard
  compiler option sets at ring depths 2, 4 and 8 — zero WASP-T errors,
  zero abstentions (one symbolic check per depth via slot residues);
* each committed fuzz corruption is proven ``not-equivalent`` without
  executing anything, while its clean compile certifies;
* the compiler post-pass is on by default, opt-out, raises only on
  ``not-equivalent`` (never on abstention), and attaches the report to
  the :class:`CompileResult`;
* an unspecialized compile is the identity relation: trivially
  equivalent with nothing walked;
* certificates are memoized per distinct (source, compiled program):
  a reuse answers exactly what a fresh validation would.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.transval import (
    ABSTAIN,
    EQUIVALENT,
    NOT_EQUIVALENT,
    validate_or_raise,
    validate_programs,
)
from repro.analysis.transval.expr import (
    Const,
    LoopIdx,
    Sym,
    add,
    cmp,
    ite,
    mul,
    op2,
    stable_repr,
    subst_loop,
    unary,
)
from repro.core.compiler import WaspCompiler, WaspCompilerOptions
from repro.core.compiler.memo import clear_source_slot
from repro.errors import VerificationError
from repro.fexec import LaunchConfig, MemoryImage, run_kernel
from repro.fuzz.generator import build_kernel
from repro.fuzz.mutate import apply_mutation
from repro.fuzz.spec import generate_spec
from repro.isa import Opcode, ProgramBuilder
from repro.workloads.registry import get_benchmark

# ---------------------------------------------------------------------------
# Expression language


def test_add_flattens_folds_and_sorts_deterministically():
    a, b = Sym("a"), Sym("b")
    e1 = add(a, add(Const(2), b), Const(3))
    e2 = add(Const(5), b, a)
    assert stable_repr(e1) == stable_repr(e2)


def test_mul_distributes_over_add():
    a, b = Sym("a"), Sym("b")
    left = mul(Const(4), add(a, b))
    right = add(mul(Const(4), a), mul(Const(4), b))
    assert stable_repr(left) == stable_repr(right)


def test_mul_collects_repeated_terms():
    a = Sym("a")
    assert stable_repr(add(a, a)) == stable_repr(mul(Const(2), a))


def test_ite_folds_constant_conditions_and_equal_arms():
    a, b = Sym("a"), Sym("b")
    assert stable_repr(ite(Const(1), a, b)) == stable_repr(a)
    assert stable_repr(ite(Const(0), a, b)) == stable_repr(b)
    assert stable_repr(ite(Sym("c"), a, a)) == stable_repr(a)


_INF, _NAN = float("inf"), float("nan")

#: Operand pairs at the edges of float64: shift counts 1023, 1024 and
#: past it, zero and negative; infinite and NaN operands on either side;
#: values beyond int64, where a bitwise op saturates.
_EDGE_OPERANDS = [
    (3.0, 1023.0), (3.0, 1024.0), (-2.0, 1100.0), (5.0, 0.0), (5.0, -1.0),
    (5.0, -1100.0), (7.0, 0.0), (_INF, 2.0), (-_INF, 2.0), (_NAN, 2.0),
    (2.0, _INF), (2.0, -_INF), (2.0, _NAN), (_NAN, 1.0), (_INF, 1.0),
    (-_INF, 1.0), (2.0 ** 70, 3.0), (-(2.0 ** 70), 3.0), (3.0, 2.0 ** 70),
]

_BINARY_OPCODES = {
    "idiv": Opcode.IDIV, "shl": Opcode.SHL, "shr": Opcode.SHR,
    "and": Opcode.AND, "or": Opcode.OR, "min": Opcode.MIN,
    "max": Opcode.MAX,
}


def _machine_lane(build) -> float:
    """Run a one-lane kernel storing ``build(builder)``'s register."""
    image = MemoryImage(1 << 10)
    out = image.alloc("out", 1)
    b = ProgramBuilder("fold")
    value = build(b)
    b.stg(b.mov(out), value)
    b.exit()
    with np.errstate(all="ignore"):
        run_kernel(b.finish(), image, LaunchConfig(num_warps=1, warp_width=1))
    return float(image.read_array("out")[0])


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize(
    "op", [*_BINARY_OPCODES, "lt", "le", "gt", "ge", "eq", "ne"]
)
def test_constant_folding_equals_the_machine_lane(op):
    """A folded constant is what the functional machine computes, also
    where Python's own float arithmetic would raise."""
    for a, b in _EDGE_OPERANDS:
        if op in _BINARY_OPCODES:
            folded = op2(op, Const(a), Const(b))

            def build(bld, op=op, a=a, b=b):
                dst = bld.reg()
                bld.emit(_BINARY_OPCODES[op], dst=dst,
                         srcs=[bld.mov(a), bld.mov(b)])
                return dst
        else:
            folded = cmp(op, Const(a), Const(b))

            def build(bld, op=op, a=a, b=b):
                return bld.sel(bld.isetp(op, bld.mov(a), bld.mov(b)), 1, 0)
        assert isinstance(folded, Const), (op, a, b)
        assert _same_float(folded.value, _machine_lane(build)), (op, a, b)
        stable_repr(folded)  # prints non-finite constants too


def test_reciprocal_folding_equals_the_machine_lane():
    for a in (0.0, 2.0, _INF, -_INF, _NAN):
        folded = unary("frcp", Const(a))
        assert isinstance(folded, Const)
        assert _same_float(
            folded.value, _machine_lane(lambda bld, a=a: bld.frcp(bld.mov(a)))
        ), a


def test_subst_loop_replaces_only_the_named_loop_index():
    e = add(LoopIdx("i"), LoopIdx("j"))
    got = subst_loop(e, "i", Const(7))
    assert stable_repr(got) == stable_repr(add(Const(7), LoopIdx("j")))


# ---------------------------------------------------------------------------
# Registry certification (subset of the CI sweep; full cross runs in
# the `validate` CI job via `repro validate --all --options standard`)

_BENCHES = ["pointnet", "spmv1_g3", "flash_attention"]
_OPTION_SETS = [
    ("sw-queues", WaspCompilerOptions(enable_tma_offload=False)),
    ("full", WaspCompilerOptions()),
    ("two-stage", WaspCompilerOptions(max_stages=2)),
    ("tiny-queues", WaspCompilerOptions(queue_size=2,
                                        enable_tma_offload=False)),
]


def _bench_name(name):
    from repro.workloads.registry import all_benchmarks

    return name if name in all_benchmarks() else None


@pytest.mark.parametrize("bench_name", _BENCHES)
@pytest.mark.parametrize(
    "opts_name,options", _OPTION_SETS, ids=[n for n, _ in _OPTION_SETS]
)
@pytest.mark.parametrize("depth", [2, 4, 8])
def test_registry_compiles_certify(bench_name, opts_name, options, depth):
    from dataclasses import replace

    if _bench_name(bench_name) is None:
        pytest.skip(f"benchmark {bench_name} not registered")
    bench = get_benchmark(bench_name, 0.25)
    opts = replace(
        options, pipeline_depth=depth, verify=False, validate=False
    )
    for kernel in bench.kernels:
        result = WaspCompiler(opts).compile(
            kernel.program, kernel.launch.num_warps
        )
        report = validate_programs(kernel.program, result.program)
        assert report.verdict == EQUIVALENT, (
            f"{bench_name}/{kernel.name} [{opts_name}] depth={depth}: "
            + "; ".join(d.format() for d in report.report)
        )
        assert not report.abstentions
        if result.specialized:
            assert report.matched_stores == report.source_stores > 0


# ---------------------------------------------------------------------------
# Static flagging of the committed fuzz corruptions

_MUTANTS = [
    ("drop-pop", 2),
    ("drop-push", 2),
    ("arrive-to-wait", 7),
    ("skip-slot-advance", 5),
    ("depth-off-by-one", 5),
    ("stale-phase-read", 5),
]


def _specialized(seed, mutation):
    """First compiled variant of ``seed`` with a ``mutation`` site."""
    kernel = build_kernel(generate_spec(seed))
    for options in (
        WaspCompilerOptions(enable_tma_offload=False,
                            verify=False, validate=False),
        WaspCompilerOptions(verify=False, validate=False),
    ):
        result = WaspCompiler(options).compile(
            kernel.program, num_warps=kernel.launch.num_warps
        )
        if not result.specialized:
            continue
        mutated = apply_mutation(result.program, mutation)
        if mutated is not None:
            return kernel.program, result.program, mutated
    pytest.fail(f"no {mutation} site in any variant of seed {seed}")


@pytest.mark.parametrize(
    "mutation,seed", _MUTANTS, ids=[m for m, _ in _MUTANTS]
)
def test_mutants_flagged_statically(mutation, seed):
    source, clean, mutated = _specialized(seed, mutation)

    good = validate_programs(source, clean)
    assert good.verdict == EQUIVALENT, (
        f"clean compile of seed {seed} failed to certify: "
        + "; ".join(d.format() for d in good.report)
    )

    bad = validate_programs(source, mutated)
    assert bad.verdict == NOT_EQUIVALENT, (
        f"validator blind to {mutation} (verdict {bad.verdict!r})"
    )
    assert bad.t_errors
    assert all(d.rule.startswith("WASP-T") for d in bad.t_errors)


# ---------------------------------------------------------------------------
# Compiler post-pass wiring


def _fuzz_kernel(seed=2):
    return build_kernel(generate_spec(seed))


def test_compile_attaches_certificate_by_default():
    kernel = _fuzz_kernel()
    result = WaspCompiler(
        WaspCompilerOptions(enable_tma_offload=False)
    ).compile(kernel.program, kernel.launch.num_warps)
    assert result.specialized
    assert result.transval is not None
    assert result.transval.verdict == EQUIVALENT


def test_compile_validate_opt_out():
    kernel = _fuzz_kernel()
    result = WaspCompiler(
        WaspCompilerOptions(enable_tma_offload=False, validate=False)
    ).compile(kernel.program, kernel.launch.num_warps)
    assert result.transval is None


def test_validate_option_round_trips_through_json():
    opts = WaspCompilerOptions(validate=False)
    assert WaspCompilerOptions.from_json(opts.to_json()) == opts


def test_validate_or_raise_raises_only_on_not_equivalent():
    source, _clean, mutated = _specialized(2, "drop-pop")
    with pytest.raises(VerificationError) as exc:
        validate_or_raise(source, mutated)
    assert any(
        d.rule.startswith("WASP-T") for d in exc.value.diagnostics
    )


def test_unspecialized_compile_is_identity():
    kernel = _fuzz_kernel()
    # max_stages=1 cannot split anything: the compiler returns the
    # original program and the relation holds trivially.
    report = validate_programs(kernel.program, kernel.program)
    assert report.verdict == EQUIVALENT
    assert not report.specialized
    assert report.source_stores == 0


# ---------------------------------------------------------------------------
# Verdict taxonomy and telemetry


def test_verdict_constants_are_distinct():
    assert len({EQUIVALENT, NOT_EQUIVALENT, ABSTAIN}) == 3


def test_telemetry_counts_verdicts_and_rules():
    from repro.telemetry.registry import TELEMETRY

    kernel = _fuzz_kernel()
    result = WaspCompiler(
        WaspCompilerOptions(enable_tma_offload=False,
                            verify=False, validate=False)
    ).compile(kernel.program, kernel.launch.num_warps)
    was_enabled = TELEMETRY.enabled
    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        validate_programs(kernel.program, result.program)
        rows = TELEMETRY.snapshot().to_list()
        verdicts = [
            r for r in rows if r["name"] == "repro_transval_verdicts_total"
        ]
        assert verdicts and verdicts[0]["labels"]["verdict"] == EQUIVALENT
    finally:
        TELEMETRY.reset()
        if not was_enabled:
            TELEMETRY.disable()


def test_validate_spans_summarize_and_match():
    from repro.telemetry.registry import TELEMETRY
    from repro.telemetry.spans import SPANS

    kernel = _fuzz_kernel()
    result = WaspCompiler(
        WaspCompilerOptions(enable_tma_offload=False,
                            verify=False, validate=False)
    ).compile(kernel.program, kernel.launch.num_warps)
    was_enabled = TELEMETRY.enabled
    TELEMETRY.reset()
    TELEMETRY.enable()
    SPANS.clear()
    try:
        validate_programs(kernel.program, result.program)
        spans = {
            s.name: s for s in SPANS.by_subsystem()["transval"]
        }
        rows = TELEMETRY.snapshot().to_list()
    finally:
        TELEMETRY.reset()
        if not was_enabled:
            TELEMETRY.disable()
    assert set(spans) == {"validate", "summarize", "match"}
    parent = spans["validate"]
    for child in (spans["summarize"], spans["match"]):
        assert parent.start_s <= child.start_s <= child.end_s \
            <= parent.end_s
    assert (spans["summarize"].duration_s + spans["match"].duration_s
            <= parent.duration_s)
    passes = {
        r["labels"]["pass"] for r in rows
        if r["name"] == "repro_pass_seconds"
        and r["labels"]["subsystem"] == "transval"
    }
    assert passes == {"validate", "summarize", "match"}


def test_report_json_shape():
    kernel = _fuzz_kernel()
    result = WaspCompiler(
        WaspCompilerOptions(enable_tma_offload=False,
                            verify=False, validate=False)
    ).compile(kernel.program, kernel.launch.num_warps)
    doc = validate_programs(kernel.program, result.program).to_json()
    assert doc["schema"] == "repro-transval-v1"
    assert doc["verdict"] == EQUIVALENT
    assert doc["num_t_errors"] == 0
    assert doc["num_abstentions"] == 0
    assert doc["matched_stores"] == doc["source_stores"]


# ---------------------------------------------------------------------------
# Certificate memo


def test_memo_parity_on_certify_subset():
    """Memoized certificates equal fresh ones on the toolchain
    benchmark's certify subset (every fifth registry kernel)."""
    from dataclasses import replace

    from repro.analysis.lint import standard_option_sets, validate_kernel
    from repro.sweeps import registry_kernels

    cells = []
    for _bench, kernel in registry_kernels(None, 0.25)[::5]:
        for _name, options in standard_option_sets():
            for depth in (2, 4, 8):
                result, tv = validate_kernel(
                    kernel.program, kernel.launch.num_warps,
                    replace(options, pipeline_depth=depth),
                )
                cells.append((kernel.program, result.program, tv))
    assert len(cells) == 132
    assert sum(tv.reused for *_, tv in cells) == 103
    for source, program, tv in cells:
        clear_source_slot()
        fresh = validate_programs(source, program)
        assert not fresh.reused
        assert tv.to_json() == fresh.to_json()


#: A fuzz seed whose default compile specializes with barrier arrives.
_ARRIVE_SEED = 5


def _compiled(seed=_ARRIVE_SEED):
    kernel = build_kernel(generate_spec(seed))
    result = WaspCompiler(
        WaspCompilerOptions(verify=False, validate=False)
    ).compile(kernel.program, kernel.launch.num_warps)
    assert result.specialized
    return kernel.program, result.program


def test_memo_key_covers_tb_spec_and_name():
    from dataclasses import replace

    source, program = _compiled()
    spec = program.tb_spec
    assert spec.barrier_initial
    validate_programs(source, program)

    credit = program.clone()
    credit.tb_spec = replace(spec, barrier_initial={
        name: count + 1 for name, count in spec.barrier_initial.items()
    })
    renamed = program.clone()
    renamed.name = f"{program.name}_renamed"
    for other in (credit, renamed):
        assert not validate_programs(source, other).reused
    # The source side is keyed on content too: a clone shares the slot.
    assert validate_programs(source.clone(), program).reused


def test_memo_never_certifies_a_mutant_of_a_certified_compile():
    source, program = _compiled()
    assert validate_programs(source, program).verdict == EQUIVALENT
    mutated = apply_mutation(program, "drop-arrive")
    assert mutated is not None
    bad = validate_programs(source, mutated)
    assert not bad.reused
    assert bad.verdict == NOT_EQUIVALENT


def test_memo_holds_one_source(monkeypatch):
    import repro.analysis.transval.validate as validate_module

    built = []
    real = validate_module.summarize_program

    def summarize(program, *, side, **kwargs):
        if side == "source":
            built.append(program)
        return real(program, side=side, **kwargs)

    monkeypatch.setattr(validate_module, "summarize_program", summarize)
    a = _compiled(_ARRIVE_SEED)
    b = _compiled(2)
    for source, program in (a, b, a):
        assert not validate_programs(source, program).reused
    assert [p is s for p, s in zip(built, (a[0], b[0], a[0]))] == [True] * 3
    assert validate_programs(*a).reused
    assert len(built) == 3


def test_memo_hands_out_copies():
    from repro.analysis.diagnostics import Diagnostic

    source, program = _compiled()
    first = validate_programs(source, program)
    expected = first.to_json()
    first.report.diagnostics.clear()
    first.verdict = ABSTAIN
    hit = validate_programs(source, program)
    assert hit.reused
    assert hit.to_json() == expected
    hit.report.add(Diagnostic(rule="WASP-T004", message="edited"))
    assert validate_programs(source, program).to_json() == expected


def test_memo_hit_opens_only_the_validate_span_and_counts():
    from repro.telemetry.registry import TELEMETRY
    from repro.telemetry.spans import SPANS

    source, program = _compiled()
    validate_programs(source, program)
    was_enabled = TELEMETRY.enabled
    TELEMETRY.reset()
    TELEMETRY.enable()
    SPANS.clear()
    try:
        validate_programs(source, program)
        spans = {s.name for s in SPANS.by_subsystem()["transval"]}
        rows = {
            r["name"]: r["value"] for r in TELEMETRY.snapshot().to_list()
            if r["kind"] == "counter"
        }
    finally:
        TELEMETRY.reset()
        if not was_enabled:
            TELEMETRY.disable()
    assert spans == {"validate"}
    assert rows["repro_transval_certificate_reuses_total"] == 1
    assert rows["repro_transval_verdicts_total"] == 1


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_exits_zero_on_certified_benchmark(capsys):
    from repro.cli import main

    rc = main(["validate", "pointnet", "--depths", "2,4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "certified equivalent" in out


def test_cli_validate_corpus_flags_injected_corruptions(capsys):
    from repro.cli import main

    rc = main(["validate", "--corpus"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "certified equivalent" in out


def test_cli_validate_standard_option_sets(capsys):
    from repro.cli import main

    rc = main(["validate", "pointnet", "--options", "standard"])
    capsys.readouterr()
    assert rc == 0


def test_cli_validate_footer_counts_reused_certificates(capsys):
    import re

    from repro.cli import main

    rc = main(["validate", "pointnet", "--depths", "2,4,8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert re.search(r"; [1-9][0-9]* certificate\(s\) reused\]", out)


def test_cli_lint_validate_flag(capsys):
    from repro.cli import main

    rc = main(["lint", "pointnet", "--validate", "--verbose"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "clean" in out

"""The compiler's per-source slot answers exactly what a fresh compile would.

A compile that coincides with an earlier compile of the same source
(the same pre-pass key, the same compile key at some lookup point, or
the same finalized program) is answered from the slot
(:mod:`repro.core.compiler.memo`).  These tests compare every slot
answer with a compile made on an empty slot, pin the fact each
option-dropping rule of the compile key rests on (``pipeline_depth``,
``enable_tma_offload``, ``max_stages``, ``enable_streaming``), check
the source rule (an in-place edit of any digested field is digested
and validated again, an untouched source is not), and check the
read-only contract: no ``src/`` path rewrites a stored pre-pass
program, its dependence graph or a shared compiled program in place.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest

from repro.analysis.lint import standard_option_sets
from repro.core.compiler import WaspCompiler, WaspCompilerOptions
from repro.core.compiler.buffering import (
    apply_circular_buffering,
    fuse_ldgsts,
    tag_tile_sync_pairs,
)
from repro.core.compiler.memo import (
    SOURCE_SLOT,
    SourceSlot,
    clear_source_slot,
)
from repro.core.compiler.extraction import plan_extraction
from repro.core.compiler.pdg import build_pdg
from repro.core.compiler.stagesplit import build_stage_programs, tag_keys
from repro.core.compiler.tma_offload import offload_pipeline
from repro.core.specs import ThreadBlockSpec
from repro.errors import ReproError, ValidationError
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import build_kernel
from repro.fuzz.oracle import OPTION_SETS, run_oracle
from repro.fuzz.spec import generate_spec
from repro.isa.opcodes import InstrCategory, Opcode
from repro.isa.operands import Immediate, Predicate, Register
from repro.isa.program import BasicBlock
from repro.isa.serialize import program_digest
from repro.sweeps import registry_kernels
from tests.conftest import build_tile_program
from tests.test_compile_identity import result_text

DEPTHS = (2, 4, 8)


def _certify_cells():
    """The toolchain benchmark's certify subset: every fifth registry
    kernel x the standard option sets x ring depths 2/4/8."""
    return [
        (kernel.program, kernel.launch.num_warps,
         replace(options, pipeline_depth=depth))
        for _bench, kernel in registry_kernels(None, 0.25)[::5]
        for _name, options in standard_option_sets()
        for depth in DEPTHS
    ]


def _fuzz_cells(seeds=range(20)):
    cells = []
    for seed in seeds:
        kernel = build_kernel(generate_spec(seed))
        cells.extend(
            (kernel.program, kernel.launch.num_warps, options)
            for _name, options in OPTION_SETS
        )
    return cells


def _answer(program, num_warps, options):
    """What a compile tells its caller, or the error it raised."""
    try:
        result = WaspCompiler(options).compile(program, num_warps)
    except ReproError as exc:
        return None, (type(exc).__name__, str(exc))
    tv = result.transval
    return result, (
        program_digest(result.program),
        result.specialized,
        result.num_stages,
        result.stage_registers,
        result.fused_ldgsts,
        result.double_buffered,
        result.dropped_stages,
        [d.format() for d in result.diagnostics],
        None if tv is None else (tv.verdict, tv.to_json()),
    )


@pytest.mark.parametrize("cells, reuses", [
    (_certify_cells, {"options": 80, "plan": 9, "offload": 11}),
    (_fuzz_cells, {"options": 14, "plan": 12, "offload": 9}),
], ids=["certify", "fuzz"])
def test_slot_answers_equal_compiles_on_an_empty_slot(
    cells, reuses, clean_telemetry
):
    """Every lookup point answers some compile, and each answer is what
    a compile on an empty slot returns."""
    answers = [(cell, *_answer(*cell)) for cell in cells()]
    assert sum(r.reused for _, r, _ in answers if r is not None) == sum(
        reuses.values()
    )
    assert {
        at: clean_telemetry.counter(
            "repro_compile_reuses_total", labels={"at": at}
        ).value
        for at in reuses
    } == reuses
    for cell, _result, answer in answers:
        clear_source_slot()
        fresh, fresh_answer = _answer(*cell)
        assert fresh is None or not fresh.reused
        assert answer == fresh_answer


def test_on_compile_fires_once_per_call_hit_or_miss():
    kernel = build_kernel(generate_spec(5))
    seen = []
    compiler = WaspCompiler(on_compile=seen.append)
    first = compiler.compile(kernel.program, kernel.launch.num_warps)
    second = compiler.compile(kernel.program, kernel.launch.num_warps)
    assert [r.reused for r in seen] == [False, True]
    assert seen == [first, second]
    assert second is not first
    assert second.program is first.program
    assert second.facts is first.facts


def test_coinciding_compiles_share_one_program_and_its_facts():
    # A streaming kernel has no tile loop, so ring depths 2 and 4 ring
    # nothing and share a compile key; a stage cap above its stage
    # count demotes no load, so that compile is answered after planning.
    kernel = build_kernel(generate_spec(2))
    results = [
        WaspCompiler(WaspCompilerOptions(**option)).compile(
            kernel.program, kernel.launch.num_warps
        )
        for option in ({}, {"pipeline_depth": 4}, {"max_stages": 15})
    ]
    assert not results[0].double_buffered
    assert [r.reused for r in results] == [False, True, True]
    assert len({id(r.facts) for r in results}) == 1
    # The first compile's keys at all three lookup points (each drops
    # options its pass did not act on), and the cap's options key.
    assert len(SOURCE_SLOT.compiles) == 4
    assert len(SOURCE_SLOT.programs) == 1


def test_declined_buffering_leaves_the_program_unchanged():
    """The depth-dropping compile key rests on this: when circular
    buffering returns ``[]``, the working program is what it was, at
    every depth."""
    options = WaspCompilerOptions()
    declined = 0
    for _bench, kernel in registry_kernels(None, 0.25):
        for depth in DEPTHS:
            work = kernel.program.clone()
            fuse_ldgsts(work, build_pdg(work))
            tag_tile_sync_pairs(work)
            before = program_digest(work)
            ringed = apply_circular_buffering(
                work, options.smem_capacity_words, depth=depth
            )
            if not ringed:
                declined += 1
                assert program_digest(work) == before, (kernel.name, depth)
    assert declined > 0


@functools.cache
def _pin_cells():
    """The registry at ring depths 2/4/8, the corpus and fuzz seeds
    0-19, each under the default options (post-passes off).  Ring
    depths that leave one working program are one cell: the passes
    after buffering see nothing else of the depth."""
    options = WaspCompilerOptions(verify=False, validate=False)
    cells = [
        (kernel.program, kernel.launch.num_warps,
         replace(options, pipeline_depth=depth))
        for _bench, kernel in registry_kernels(None, 0.25)
        for depth in DEPTHS
    ]
    specs = [entry.spec for entry in load_corpus()]
    specs += [generate_spec(seed) for seed in range(20)]
    for spec in specs:
        kernel = build_kernel(spec)
        cells.append((kernel.program, kernel.launch.num_warps, options))
    distinct = {}
    for program, num_warps, options in cells:
        work, _plan = _planned(program, options)
        distinct.setdefault(
            (program_digest(work), num_warps), (program, num_warps, options)
        )
    return tuple(distinct.values())


def _fresh(program, num_warps, options):
    """A compile on an empty slot, and its pinned canonical text."""
    clear_source_slot()
    try:
        result = WaspCompiler(options).compile(program, num_warps)
    except ReproError as exc:
        return None, f"error {type(exc).__name__}: {exc}"
    return result, result_text(result)


def _assert_answered_as_fresh(program, num_warps, first, then):
    """A compile under ``then`` right after one under ``first`` returns
    what a compile under ``then`` on an empty slot does."""
    _fresh(program, num_warps, first)
    try:
        warm = result_text(WaspCompiler(then).compile(program, num_warps))
    except ReproError as exc:
        warm = f"error {type(exc).__name__}: {exc}"
    assert warm == _fresh(program, num_warps, then)[1], program.name


def _planned(program, options):
    """The working program and plan a compile under ``options`` reaches
    (the passes of ``WaspCompiler`` before stage splitting)."""
    work = program.clone()
    pdg = build_pdg(work)
    if options.enable_tile:
        fuse_ldgsts(work, pdg)
        tag_tile_sync_pairs(work)
        if options.double_buffering:
            apply_circular_buffering(
                work, options.smem_capacity_words,
                depth=options.pipeline_depth,
            )
        pdg = build_pdg(work)
    return work, plan_extraction(
        pdg,
        max_stages=options.max_stages,
        enable_streaming=options.enable_streaming,
        enable_tile=options.enable_tile,
    )


def _stage_state(stage):
    return (program_digest(stage.program), sorted(stage.queue_pushes),
            sorted(stage.queue_pops))


def test_offload_that_converts_nothing_leaves_every_stage_unchanged():
    """The compile key drops ``enable_tma_offload`` when offloading
    converted no stream and fused no gather.  That rests on this: such
    an offload rewrote no stage program.  Where offloading did act, a
    compile without it is not answered by the offloaded compile."""
    idle = acted = 0
    for program, num_warps, options in _pin_cells():
        work, plan = _planned(program, options)
        if plan.num_stages <= 1 or not plan.loads:
            continue
        tag_keys(work)
        stages = build_stage_programs(work, plan)
        before = [_stage_state(stage) for stage in stages]
        report = offload_pipeline(stages)
        if report.streams or report.gathers:
            acted += 1
            _assert_answered_as_fresh(
                program, num_warps, options,
                replace(options, enable_tma_offload=False),
            )
        else:
            idle += 1
            assert [_stage_state(stage) for stage in stages] == before, (
                program.name
            )
    assert idle > 0 and acted > 0


def test_a_plan_within_the_stage_budget_compiles_alike_under_every_cap():
    """The compile key drops ``max_stages`` when no planning round put
    a load over the stage budget.  That rests on this: such a plan
    compiles to the same output under every cap from its stage count up
    to 16.  A cap one stage short demotes, and is not answered by the
    uncapped compile."""
    within = capped = 0
    for program, num_warps, options in _pin_cells():
        base, text = _fresh(program, num_warps, options)
        if base is None or base.plan.over_budget:
            continue
        within += 1
        stages = base.plan.num_stages
        for cap in range(stages, options.max_stages + 1):
            assert _fresh(
                program, num_warps, replace(options, max_stages=cap)
            )[1] == text, (program.name, cap)
        if stages > 2:
            capped += 1
            _assert_answered_as_fresh(
                program, num_warps, options,
                replace(options, max_stages=stages - 1),
            )
    assert within > 0 and capped > 0


def test_streaming_off_that_filters_nothing_compiles_alike():
    """The compile key drops ``enable_streaming`` when turning it off
    filtered out no candidate load.  That rests on this: such a compile
    equals the streaming one.  Where the flag did filter, the streaming
    compile does not answer the non-streaming one."""
    same = filtered = 0
    for program, num_warps, options in _pin_cells():
        tile_only = replace(options, enable_streaming=False)
        result, text = _fresh(program, num_warps, tile_only)
        if result is None:
            continue
        if result.plan.streaming_filtered:
            filtered += 1
            _assert_answered_as_fresh(program, num_warps, options, tile_only)
        else:
            same += 1
            assert _fresh(program, num_warps, options)[1] == text, (
                program.name
            )
    assert same > 0 and filtered > 0


def test_shared_programs_are_never_rewritten(monkeypatch, capsys):
    """Every program the slot holds keeps the digest it was stored
    under, through the certify subset, the fuzz oracle (clean and
    injected), ``repro validate --corpus`` and fig14 cells."""
    from repro.cli import main
    from repro.experiments.configs import standard_configs
    from repro.experiments.runner import TraceCache, run_kernel
    from repro.workloads.registry import get_benchmark

    rewritten: list[str] = []
    checked = [0]
    clear = SourceSlot.clear

    def check_then_clear(slot):
        for digest, facts in slot.programs.items():
            checked[0] += 1
            if program_digest(facts.program) != digest:
                rewritten.append(facts.program.name)
        if slot.source is not None and (
            program_digest(slot.source) != slot.source_digest
        ):
            rewritten.append(f"source {slot.source.name}")
        clear(slot)

    monkeypatch.setattr(SourceSlot, "clear", check_then_clear)

    for program, num_warps, options in _certify_cells():
        WaspCompiler(replace(options, verify=False, validate=False)).compile(
            program, num_warps
        )
    for seed in range(10):
        inject = ("drop-pop", "reorder-push", None)[seed % 3]
        run_oracle(generate_spec(seed), metamorphic=False, inject=inject,
                   use_verdict_cache=False)
    assert main(["validate", "--corpus"]) == 0
    capsys.readouterr()
    cache = TraceCache()
    for name in ("pointnet", "lonestar_bfs", "bert"):
        kernel = get_benchmark(name, 0.1).kernels[0]
        for config in standard_configs():
            run_kernel(kernel, config, cache)
    SOURCE_SLOT.clear()
    assert checked[0] > 0
    assert rewritten == []


# -- the source rule ---------------------------------------------------------


def _instr(program, opcode):
    """The first instruction of ``program`` with ``opcode``."""
    return next(i for i in program.instructions() if i.opcode is opcode)


def _set_tb_spec(program):
    program.tb_spec = ThreadBlockSpec(
        num_stages=1, warps_per_stage=[[0, 1]], stage_registers=[8]
    )


def _add_spare_block(program):
    spare = BasicBlock("spare")
    spare.append(_instr(program, Opcode.EXIT).clone())
    program.blocks.append(spare)


def _swap_last_blocks(program):
    program.blocks[-2:] = program.blocks[-2:][::-1]


def _replace_src(opcode, pos, operand):
    def edit(program):
        _instr(program, opcode).srcs[pos] = operand
    return edit


def _set(opcode, field, value):
    def edit(program):
        setattr(_instr(program, opcode), field, value)
    return edit


def _set_attr(opcode, name, value):
    def edit(program):
        _instr(program, opcode).attrs[name] = value
    return edit


#: name -> (set-up before the first compile or None, in-place edit).
#: Every field ``program_digest`` covers, each edited so that the
#: program stays valid and its digest changes.
SOURCE_EDITS = {
    "name": (None, lambda p: setattr(p, "name", p.name + "_v2")),
    "smem_words": (None, lambda p: setattr(p, "smem_words", 33)),
    "num_registers": (None, lambda p: setattr(p, "num_registers", 40)),
    "smem_buffers": (None, lambda p: p.smem_buffers.update(spare=(64, 8))),
    "tb_spec": (
        _set_tb_spec, lambda p: p.tb_spec.warps_per_stage[0].append(2)
    ),
    "block label": (None, lambda p: setattr(p.blocks[-1], "label", "tail")),
    "block order": (_add_spare_block, _swap_last_blocks),
    "opcode": (None, _set(Opcode.FADD, "opcode", Opcode.FMUL)),
    "dst": (None, _set(Opcode.FADD, "dst", Register(9))),
    "srcs": (None, _replace_src(Opcode.IMAD, 1, Register(9))),
    "immediate value": (None, _replace_src(Opcode.ISETP, 1, Immediate(5))),
    "immediate type": (None, _replace_src(Opcode.ISETP, 1, Immediate(4.0))),
    "guard": (None, _set(Opcode.FADD, "guard", Predicate(0))),
    "guard_negated": (None, _set(Opcode.BRA, "guard_negated", True)),
    "target": (None, _set(Opcode.BRA, "target", "epilog")),
    "barrier_id": (None, _set(Opcode.BAR_SYNC, "barrier_id", "tb2")),
    "category": (
        None, _set(Opcode.FADD, "category", InstrCategory.ADDRGEN)
    ),
    "attrs": (None, _set_attr(Opcode.FADD, "note", "x")),
    "attrs nested": (
        _set_attr(Opcode.FADD, "roles", [["pre", "a"]]),
        lambda p: _instr(p, Opcode.FADD).attrs["roles"][0].append("b"),
    ),
    "attrs value type": (
        _set_attr(Opcode.FADD, "n", 1), _set_attr(Opcode.FADD, "n", True)
    ),
}


def _tile_source(setup=None):
    program = build_tile_program(4, 32, 0, 512, 2)
    if setup is not None:
        setup(program)
    return program


def _compile_source(program):
    return WaspCompiler(
        WaspCompilerOptions(verify=False, validate=False)
    ).compile(program, 2)


def _source_digests(telemetry):
    return telemetry.counter("repro_compile_source_digests_total").value


@pytest.mark.parametrize("field", SOURCE_EDITS)
def test_a_source_edited_in_place_is_digested_again(field, clean_telemetry):
    setup, edit = SOURCE_EDITS[field]
    program = _tile_source(setup)
    _compile_source(program)
    _compile_source(program)
    assert _source_digests(clean_telemetry) == 1  # untouched: no re-hash
    before = SOURCE_SLOT.source_digest
    edit(program)
    after = _compile_source(program)
    assert _source_digests(clean_telemetry) == 2
    assert SOURCE_SLOT.source_digest == program_digest(program) != before
    clear_source_slot()
    assert result_text(after) == result_text(_compile_source(program))


@pytest.mark.parametrize("edit", [
    _set(Opcode.BRA, "target", "nowhere"),
    lambda p: setattr(p.blocks[1], "label", "renamed"),
    lambda p: p.blocks[-1].instructions.pop(),
], ids=["dangling target", "renamed loop head", "no exit"])
def test_a_source_edited_in_place_is_validated_again(edit):
    program = _tile_source()
    _compile_source(program)
    edit(program)
    for _ in range(2):
        with pytest.raises(ValidationError):
            _compile_source(program)


def test_translation_validation_sees_an_in_place_source_edit():
    """A certificate is not reused for a source edited since: raising an
    immediate the compiled program still computes with breaks the
    equivalence, as validation on an empty slot finds."""
    from repro.analysis.lint import validate_kernel
    from repro.analysis.transval import validate_programs
    from repro.workloads.registry import get_benchmark

    kernel = get_benchmark("bert", 0.25).kernel("layernorm")
    source = kernel.program.clone()  # the registry's kernels are shared
    options = dict(standard_option_sets())["full"]
    result, tv = validate_kernel(source, kernel.launch.num_warps, options)
    assert tv.verdict == "equivalent"
    imul = _instr(source, Opcode.IMUL)
    imul.srcs[1] = Immediate(imul.srcs[1].value + 7)
    edited = validate_programs(source, result.program, facts=result.facts)
    assert not edited.reused
    clear_source_slot()
    fresh = validate_programs(source, result.program, facts=result.facts)
    assert edited.verdict == fresh.verdict == "not-equivalent"
    assert edited.to_json() == fresh.to_json()


# -- the pre-pass store's read-only contract ----------------------------------


def _corpus_cells():
    cells = []
    for entry in load_corpus():
        kernel = build_kernel(entry.spec)
        cells.extend(
            (kernel.program, kernel.launch.num_warps, options)
            for _name, options in OPTION_SETS
        )
    return cells


def _prepass_state(prepass):
    pdg = prepass.pdg
    edges = None if pdg is None else (
        sorted((uid, sorted(preds)) for uid, preds in pdg.data_preds.items()),
        sorted((uid, sorted(succs)) for uid, succs in pdg.data_succs.items()),
        sorted(pdg.block_of.items()),
        sorted(pdg.instr_by_uid),
    )
    return program_digest(prepass.work), edges


def test_stored_prepasses_are_never_rewritten(clean_telemetry, monkeypatch):
    """Every stored pre-pass program keeps the canonical digest, and its
    dependence graph the edges, it had when stored, through the rest of
    its compile and every later compile of the source: the certify
    subset, the corpus and fuzz seeds 0-19."""
    stored = {}  # id -> [entry (held alive), digest, edges]
    prepass = WaspCompiler._prepass

    def recording(compiler, program):
        entry = prepass(compiler, program)
        stored.setdefault(id(entry), [entry, *_prepass_state(entry)])
        return entry

    monkeypatch.setattr(WaspCompiler, "_prepass", recording)
    for cells in (_certify_cells, _corpus_cells, _fuzz_cells):
        for program, num_warps, options in cells():
            WaspCompiler(
                replace(options, verify=False, validate=False)
            ).compile(program, num_warps)
            for entry in SOURCE_SLOT.prepasses.values():
                record = stored[id(entry)]
                digest, edges = _prepass_state(entry)
                assert digest == record[1], program.name
                if record[2] is None:  # built once, after storing
                    record[2] = edges
                assert edges == record[2], program.name
    assert clean_telemetry.counter(
        "repro_compile_prepass_reuses_total"
    ).value > 0

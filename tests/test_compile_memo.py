"""The compiler's per-source slot answers exactly what a fresh compile would.

A compile that coincides with an earlier compile of the same source
(same compile key, or the same finalized program) is answered from the
slot (:mod:`repro.core.compiler.memo`).  These tests compare every
slot answer with a compile made on an empty slot, pin the fact the
depth-dropping key rests on, and check the read-only contract: no
``src/`` path rewrites a shared compiled program in place.
"""

from __future__ import annotations

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
from repro.core.compiler.pdg import build_pdg
from repro.errors import ReproError
from repro.fuzz.generator import build_kernel
from repro.fuzz.oracle import OPTION_SETS, run_oracle
from repro.fuzz.spec import generate_spec
from repro.isa.serialize import program_digest
from repro.sweeps import registry_kernels

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
    (_certify_cells, 80),
    (_fuzz_cells, 14),
])
def test_slot_answers_equal_compiles_on_an_empty_slot(cells, reuses):
    answers = [(cell, *_answer(*cell)) for cell in cells()]
    assert sum(r.reused for _, r, _ in answers if r is not None) == reuses
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
    # count is another key that finalizes the same program.
    kernel = build_kernel(generate_spec(2))
    results = [
        WaspCompiler(WaspCompilerOptions(**option)).compile(
            kernel.program, kernel.launch.num_warps
        )
        for option in ({}, {"pipeline_depth": 4}, {"max_stages": 15})
    ]
    assert not results[0].double_buffered
    assert [r.reused for r in results] == [False, True, False]
    assert len({id(r.facts) for r in results}) == 1
    assert len(SOURCE_SLOT.compiles) == 2
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

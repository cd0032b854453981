"""Vector-clock SMEM sanitizer and the static/dynamic race differential.

The sanitizer is the trust anchor for the happens-before engine: every
race it observes at runtime must already be statically flagged
(``repro racediff``), so these tests pin both its detection semantics
(barrier/queue ordering, access kinds, stage scoping) and the
differential's no-false-negative direction over the fuzz corpus.
"""

from __future__ import annotations

from dataclasses import replace

from tests.test_analysis_dataflow import build_ring_program

from repro.analysis.dataflow.hb import HBAnalysis
from repro.analysis.facts import PipelineFacts
from repro.analysis.racediff import (
    diff_races,
    racediff_spec,
)
from repro.core.specs import ThreadBlockSpec
from repro.fexec import LaunchConfig, MemoryImage, run_kernel
from repro.fuzz.corpus import load_corpus
from repro.fuzz.mutate import apply_mutation
from repro.isa import ProgramBuilder, SpecialReg
from repro.sim import simulate_program
from repro.sim.config import baseline_a100


def _two_stage_program(synchronized: bool):
    """Stage 0 stores to ``box``, stage 1 loads it back; with
    ``synchronized`` a filled-style split barrier orders the pair."""
    b = ProgramBuilder("san", smem_words=0)
    base = b.alloc_smem("box", 32)
    stage_sel = b.special(SpecialReg.PIPE_STAGE_ID)
    lane = b.special(SpecialReg.LANE_ID)

    b.label("jump_table_1")
    p1 = b.isetp("ge", stage_sel, 1)
    b.bra("s1_entry", guard=p1)

    b.label("s0_entry")
    saddr = b.iadd(lane, base)
    b.sts(saddr, 7, buffer="box")
    if synchronized:
        b.bar_arrive("box_filled")
    b.exit()

    b.label("s1_entry")
    if synchronized:
        b.bar_wait("box_filled")
    saddr = b.iadd(lane, base)
    val = b.lds(saddr, buffer="box")
    out = b.iadd(lane, 512)
    b.stg(out, val)
    b.exit()

    program = b.finish()
    program.tb_spec = ThreadBlockSpec(
        num_stages=2,
        warps_per_stage=[[0], [1]],
        stage_registers=[8, 8],
        smem_words=32,
        barrier_expected={"box_filled": 1} if synchronized else {},
    )
    return program


def _run(program, sanitize=True, num_warps=2):
    return run_kernel(
        program,
        MemoryImage(1 << 10),
        LaunchConfig(num_warps=num_warps),
        collect_trace=False,
        sanitize=sanitize,
    )


# -- detection semantics -------------------------------------------------


def test_barrier_ordered_pair_is_race_free():
    assert _run(_two_stage_program(synchronized=True)).races == []


def test_unsynchronized_cross_stage_pair_races():
    races = _run(_two_stage_program(synchronized=False)).races
    assert len(races) == 1
    race = races[0]
    assert race.group == "box"
    assert race.stage_pair == frozenset({0, 1})
    assert race.kind in {"write-read", "read-write", "write-write"}
    assert "box" in race.format()


def test_race_serializes_with_stable_fields():
    races = _run(_two_stage_program(synchronized=False)).races
    payload = races[0].to_json()
    assert payload["group"] == "box"
    assert {payload["first_stage"], payload["second_stage"]} == {0, 1}


def test_same_stage_conflicts_are_out_of_scope():
    # Two warps of the same stage store to the same words: intra-stage
    # ordering is the baseline memory model's business, not the
    # cross-stage pipeline protocol the sanitizer checks.
    b = ProgramBuilder("intra", smem_words=0)
    base = b.alloc_smem("box", 32)
    lane = b.special(SpecialReg.LANE_ID)
    b.label("s0_entry")
    saddr = b.iadd(lane, base)
    b.sts(saddr, 3, buffer="box")
    b.exit()
    program = b.finish()
    program.tb_spec = ThreadBlockSpec(
        num_stages=1,
        warps_per_stage=[[0, 1]],
        stage_registers=[8],
        smem_words=32,
    )
    assert _run(program).races == []


def test_sanitizer_is_off_by_default():
    result = _run(_two_stage_program(synchronized=False), sanitize=False)
    assert result.races == []


def test_gpu_config_sanitize_reaches_sim_result():
    program = _two_stage_program(synchronized=False)
    config = replace(baseline_a100(), sanitize=True)
    result = simulate_program(
        program, MemoryImage(1 << 10), LaunchConfig(num_warps=2), config
    )
    assert result.sanitizer_races
    quiet = simulate_program(
        program,
        MemoryImage(1 << 10),
        LaunchConfig(num_warps=2),
        baseline_a100(),
    )
    assert quiet.sanitizer_races == []


# -- the static/dynamic differential -------------------------------------


def test_racediff_clean_on_the_ring():
    diff = diff_races(
        "ring8",
        PipelineFacts(build_ring_program()),
        MemoryImage(1 << 10),
        LaunchConfig(num_warps=2),
    )
    assert diff.ok
    assert diff.num_dynamic == 0
    assert diff.to_json()["ok"] is True


def test_racediff_covers_observed_races():
    # phase-off-by-one produces real dynamic races; the static S004
    # verdict must cover every one of them.
    mutant = apply_mutation(build_ring_program(), "phase-off-by-one")
    assert mutant is not None
    diff = diff_races(
        "ring8:phase-off-by-one",
        PipelineFacts(mutant),
        MemoryImage(1 << 10),
        LaunchConfig(num_warps=2),
    )
    assert diff.num_dynamic >= 1
    assert diff.ok, diff.missing


def test_racediff_flags_a_static_false_negative():
    # Forcing an empty static verdict makes every observed race a
    # reported false negative — the failure mode the gate exists for.
    facts = PipelineFacts(_two_stage_program(synchronized=False))
    facts.hb = HBAnalysis()
    diff = diff_races(
        "san:blindfolded",
        facts,
        MemoryImage(1 << 10),
        LaunchConfig(num_warps=2),
    )
    assert not diff.ok
    assert diff.missing


def test_racediff_skips_programs_that_fault():
    mutant = apply_mutation(build_ring_program(), "drop-arrive")
    assert mutant is not None
    diff = diff_races(
        "ring8:drop-arrive",
        PipelineFacts(mutant),
        MemoryImage(1 << 10),
        LaunchConfig(num_warps=2),
    )
    assert diff.skipped is not None and "Deadlock" in diff.skipped
    assert diff.ok  # nothing observed, nothing missing


def test_racediff_corpus_has_no_static_false_negatives():
    entries = [e for e in load_corpus() if e.inject is None]
    assert entries
    diffs = [d for e in entries for d in racediff_spec(e.spec)]
    assert diffs
    bad = [d for d in diffs if not d.ok]
    assert not bad, [(d.label, d.missing) for d in bad]

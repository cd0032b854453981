"""Static pipeline verifier: mutation tests and clean-registry gates.

Each mutation takes a correct compiled pipeline, injects one specific
protocol violation, and asserts the verifier reports the matching rule
id — proving every pass actually catches the class of bug it claims to.
"""

from __future__ import annotations

import pytest

from tests.conftest import build_stream_program, build_tile_program

from repro.analysis import Severity, verify_program
from repro.analysis.cfg import stage_of_label
from repro.analysis.facts import PipelineFacts
from repro.analysis.lint import lint_benchmarks, lint_kernel
from repro.analysis.verifier import verify_or_raise
from repro.core.compiler.pipeline import WaspCompiler, WaspCompilerOptions
from repro.errors import (
    CompilerError,
    ValidationError,
    VerificationError,
)
from repro.isa import ProgramBuilder
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Immediate, QueueRef, Register


def _compile(program, num_warps=2, **overrides):
    options = WaspCompilerOptions(
        verify=False, enable_tma_offload=False, **overrides
    )
    result = WaspCompiler(options).compile(program, num_warps=num_warps)
    assert result.specialized
    return result.program


@pytest.fixture
def stream_pipeline():
    """Two-stage LDG->Q0->compute pipeline (no TMA: explicit queue ops).

    A clone: the tests inject defects, and compiled programs are
    shared and read-only."""
    return _compile(build_stream_program(128, 0, 512)).clone()


@pytest.fixture
def tile_pipeline():
    """Two-stage double-buffered LDGSTS/LDS pipeline with barriers
    (a clone, as above)."""
    return _compile(build_tile_program(4, 32, 0, 512, 2)).clone()


def _rules(program) -> set[str]:
    return verify_program(program).rules_fired()


def _instrs(program):
    for block in program.blocks:
        for instr in block.instructions:
            yield block, instr


# -- baseline: the unmutated pipelines verify clean ----------------------


def test_stream_pipeline_clean(stream_pipeline):
    report = verify_program(stream_pipeline)
    assert report.clean, report.to_text()


def test_tile_pipeline_clean(tile_pipeline):
    report = verify_program(tile_pipeline)
    assert report.clean, report.to_text()


# -- queue-protocol pass -------------------------------------------------


def test_dropped_pop_fires_q003(stream_pipeline):
    # Replace the consumer's only POP operand with an immediate: Q0 is
    # now pushed but never popped.
    for _block, instr in _instrs(stream_pipeline):
        pops = instr.queue_pops()
        if pops:
            instr.srcs = [
                Immediate(0) if s in pops else s for s in instr.srcs
            ]
            break
    else:
        pytest.fail("no pop site found")
    report = verify_program(stream_pipeline)
    assert "WASP-Q003" in report.rules_fired()
    assert report.errors


def test_duplicated_push_fires_q004(stream_pipeline):
    # Clone the producer's push into its block: two pushes per
    # iteration against one pop.
    for block, instr in _instrs(stream_pipeline):
        if isinstance(instr.dst, QueueRef):
            block.instructions.insert(
                block.instructions.index(instr), instr.clone()
            )
            break
    else:
        pytest.fail("no push site found")
    assert "WASP-Q004" in _rules(stream_pipeline)


def test_push_count_divergence_across_paths_fires_q004(stream_pipeline):
    # Give the producer loop a second path that skips the push: the
    # entry count now depends on which path an iteration takes.
    facts = PipelineFacts(stream_pipeline)
    push = facts.sites.queues[0].pushes[0]
    loop = facts.loops(push.stage)[0]
    body = stream_pipeline.find_block(push.block)
    skip_label = f"s{push.stage}_skip_push"
    guard = body.instructions[0].defined_predicates() or None
    # Branch around the push under the stage's loop predicate (any
    # predicate defined in-stage works for a static check).
    for _block, instr in _instrs(stream_pipeline):
        preds = instr.defined_predicates()
        if preds and stage_of_label(_block.label) == push.stage:
            guard = preds[0]
            break
    assert guard is not None
    idx = body.instructions.index(push.instr)
    tail = body.instructions[idx:]
    body.instructions = body.instructions[:idx]
    body.instructions.append(
        Instruction(Opcode.BRA, target=skip_label, guard=guard)
    )
    # Rebuild layout: push block, then the skip join holding the tail.
    pos = stream_pipeline.blocks.index(body)
    push_blk = stream_pipeline.blocks
    from repro.isa.program import BasicBlock

    carry = BasicBlock(f"s{push.stage}_do_push", [tail[0]])
    join = BasicBlock(skip_label, tail[1:])
    push_blk.insert(pos + 1, join)
    push_blk.insert(pos + 1, carry)
    assert "WASP-Q004" in _rules(stream_pipeline), (
        verify_program(stream_pipeline).to_text()
    )
    del loop  # loop shape asserted implicitly by the rule firing


def test_queue_without_spec_fires_q007(stream_pipeline):
    stream_pipeline.tb_spec = None
    assert "WASP-Q007" in _rules(stream_pipeline)


def test_undeclared_queue_fires_q005(stream_pipeline):
    stream_pipeline.tb_spec.queues = []
    assert "WASP-Q005" in _rules(stream_pipeline)


def test_single_iteration_overflow_fires_q006():
    program = _compile(build_stream_program(128, 0, 512), queue_size=32)
    push = PipelineFacts(program).sites.queues[0].pushes[0]
    block = program.find_block(push.block)
    idx = block.instructions.index(push.instr)
    for _ in range(40):  # 41 pushes/iteration > 32-entry queue
        block.instructions.insert(idx, push.instr.clone())
    report = verify_program(program)
    assert "WASP-Q006" in report.rules_fired()
    # Credit pressure alone stalls rather than deadlocks: a warning.
    assert any(
        d.rule == "WASP-Q006" and d.severity is Severity.WARNING
        for d in report
    )


# -- deadlock pass -------------------------------------------------------


def test_arrive_flipped_to_wait_fires_d002(tile_pipeline):
    # Turn the consumer's credit-return arrive into a wait: the
    # producer's BAR.WAIT on that barrier can now never be satisfied.
    for _block, instr in _instrs(tile_pipeline):
        if (instr.opcode is Opcode.BAR_ARRIVE
                and instr.barrier_id == "tile0_B_empty"):
            instr.opcode = Opcode.BAR_WAIT
            break
    else:
        pytest.fail("no BAR.ARRIVE on tile0_B_empty found")
    report = verify_program(tile_pipeline)
    assert "WASP-D002" in report.rules_fired()
    assert any(
        d.rule == "WASP-D002" and d.severity is Severity.ERROR
        for d in report
    )


def test_deleted_wait_fires_d003(tile_pipeline):
    # Remove every wait on one barrier: its arrivals become lost
    # signals (warning, not deadlock).
    for block in tile_pipeline.blocks:
        block.instructions = [
            i for i in block.instructions
            if not (i.opcode is Opcode.BAR_WAIT
                    and i.barrier_id == "tile0_A_filled")
        ]
    assert "WASP-D003" in _rules(tile_pipeline)


def test_undeclared_barrier_fires_d005(tile_pipeline):
    del tile_pipeline.tb_spec.barrier_expected["tile0_A_filled"]
    assert "WASP-D005" in _rules(tile_pipeline)


def test_wrong_expected_count_fires_d004(tile_pipeline):
    tile_pipeline.tb_spec.barrier_expected["tile0_A_filled"] = 7
    assert "WASP-D004" in _rules(tile_pipeline)


def test_duplicated_empty_arrive_fires_d004(tile_pipeline):
    # Stage 1 also arrives tile0_B_empty from the ring's __db copy: one
    # stage, but two arrive sites, so each generation of the loop
    # arrives it twice as often as expected.
    block = tile_pipeline.find_block("s1_tile_loop__db")
    block.instructions.insert(0, Instruction(
        Opcode.BAR_ARRIVE, barrier_id="tile0_B_empty"
    ))
    report = verify_program(tile_pipeline)
    assert [d.message for d in report if d.rule == "WASP-D004"] == [
        "barrier 'tile0_B_empty' expects 2 arrivals per generation but "
        "stages [1] statically contribute 4"
    ]


def test_queue_cycle_fires_d001(stream_pipeline):
    from repro.core.specs import NamedQueueSpec

    spec = stream_pipeline.tb_spec
    spec.queues = list(spec.queues) + [
        NamedQueueSpec(queue_id=1, src_stage=1, dst_stage=0, size=4)
    ]
    assert "WASP-D001" in _rules(stream_pipeline)


def test_partial_tb_sync_fires_d006(tile_pipeline):
    # A full thread-block sync appearing in only one stage's section
    # hangs: the hardware counts every warp of the block.
    entry = next(
        b for b in tile_pipeline.blocks if b.label.startswith("s1_")
    )
    entry.instructions.insert(
        0, Instruction(Opcode.BAR_SYNC, barrier_id="tb")
    )
    report = verify_program(tile_pipeline)
    assert "WASP-D006" in report.rules_fired()
    assert report.errors


# -- SMEM race pass ------------------------------------------------------


def test_unordered_smem_sharing_fires_s001(tile_pipeline):
    # Strip every arrive/wait barrier: stage 0 still writes the tile
    # buffer that stage 1 reads, now with no ordering between them.
    for block in tile_pipeline.blocks:
        block.instructions = [
            i for i in block.instructions
            if i.opcode not in (Opcode.BAR_ARRIVE, Opcode.BAR_WAIT)
        ]
    report = verify_program(tile_pipeline)
    assert "WASP-S001" in report.rules_fired()
    assert report.errors


def test_aliased_tiles_without_barrier_fires_s001():
    # Hand-built combined program: both stages touch the same SMEM
    # tile with no barrier at all (aliasing double-buffer copies).
    from repro.core.specs import ThreadBlockSpec
    from repro.isa import SpecialReg

    b = ProgramBuilder("aliased")
    b.alloc_smem("tile", 32)
    pred = b.isetp("eq", b.special(SpecialReg.PIPE_STAGE_ID), 1)
    b.bra("s1_read", guard=pred)
    b.label("s0_write")
    b.sts(Immediate(0), b.mov(1.0), buffer="tile")
    b.exit()
    b.label("s1_read")
    b.lds(Immediate(0), buffer="tile")
    b.exit()
    program = b.finish()
    program.tb_spec = ThreadBlockSpec(
        num_stages=2,
        warps_per_stage=[[0], [1]],
        stage_registers=[4, 4],
        queues=[],
        smem_words=32,
    )
    # Make both sections reachable for the race pass (jump table).
    report = verify_program(program)
    assert "WASP-S001" in report.rules_fired()


def test_out_of_bounds_smem_access_fires_s002(tile_pipeline):
    for block in tile_pipeline.blocks:
        if not block.label.startswith("s1_"):
            continue
        for instr in block.instructions:
            if instr.opcode is Opcode.LDS:
                instr.srcs[0] = Immediate(
                    tile_pipeline.smem_words + 100
                )
                assert "WASP-S002" in _rules(tile_pipeline)
                return
    pytest.fail("no LDS found in stage 1")


# -- resource pass -------------------------------------------------------


def test_oversubscribed_stage_budget_fires_r002(tile_pipeline):
    tile_pipeline.tb_spec.stage_registers[1] = 2
    report = verify_program(tile_pipeline)
    assert "WASP-R002" in report.rules_fired()
    assert report.errors


def test_register_file_overflow_fires_r001(tile_pipeline):
    tile_pipeline.tb_spec.stage_registers = [40000, 40000]
    tile_pipeline.num_registers = 40000
    assert "WASP-R001" in _rules(tile_pipeline)


def test_use_before_def_fires_r003(tile_pipeline):
    entry = next(
        b for b in tile_pipeline.blocks if b.label == "s1_entry"
    )
    entry.instructions.insert(0, Instruction(
        Opcode.FADD, dst=Register(3),
        srcs=[Register(60), Register(61)],
    ))
    tile_pipeline.tb_spec.stage_registers[1] = 64
    report = verify_program(tile_pipeline)
    assert "WASP-R003" in report.rules_fired()


def test_smem_over_capacity_fires_r004(tile_pipeline):
    from repro.analysis import VerifyLimits

    report = verify_program(
        tile_pipeline, VerifyLimits(smem_capacity_words=16)
    )
    assert "WASP-R004" in report.rules_fired()


def test_spec_program_disagreement_fires_r006(tile_pipeline):
    tile_pipeline.tb_spec.smem_words = 999
    assert "WASP-R006" in _rules(tile_pipeline)


def test_cross_stage_fallthrough_fires_c007(tile_pipeline):
    # Delete stage 0's terminating EXIT: control bleeds into stage 1.
    epilog = next(
        b for b in tile_pipeline.blocks if b.label == "s0_epilog"
    )
    epilog.instructions = []
    assert "WASP-C007" in _rules(tile_pipeline)


def test_unreachable_block_fires_c006(tile_pipeline):
    from repro.isa.program import BasicBlock

    tile_pipeline.blocks.append(BasicBlock(
        "s1_orphan", [Instruction(Opcode.EXIT)]
    ))
    assert "WASP-C006" in _rules(tile_pipeline)


# -- structural diagnostics through Program.validate ---------------------


def test_validate_carries_structural_diagnostics():
    b = ProgramBuilder("bad")
    b.label("entry")
    b.bra("nowhere")
    program = b.finish(validate=False)
    with pytest.raises(ValidationError) as excinfo:
        program.validate()
    rules = {d.rule for d in excinfo.value.diagnostics}
    assert "WASP-C004" in rules


def test_empty_program_is_c001():
    from repro.isa.program import Program

    assert [d.rule for d in Program("empty").structural_diagnostics()] \
        == ["WASP-C001"]


# -- compiler integration ------------------------------------------------


def test_compile_populates_diagnostics_and_verifies_by_default():
    result = WaspCompiler().compile(
        build_stream_program(128, 0, 512), num_warps=2
    )
    assert result.specialized
    assert isinstance(result.diagnostics, list)  # ran, found nothing


def test_verify_or_raise_wraps_errors(stream_pipeline):
    stream_pipeline.tb_spec.queues = []
    with pytest.raises(VerificationError) as excinfo:
        verify_or_raise(stream_pipeline)
    assert isinstance(excinfo.value, CompilerError)
    assert any(
        d.rule == "WASP-Q005" for d in excinfo.value.diagnostics
    )


# -- registry gate -------------------------------------------------------


def test_all_registry_workloads_lint_clean():
    result = lint_benchmarks(scale=0.25)
    assert result.kernels, "registry produced no kernels"
    assert result.num_errors == 0, result.to_text()
    assert result.num_warnings == 0, result.to_text()


def test_lint_kernel_returns_report():
    result, report = lint_kernel(build_stream_program(128, 0, 512), 2)
    assert result.specialized
    assert report.clean


def test_cli_lint_subcommand(tmp_path, capsys):
    import json

    from repro.cli import main

    out = tmp_path / "lint.json"
    code = main(["lint", "pointnet", "--json-out", str(out)])
    assert code == 0
    assert "verifier: clean" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro-lint-report-v1"
    assert doc["num_errors"] == 0
    assert doc["kernels"]


def test_cli_lint_rejects_unknown_benchmark():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["lint", "no_such_benchmark"])

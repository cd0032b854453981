"""Smaller units: program helpers, trace summaries, pipeline dropping,
sync-pair tagging edge cases, runner fallbacks."""

from repro.core.compiler.buffering import tag_tile_sync_pairs
from repro.core.compiler.pipeline import drop_empty_stages
from repro.core.compiler.stagesplit import StageProgram
from repro.fexec.trace import DynamicInstr, TmaJob, WarpTrace
from repro.isa import Instruction, Opcode, ProgramBuilder, QueueRef, Register
from repro.isa.opcodes import FuncUnit, InstrCategory
from repro.isa.program import used_predicates, used_registers


def test_used_registers_and_predicates_helpers():
    b = ProgramBuilder("h")
    r = b.iadd(1, 2)
    p = b.isetp("lt", r, 5)
    b.emit(Opcode.MOV, dst=b.reg(), srcs=[r], guard=p)
    b.exit()
    instrs = list(b.program.instructions())
    regs = used_registers(instrs)
    preds = used_predicates(instrs)
    assert r in regs
    assert p in preds


def test_warp_trace_category_counts_and_sectors():
    trace = WarpTrace(warp_id=0, pipe_stage_id=1)
    trace.instrs.append(
        DynamicInstr(
            opcode=Opcode.LDG, unit=FuncUnit.LSU_GLOBAL,
            category=InstrCategory.MEMORY, sectors=(1, 2, 3),
        )
    )
    trace.instrs.append(
        DynamicInstr(
            opcode=Opcode.TMA_GATHER, unit=FuncUnit.TMA,
            category=InstrCategory.TMA,
            tma_job=TmaJob(
                mode="gather", queue=0, barrier=None,
                vector_sectors=((4, 5), (6,)),
                data_vector_sectors=((7, 8, 9), (10, 11, 12, 13)),
                smem_words=0,
            ),
        )
    )
    counts = trace.count_by_category()
    assert counts[InstrCategory.MEMORY] == 1
    assert counts[InstrCategory.TMA] == 1
    assert trace.total_sectors() == 13


def _stage(instrs, stage, is_compute=False):
    b = ProgramBuilder(f"s{stage}")
    for instr in instrs:
        b._emit(instr)
    b.exit()
    return StageProgram(stage=stage, program=b.finish(),
                        is_compute=is_compute)


def test_drop_empty_stages_renumbers():
    workless = _stage(
        [Instruction(Opcode.IADD, dst=Register(0),
                     srcs=[Register(0), Register(1)])],
        stage=0,
    )
    worker = _stage(
        [Instruction(Opcode.LDG, dst=QueueRef(0), srcs=[Register(0)])],
        stage=1,
    )
    compute = _stage(
        [Instruction(Opcode.MOV, dst=Register(0), srcs=[QueueRef(0)])],
        stage=2, is_compute=True,
    )
    kept, dropped = drop_empty_stages([workless, worker, compute])
    assert dropped == 1
    assert [sp.stage for sp in kept] == [0, 1]
    assert kept[-1].is_compute


def test_drop_keeps_barrier_stages():
    barrier_stage = _stage(
        [Instruction(Opcode.BAR_ARRIVE, barrier_id="x")], stage=0
    )
    compute = _stage(
        [Instruction(Opcode.STG, srcs=[Register(0), Register(1)])],
        stage=1, is_compute=True,
    )
    kept, dropped = drop_empty_stages([barrier_stage, compute])
    assert dropped == 0
    assert len(kept) == 2


def test_sync_pair_tagging_blocked_by_existing_arrive_wait():
    """An arrive/wait barrier between LDGSTS and BAR.SYNC blocks the
    pair search (the region is already hand-synchronized)."""
    b = ProgramBuilder("t")
    b.alloc_smem("buf", 8)
    b.bar_sync("tb")
    b.ldgsts(b.mov(64), b.mov(0), buffer="buf")
    b.bar_arrive("custom")
    b.bar_sync("tb")
    b.exit()
    prog = b.finish()
    keys = tag_tile_sync_pairs(prog)
    assert keys == []  # the post-side search hit BAR.ARRIVE first


def test_sync_pair_shared_by_two_ldgsts():
    b = ProgramBuilder("t")
    b.alloc_smem("buf", 16)
    b.bar_sync("tb")
    b.ldgsts(b.mov(64), b.mov(0), buffer="buf")
    b.ldgsts(b.mov(72), b.mov(8), buffer="buf")
    b.bar_sync("tb")
    b.exit()
    prog = b.finish()
    keys = tag_tile_sync_pairs(prog)
    assert keys == ["tile0"]
    tagged = [
        i.attrs.get("tile_key")
        for i in prog.instructions()
        if i.opcode is Opcode.LDGSTS
    ]
    assert tagged == ["tile0", "tile0"]


def test_runner_falls_back_when_kernel_does_not_fit():
    """A specialized kernel exceeding SM resources falls back to the
    original (ResourceError swallowed by the runner)."""
    from dataclasses import replace as dc_replace

    from repro.experiments.configs import wasp_gpu_config
    from repro.experiments.runner import TraceCache, run_kernel
    from repro.workloads.kernels import streaming_kernel

    kernel = streaming_kernel("tiny", elems_per_tb=128, num_tbs=1,
                              num_warps=4, seed=3)
    config = wasp_gpu_config()
    # Shrink the register file so the specialized block cannot fit.
    starved_gpu = dc_replace(config.gpu, registers_per_sm=2048)
    starved = dc_replace(config, gpu=starved_gpu)
    result = run_kernel(kernel, starved, TraceCache())
    assert not result.used_specialized

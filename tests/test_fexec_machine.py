"""Functional machine semantics: ALU, memory, control, queues, barriers."""

import numpy as np
import pytest

from repro.errors import DeadlockError, ExecutionError
from repro.fexec import LaunchConfig, MemoryImage, run_kernel
from repro.isa import Opcode, ProgramBuilder, QueueRef, SpecialReg
from tests.conftest import run_and_read


def _run_single(builder_fn, *, num_warps=1, width=4, mem_words=1 << 10):
    img = MemoryImage(mem_words)
    out = img.alloc("out", 64)
    b = ProgramBuilder("t")
    builder_fn(b, out)
    b.exit()
    prog = b.finish()
    run_kernel(prog, img, LaunchConfig(num_warps=num_warps, warp_width=width))
    return img.read_array("out")


def test_integer_arithmetic():
    def body(b, out):
        r = b.imad(3, 4, 5)       # 17
        r = b.iadd(r, 1)          # 18
        r = b.idiv(r, 5)          # 3
        r = b.shl(r, 2)           # 12
        r = b.max_(r, 20)         # 20
        r = b.min_(r, 15)         # 15
        b.stg(b.mov(out), r)

    assert _run_single(body)[0] == 15


def test_float_arithmetic_and_frcp():
    def body(b, out):
        r = b.fmul(2.0, 4.0)       # 8
        r = b.ffma(r, 0.5, 1.0)    # 5
        r = b.frcp(r)              # 0.2
        b.stg(b.mov(out), r)

    assert np.isclose(_run_single(body)[0], 0.2)


def test_lane_id_and_sel():
    def body(b, out):
        lane = b.special(SpecialReg.LANE_ID)
        p = b.isetp("lt", lane, 2)
        v = b.sel(p, 100, 200)
        addr = b.iadd(lane, out)
        b.stg(addr, v)

    out = _run_single(body, width=4)
    assert list(out[:4]) == [100, 100, 200, 200]


def test_warp_sum_broadcast():
    def body(b, out):
        lane = b.special(SpecialReg.LANE_ID)
        total = b.warp_sum(lane)  # 0+1+2+3 = 6
        addr = b.iadd(lane, out)
        b.stg(addr, total)

    assert list(_run_single(body, width=4)[:4]) == [6, 6, 6, 6]


def test_guarded_store_masks_lanes():
    def body(b, out):
        lane = b.special(SpecialReg.LANE_ID)
        p = b.isetp("eq", lane, 1)
        addr = b.iadd(lane, out)
        b.emit(Opcode.STG, srcs=[addr, b.mov(7)], guard=p)

    out = _run_single(body, width=4)
    assert list(out[:4]) == [0, 7, 0, 0]


def test_divergent_branch_raises():
    def body(b, out):
        lane = b.special(SpecialReg.LANE_ID)
        p = b.isetp("lt", lane, 2)  # diverges within the warp
        b.bra("skip", guard=p)
        b.label("skip")
        b.stg(b.mov(out), 0)

    with pytest.raises(ExecutionError, match="divergent"):
        _run_single(body, width=4)


def test_tma_count_must_be_warp_uniform():
    def body(b, out):
        b.alloc_smem("buf", 16)
        lane = b.special(SpecialReg.LANE_ID)
        b.emit(Opcode.TMA_TILE, srcs=[out, 0, lane])

    with pytest.raises(ExecutionError, match="warp-uniform"):
        _run_single(body)


def test_dynamic_instruction_cap_raises(monkeypatch):
    monkeypatch.setattr("repro.fexec.machine._MAX_DYNAMIC_INSTRS", 50)

    def body(b, out):
        b.label("spin")
        b.bra("spin")
        b.label("never")

    with pytest.raises(ExecutionError, match="instruction cap"):
        _run_single(body)


def test_smem_store_load_roundtrip():
    img = MemoryImage(1 << 10)
    out = img.alloc("out", 8)
    b = ProgramBuilder("t_smem")
    b.alloc_smem("buf", 16)
    lane = b.special(SpecialReg.LANE_ID)
    b.sts(lane, lane)
    v = b.lds(lane)
    addr = b.iadd(lane, out)
    b.stg(addr, v)
    b.exit()
    run_kernel(b.finish(), img, LaunchConfig(num_warps=1, warp_width=4))
    assert list(img.read_array("out")[:4]) == [0, 1, 2, 3]


def test_smem_out_of_bounds_raises():
    def body(b, out):
        b.sts(9999, 1.0)

    with pytest.raises(ExecutionError, match="SMEM"):
        _run_single(body)


def test_queue_push_pop_between_warps():
    """Warp of stage 0 pushes via LDG Q; stage-1 warp pops via MOV."""
    from repro.core.specs import ThreadBlockSpec

    img = MemoryImage(1 << 10)
    a = img.alloc("a", 8)
    img.write_array("a", np.arange(8))
    out = img.alloc("out", 8)
    b = ProgramBuilder("t_q")
    stage = b.special(SpecialReg.PIPE_STAGE_ID)
    lane = b.special(SpecialReg.LANE_ID)
    p1 = b.isetp("eq", stage, 1)
    b.bra("consumer", guard=p1)
    b.label("producer")
    addr = b.iadd(lane, a)
    b.ldg(addr, dst=QueueRef(0))
    b.exit()
    b.label("consumer")
    v = b.mov(QueueRef(0))
    oaddr = b.iadd(lane, out)
    b.stg(oaddr, v)
    b.exit()
    prog = b.finish()
    prog.tb_spec = ThreadBlockSpec(
        num_stages=2, warps_per_stage=[[0], [1]], stage_registers=[4, 4]
    )
    run_kernel(prog, img, LaunchConfig(num_warps=2, warp_width=4))
    assert list(img.read_array("out")[:4]) == [0, 1, 2, 3]


def test_pop_from_never_pushed_queue_deadlocks():
    img = MemoryImage(1 << 10)
    img.alloc("out", 8)
    b = ProgramBuilder("t_dead")
    b.mov(QueueRef(5))
    b.exit()
    with pytest.raises(DeadlockError):
        run_kernel(b.finish(), img, LaunchConfig(num_warps=1, warp_width=4))


def test_bar_sync_joins_all_warps():
    """Values written before the barrier are visible after it."""
    img = MemoryImage(1 << 10)
    out = img.alloc("out", 64)
    b = ProgramBuilder("t_sync")
    b.alloc_smem("buf", 64)
    lane = b.special(SpecialReg.LANE_ID)
    wid = b.special(SpecialReg.WARP_ID)
    tid = b.imad(wid, 4, lane)
    b.sts(tid, tid)
    b.bar_sync("tb")
    # Read the value written by the *other* warp (tid ^ 4).
    other = b.and_(b.iadd(tid, 4), 7)
    v = b.lds(other)
    oaddr = b.iadd(tid, out)
    b.stg(oaddr, v)
    b.exit()
    run_kernel(b.finish(), img, LaunchConfig(num_warps=2, warp_width=4))
    got = img.read_array("out")[:8]
    assert list(got) == [4, 5, 6, 7, 0, 1, 2, 3]


def test_stream_kernel_end_to_end(stream_setup):
    program, image_factory, launch, expected = stream_setup
    out = run_and_read(program, image_factory, launch, "o")
    assert np.allclose(out, expected)


def test_gather_kernel_end_to_end(gather_setup):
    program, image_factory, launch, expected = gather_setup
    out = run_and_read(program, image_factory, launch, "out")
    assert np.allclose(out, expected)


def test_tile_kernel_end_to_end(tile_setup):
    program, image_factory, launch, expected = tile_setup
    out = run_and_read(program, image_factory, launch, "out")
    assert np.allclose(out, expected)


def test_trace_records_categories_and_sectors(stream_setup):
    program, image_factory, launch, _ = stream_setup
    img = image_factory()
    result = run_kernel(program, img, launch)
    trace = result.traces[0]
    assert trace.total_instructions() > 0
    loads = [
        d for w in trace.warps for d in w.instrs
        if d.opcode is Opcode.LDG
    ]
    assert loads and all(len(d.sectors) > 0 for d in loads)
    stores = [
        d for w in trace.warps for d in w.instrs
        if d.opcode is Opcode.STG
    ]
    assert stores and all(d.is_store for d in stores)


def test_multiple_thread_blocks_have_distinct_tb_id():
    img = MemoryImage(1 << 10)
    out = img.alloc("out", 8)
    b = ProgramBuilder("t_tb")
    tb = b.special(SpecialReg.TB_ID)
    lane = b.special(SpecialReg.LANE_ID)
    pos = b.imad(tb, 4, lane)
    addr = b.iadd(pos, out)
    b.stg(addr, tb)
    b.exit()
    run_kernel(
        b.finish(), img,
        LaunchConfig(num_warps=1, warp_width=4, num_thread_blocks=2),
    )
    assert list(img.read_array("out")) == [0, 0, 0, 0, 1, 1, 1, 1]

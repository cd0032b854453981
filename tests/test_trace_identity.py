"""Functional traces are pinned bit for bit.

Every digest below is the SHA-256 of the compact JSON of
:func:`~repro.fexec.trace.encode_traces` for one run, recorded with the
interpreter that preceded the per-launch decode table.  Trace-cache
entries are content-addressed by their inputs, not by their traces, so
a change in what the machine emits would silently mix old and new
traces in one cache; these pins make it loud instead.

The cases cover the shared stream/gather/tile fixtures, a hand-written
program that executes every opcode (TMA.TILE included, which no
compiler pass emits), and three registry kernels unspecialized and
specialized at ring depths 2 and 4.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from tests.test_analysis_dataflow import build_ring_program

from repro.experiments.configs import wasp_gpu_config
from repro.experiments.runner import TraceCache
from repro.fexec import LaunchConfig, MemoryImage, run_kernel
from repro.fexec.machine import FunctionalMachine, _Code
from repro.fexec.trace import encode_traces
from repro.fuzz.mutate import apply_mutation
from repro.isa import Opcode, ProgramBuilder, QueueRef, SpecialReg
from repro.isa.operands import Immediate
from repro.workloads import get_benchmark


def _digest(
    traces, image: MemoryImage | None = None, sort_keys: bool = False
) -> str:
    text = json.dumps(
        encode_traces(traces), separators=(",", ":"), sort_keys=sort_keys
    )
    if image is not None:
        text += "|" + image.content_digest()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the opcode zoo -----------------------------------------------------------

_ZOO_WIDTH = 8


def _zoo_image() -> MemoryImage:
    img = MemoryImage(1 << 12)
    img.alloc("a", 128)
    img.write_array("a", np.arange(128, dtype=float) * 0.5 - 7.0)
    img.alloc("idx", 64)
    img.write_array("idx", (np.arange(64) * 37) % 128)
    img.alloc("out", 256)
    return img


def _zoo_program():
    """Every opcode, guarded and unguarded, both guard senses, queue
    operands in ALU and memory positions, all special registers, an
    empty block, and both outcomes of a uniform branch."""
    layout = _zoo_image()
    a, idx, out = (layout.base(n) for n in ("a", "idx", "out"))
    w = _ZOO_WIDTH
    b = ProgramBuilder("zoo")
    buf = b.alloc_smem("buf", 96)
    lane = b.special(SpecialReg.LANE_ID)
    wid = b.special(SpecialReg.WARP_ID)
    tb = b.special(SpecialReg.TB_ID)
    tid = b.imad(wid, w, lane)
    tid = b.iadd(tid, b.imul(tb, 2 * w))
    specials = b.iadd(b.special(SpecialReg.NUM_WARPS),
                      b.special(SpecialReg.PIPE_STAGE_ID))
    specials = b.imad(specials, b.special(SpecialReg.STAGE_WARP_ID),
                      b.special(SpecialReg.NUM_STAGE_WARPS))

    x = b.ldg(b.iadd(tid, a))
    y = b.idiv(b.imul(x, 3), 2)
    y = b.iadd(y, b.idiv(x, 0))
    y = b.shr(b.shl(y, 2), 1)
    y = b.and_(y, 14)
    y = b.emit(Opcode.OR, dst=b.reg(), srcs=[y, specials]).dst
    y = b.max_(b.min_(y, 9), -3)
    f = b.ffma(b.fmul(x, 1.5), b.fadd(x, 0.25), -2.0)
    f = b.hmma(f, x, y)
    r = b.frcp(b.iadd(lane, -3))
    s = b.warp_sum(f)
    b.emit(Opcode.NOP)

    lo = b.isetp("lt", lane, 5)
    hi = b.isetp("ge", lane, 3)
    for cmp in ("le", "gt", "eq", "ne"):
        b.isetp(cmp, lane, 4)
    v = b.sel(lo, f, r)
    b.emit(Opcode.IADD, dst=v, srcs=[v, 100], guard=hi)
    b.emit(Opcode.FMUL, dst=v, srcs=[v, s], guard=lo, guard_negated=True)
    b.emit(Opcode.ISETP, dst=hi, srcs=[v, 0], guard=lo,
           attrs={"cmp": "gt"})
    masked = b.reg()
    b.emit(Opcode.LDG, dst=masked, srcs=[b.iadd(tid, a)], guard=hi)
    b.emit(Opcode.REDUX, dst=masked, srcs=[masked], guard=lo)

    # Queue traffic inside one warp: a push then pops in ALU and
    # store-value positions.
    b.ldg(b.iadd(tid, a), dst=QueueRef(0))
    b.emit(Opcode.MOV, dst=QueueRef(1), srcs=[v])
    q = b.fadd(QueueRef(0), QueueRef(1))
    b.ldg(b.iadd(tid, a), dst=QueueRef(0))
    b.stg(b.iadd(tid, out + 64), QueueRef(0))

    # SMEM: full, guarded and fused global->shared traffic.
    sa = b.iadd(b.imad(wid, w, lane), buf)
    b.sts(sa, q, buffer="buf")
    b.emit(Opcode.STS, srcs=[sa, v], guard=lo, attrs={"smem_buffer": "buf"})
    b.bar_sync("tb")
    sv = b.lds(sa, buffer="buf")
    gv = b.reg()
    b.emit(Opcode.LDS, dst=gv, srcs=[sa], guard=hi,
           attrs={"smem_buffer": "buf"})
    b.ldgsts(b.iadd(tid, a), b.iadd(sa, 2 * w), buffer="buf")
    b.emit(Opcode.LDGSTS, srcs=[b.iadd(tid, a + 32), b.iadd(sa, 2 * w)],
           guard=lo, attrs={"smem_buffer": "buf"})

    # TMA: a tile with its completion barrier, streams with the stride
    # from attrs and from an operand, gathers into a queue and SMEM.
    sbase = b.imad(wid, 16, buf + 48)
    b.emit(Opcode.TMA_TILE, srcs=[a, sbase, 16], attrs={"barrier": "tile"})
    b.bar_wait("tile")
    tile = b.lds(b.iadd(sbase, lane), buffer="buf")
    b.emit(Opcode.TMA_STREAM, dst=QueueRef(2),
           srcs=[b.iadd(lane, a), 2], attrs={"vec_stride": 3})
    st = b.fadd(QueueRef(2), QueueRef(2))
    b.emit(Opcode.TMA_STREAM, dst=QueueRef(2), srcs=[b.iadd(lane, a), 2, 5])
    st = b.fadd(st, b.fmul(QueueRef(2), QueueRef(2)))
    b.emit(Opcode.TMA_GATHER, dst=QueueRef(3),
           srcs=[b.iadd(lane, idx), a, 2])
    ga = b.fadd(QueueRef(3), QueueRef(3))
    b.emit(Opcode.TMA_GATHER, srcs=[b.iadd(lane, idx + 8), a, 2, 16],
           attrs={"dest": "smem", "sbase": 64, "barrier": "g"})
    b.bar_arrive("g")
    b.bar_wait("g")
    gs = b.lds(b.iadd(lane, 64), buffer="buf")

    total = b.fadd(b.fadd(sv, gv), b.fadd(tile, st))
    total = b.fadd(total, b.fadd(ga, gs))
    b.stg(b.iadd(tid, out), total)
    b.emit(Opcode.STG, srcs=[b.iadd(tid, out + 128), masked], guard=hi)

    # A two-trip loop (branch taken, then not), a never-taken negated
    # branch, and an empty block on the fall-through path.
    i = b.mov(0)
    always = b.isetp("ge", lane, 0)
    b.label("loop")
    b.iadd(i, 1, dst=i)
    again = b.isetp("lt", i, 2)
    b.bra("loop", guard=again)
    b.label("after")
    b.bra("loop", guard=always, negated=True)
    b.label("empty")
    b.label("tail")
    b.bra("end")
    b.label("end")
    b.exit()
    return b.finish()


def _zoo_launch() -> LaunchConfig:
    return LaunchConfig(num_warps=2, warp_width=_ZOO_WIDTH,
                        num_thread_blocks=2)


# -- cases --------------------------------------------------------------------

_FIXTURES = ("stream_setup", "gather_setup", "tile_setup")
_REGISTRY = (
    ("pointnet", "ball_query_gather"),      # TMA.GATHER into a queue
    ("spgemm1_econ", "spgemm_symbolic"),    # LDG + TMA.STREAM
    ("flash_attention", "fused_attention"),  # SMEM ring, split barriers
)
_DEPTHS = (None, 2, 4)  # None = unspecialized


def _registry_traces(bench: str, kernel_name: str, depth: int | None):
    kernel = next(
        k for k in get_benchmark(bench, 0.1).kernels
        if k.name == kernel_name
    )
    cache = TraceCache()
    if depth is None:
        return cache.original(kernel).traces
    options = replace(wasp_gpu_config().compiler, pipeline_depth=depth)
    entry = cache.specialized(kernel, options)
    assert entry is not None, f"{kernel_name} did not specialize"
    return entry.traces


_DIGESTS = {
    "stream_setup": (
        "a4ebf30d928cdc5bb47bdee7afe7e45d"
        "55e7d0ce42dc13cc8d6ac80a085ac344"
    ),
    "gather_setup": (
        "2f59f99a065ee83a5605f68b5f2e1931"
        "14e729c1fdcea2f2f37045864be105ac"
    ),
    "tile_setup": (
        "7d7bd66bc29742e06330424196e326bf"
        "dbb44582a88b7510cf552a4726ea1640"
    ),
    "zoo": (
        "2578ca7faceea9921c4829ca09f34d30"
        "a900d15b93a88d79d7801118f02e740a"
    ),
    "pointnet/ball_query_gather@none": (
        "95d7e5541d07620527b746943f055105"
        "ade4b0bd4758d42a135d44a383b263a6"
    ),
    "pointnet/ball_query_gather@2": (
        "1a9cffa155639868ab5ce964bc7d11ab"
        "953ae4d9113f62781469d9e94a37a9c9"
    ),
    "pointnet/ball_query_gather@4": (
        "1a9cffa155639868ab5ce964bc7d11ab"
        "953ae4d9113f62781469d9e94a37a9c9"
    ),
    "spgemm1_econ/spgemm_symbolic@none": (
        "77c3121e3b83f0f2a2e9af5f6c24c07d"
        "ba244115e7b848c0b37a4cc3117febbc"
    ),
    "spgemm1_econ/spgemm_symbolic@2": (
        "d06c03931dbc402d030ffa0f01a440cb"
        "5faeb0300be91e7fb91080b92b0b243a"
    ),
    "spgemm1_econ/spgemm_symbolic@4": (
        "d06c03931dbc402d030ffa0f01a440cb"
        "5faeb0300be91e7fb91080b92b0b243a"
    ),
    "flash_attention/fused_attention@none": (
        "2033345326ccb265537a2c5debf571c5"
        "eba0734dfd9c8db57fc222c10f2a62b1"
    ),
    "flash_attention/fused_attention@2": (
        "266d8caefd27d8b132aa767810220841"
        "0ce914c9806236146afa0ad82d58ae0b"
    ),
    "flash_attention/fused_attention@4": (
        "cc86b6870f743b5d9f684a8a883b6ed6"
        "2a90b6893013dca252b46d483a7ad163"
    ),
}


@pytest.mark.parametrize("fixture", _FIXTURES)
def test_fixture_traces_are_pinned(fixture, request):
    program, image_factory, launch, _ = request.getfixturevalue(fixture)
    image = image_factory()
    traces = run_kernel(program, image, launch).traces
    assert _digest(traces, image) == _DIGESTS[fixture]


def test_opcode_zoo_traces_are_pinned():
    image = _zoo_image()
    traces = run_kernel(_zoo_program(), image, _zoo_launch()).traces
    ops = {d.opcode for t in traces for w in t.warps for d in w.instrs}
    assert ops == set(Opcode)
    assert _digest(traces, image) == _DIGESTS["zoo"]


@pytest.mark.parametrize("depth", _DEPTHS, ids=lambda d: f"depth{d}")
@pytest.mark.parametrize("bench,kernel", _REGISTRY)
def test_registry_traces_are_pinned(bench, kernel, depth):
    # The compiler fills a ring spec's barrier tables in string-hash
    # order, so these digests sort keys; the fixture and zoo digests
    # above pin the machine's own dict orders.
    traces = _registry_traces(bench, kernel, depth)
    label = f"{bench}/{kernel}@{'none' if depth is None else depth}"
    assert _digest(traces, sort_keys=True) == _DIGESTS[label]


def test_shared_vectors_reject_in_place_writes():
    # The all-true mask, default register value, lane ids, special
    # registers and immediates are shared by every execution of a
    # launch; a stray in-place write must raise, not corrupt them.
    program, launch = _zoo_program(), _zoo_launch()
    code = _Code(program, launch.warp_width)
    machine = FunctionalMachine(program, _zoo_image(), launch, code=code)
    warp = machine._warps[0]
    immediates = [
        read(machine, warp)
        for ops in code.blocks
        for op in ops
        for src, read in zip(op.instr.srcs, op.reads)
        if isinstance(src, Immediate)
    ]
    assert immediates
    shared = [code.ones, code.zeros, code.lanes, *warp.specials.values()]
    for vec in shared + immediates:
        with pytest.raises(ValueError, match="read-only"):
            vec[0] = 1


# The vector-clock sanitizer observes the machine's exact interleaving,
# so its race list pins the warp schedule too.
_RING_RACES = [{
    "group": "ring0", "address": 0, "kind": "write-read",
    "first_stage": 0, "first_warp": 0,
    "second_stage": 1, "second_warp": 1, "tb_id": 0,
}]


def test_sanitizer_race_list_is_pinned():
    mutant = apply_mutation(build_ring_program(), "phase-off-by-one")
    result = run_kernel(
        mutant, MemoryImage(1 << 10), LaunchConfig(num_warps=2),
        sanitize=True,
    )
    assert [r.to_json() for r in result.races] == _RING_RACES

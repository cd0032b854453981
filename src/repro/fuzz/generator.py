"""Builds a runnable kernel from a :class:`~repro.fuzz.spec.FuzzSpec`.

One builder per access skeleton, mirroring the hand-written templates in
:mod:`repro.workloads.kernels` but shrunk to fuzzing scale and fully
parameterized.  All builders keep branches warp-uniform (divergence is
expressed with lane predication, as optimized GPU kernels do), so the
generated programs stay inside the functional machine's execution model
and inside the WASP compiler's eligibility rules often enough to
exercise the stage-split path.

The returned :class:`~repro.workloads.base.Kernel` is deterministic:
building the same spec twice yields programs with identical canonical
encodings and images with identical content digests, which is what
makes fuzz traces and oracle verdicts content-addressable.
"""

from __future__ import annotations

import numpy as np

from repro.fexec.launch import LaunchConfig
from repro.fexec.memory_image import MemoryImage
from repro.fuzz.spec import FuzzSpec
from repro.isa.builder import ProgramBuilder
from repro.isa.operands import Register, SpecialReg
from repro.workloads.base import Kernel

_IMAGE_WORDS = 1 << 14


def build_kernel(spec: FuzzSpec) -> Kernel:
    """The kernel described by ``spec``."""
    builder = _BUILDERS[spec.skeleton]
    return builder(spec)


def _elems(spec: FuzzSpec) -> int:
    """Elements each thread block touches in block-stride loops."""
    return spec.num_warps * spec.warp_width * spec.iters


def _prologue(b: ProgramBuilder, spec: FuzzSpec):
    """Returns (loop counter, thread's global element base, stride)."""
    lane = b.special(SpecialReg.LANE_ID)
    wid = b.special(SpecialReg.WARP_ID)
    nw = b.special(SpecialReg.NUM_WARPS)
    tb = b.special(SpecialReg.TB_ID)
    counter = b.mov(0)
    tid = b.imad(wid, spec.warp_width, lane)
    tb_off = b.imul(tb, _elems(spec))
    base = b.iadd(tid, tb_off)
    stride = b.imul(nw, spec.warp_width)
    return counter, base, stride


def _fp_chain(b: ProgramBuilder, value: Register, spec: FuzzSpec) -> Register:
    acc = value
    for k in range(spec.fp_ops):
        acc = b.ffma(acc, spec.scale_imm, 0.125 * (k + 1))
    return acc


def _launch(spec: FuzzSpec) -> LaunchConfig:
    return LaunchConfig(
        num_warps=spec.num_warps,
        warp_width=spec.warp_width,
        num_thread_blocks=spec.num_tbs,
    )


# -- skeletons --------------------------------------------------------------


def _streaming(spec: FuzzSpec) -> Kernel:
    """out[i] = f(in0[i] + in1[i] + ...): use-once streaming."""
    total = _elems(spec) * spec.num_tbs
    names = [f"in{k}" for k in range(spec.num_inputs)]

    def image_factory() -> MemoryImage:
        img = MemoryImage(_IMAGE_WORDS)
        rng = np.random.default_rng(spec.seed)
        for name in names:
            img.alloc(name, total)
            img.write_array(name, rng.uniform(-4, 4, total))
        img.alloc("out", total)
        return img

    layout = image_factory()
    b = ProgramBuilder(f"fuzz_streaming_{spec.seed}")
    i, base, stride = _prologue(b, spec)
    b.label("loop")
    pos = b.iadd(base, i)
    acc = None
    for name in names:
        addr = b.iadd(pos, layout.base(name))
        val = b.ldg(addr)
        acc = val if acc is None else b.fadd(acc, val)
    acc = _fp_chain(b, acc, spec)
    out_addr = b.iadd(pos, layout.base("out"))
    b.stg(out_addr, acc)
    b.iadd(i, stride, dst=i)
    pred = b.isetp("lt", i, _elems(spec))
    b.bra("loop", guard=pred)
    b.label("done")
    b.exit()
    return Kernel(
        name=b.program.name,
        program=b.finish(),
        image_factory=image_factory,
        launch=_launch(spec),
    )


def _gather(spec: FuzzSpec) -> Kernel:
    """out[i] = f(table[...idx[i]...]): 1- or 2-level index chase."""
    total = _elems(spec) * spec.num_tbs
    table_words = spec.table_words

    def image_factory() -> MemoryImage:
        img = MemoryImage(_IMAGE_WORDS)
        rng = np.random.default_rng(spec.seed)
        img.alloc("idx", total)
        img.write_array("idx", rng.integers(0, table_words, total))
        if spec.gather_depth == 2:
            img.alloc("table2", table_words)
            img.write_array(
                "table2", rng.integers(0, table_words, table_words)
            )
        img.alloc("table", table_words)
        img.write_array("table", rng.uniform(-4, 4, table_words))
        img.alloc("out", total)
        return img

    layout = image_factory()
    b = ProgramBuilder(f"fuzz_gather_{spec.seed}")
    i, base, stride = _prologue(b, spec)
    b.label("loop")
    pos = b.iadd(base, i)
    idx_addr = b.iadd(pos, layout.base("idx"))
    index = b.ldg(idx_addr)
    if spec.gather_depth == 2:
        addr2 = b.iadd(index, layout.base("table2"))
        index = b.ldg(addr2)
    data_addr = b.iadd(index, layout.base("table"))
    value = b.ldg(data_addr)
    acc = _fp_chain(b, value, spec)
    out_addr = b.iadd(pos, layout.base("out"))
    b.stg(out_addr, acc)
    b.iadd(i, stride, dst=i)
    pred = b.isetp("lt", i, _elems(spec))
    b.bra("loop", guard=pred)
    b.label("done")
    b.exit()
    return Kernel(
        name=b.program.name,
        program=b.finish(),
        image_factory=image_factory,
        launch=_launch(spec),
    )


def _tiled(spec: FuzzSpec) -> Kernel:
    """SMEM-staged reduction: cooperative LDGSTS between barriers.

    Per tile: stage ``tile_elems`` words into a shared buffer between
    BAR.SYNCs, then accumulate out of SMEM — the Figure 1 pattern that
    the tile path plus double buffering transforms.
    """
    threads = spec.num_warps * spec.warp_width
    per_thread = max(1, spec.tile_elems // threads)
    total = spec.iters * spec.tile_elems * spec.num_tbs

    def image_factory() -> MemoryImage:
        img = MemoryImage(_IMAGE_WORDS)
        rng = np.random.default_rng(spec.seed)
        img.alloc("a", total)
        img.write_array("a", rng.uniform(-4, 4, total))
        img.alloc("out", spec.tile_elems * spec.num_tbs)
        return img

    layout = image_factory()
    b = ProgramBuilder(f"fuzz_tiled_{spec.seed}")
    buf = b.alloc_smem("stage_buf", spec.tile_elems)
    lane = b.special(SpecialReg.LANE_ID)
    wid = b.special(SpecialReg.WARP_ID)
    tb = b.special(SpecialReg.TB_ID)
    tid = b.imad(wid, spec.warp_width, lane)
    tb_off = b.imul(tb, spec.iters * spec.tile_elems)
    acc = b.mov(0.0)
    t = b.mov(0)
    b.label("tile_loop")
    b.bar_sync("tb")
    tile_base = b.imad(t, spec.tile_elems, tb_off)
    for copy in range(per_thread):
        offset = b.iadd(tid, copy * threads)
        ga = b.iadd(tile_base, offset)
        ga2 = b.iadd(ga, layout.base("a"))
        sa = b.iadd(offset, buf)
        b.ldgsts(ga2, sa, buffer="stage_buf")
    b.bar_sync("tb")
    for copy in range(per_thread):
        offset = b.iadd(tid, copy * threads)
        sa = b.iadd(offset, buf)
        val = b.lds(sa, buffer="stage_buf")
        val = _fp_chain(b, val, spec)
        b.fadd(acc, val, dst=acc)
    b.iadd(t, 1, dst=t)
    pred = b.isetp("lt", t, spec.iters)
    b.bra("tile_loop", guard=pred)
    b.label("epilogue")
    out_off = b.imul(tb, spec.tile_elems)
    oa = b.iadd(tid, out_off)
    oa2 = b.iadd(oa, layout.base("out"))
    b.stg(oa2, acc)
    b.exit()
    return Kernel(
        name=b.program.name,
        program=b.finish(),
        image_factory=image_factory,
        launch=_launch(spec),
    )


def _deep(spec: FuzzSpec) -> Kernel:
    """Coupled dual-stream tiles: the deep-pipeline (attention) shape.

    Per tile: cooperatively stage matching ``x`` and ``y`` tiles into
    two SMEM buffers between BAR.SYNCs, then accumulate their products
    out of SMEM.  Both buffers join the same tile sync pair, so the
    circular-buffering pass rotates them in lockstep — at
    ``pipeline_depth`` N this is the kernel class whose ring alignment
    the deep-pipeline battery targets.
    """
    threads = spec.num_warps * spec.warp_width
    per_thread = max(1, spec.tile_elems // threads)
    total = spec.iters * spec.tile_elems * spec.num_tbs

    def image_factory() -> MemoryImage:
        img = MemoryImage(_IMAGE_WORDS)
        rng = np.random.default_rng(spec.seed)
        img.alloc("x", total)
        img.write_array("x", rng.uniform(-4, 4, total))
        img.alloc("y", total)
        img.write_array("y", rng.uniform(-4, 4, total))
        img.alloc("out", spec.tile_elems * spec.num_tbs)
        return img

    layout = image_factory()
    b = ProgramBuilder(f"fuzz_deep_{spec.seed}")
    buf_x = b.alloc_smem("ring_x", spec.tile_elems)
    buf_y = b.alloc_smem("ring_y", spec.tile_elems)
    lane = b.special(SpecialReg.LANE_ID)
    wid = b.special(SpecialReg.WARP_ID)
    tb = b.special(SpecialReg.TB_ID)
    tid = b.imad(wid, spec.warp_width, lane)
    tb_off = b.imul(tb, spec.iters * spec.tile_elems)
    acc = b.mov(0.0)
    t = b.mov(0)
    b.label("tile_loop")
    b.bar_sync("tb")
    tile_base = b.imad(t, spec.tile_elems, tb_off)
    for copy in range(per_thread):
        offset = b.iadd(tid, copy * threads)
        ga = b.iadd(tile_base, offset)
        gx = b.iadd(ga, layout.base("x"))
        gy = b.iadd(ga, layout.base("y"))
        sx = b.iadd(offset, buf_x)
        sy = b.iadd(offset, buf_y)
        b.ldgsts(gx, sx, buffer="ring_x")
        b.ldgsts(gy, sy, buffer="ring_y")
    b.bar_sync("tb")
    for copy in range(per_thread):
        offset = b.iadd(tid, copy * threads)
        sx = b.iadd(offset, buf_x)
        sy = b.iadd(offset, buf_y)
        xv = b.lds(sx, buffer="ring_x")
        yv = b.lds(sy, buffer="ring_y")
        prod = b.fmul(xv, yv)
        prod = _fp_chain(b, prod, spec)
        b.fadd(acc, prod, dst=acc)
    b.iadd(t, 1, dst=t)
    pred = b.isetp("lt", t, spec.iters)
    b.bra("tile_loop", guard=pred)
    b.label("epilogue")
    out_off = b.imul(tb, spec.tile_elems)
    oa = b.iadd(tid, out_off)
    oa2 = b.iadd(oa, layout.base("out"))
    b.stg(oa2, acc)
    b.exit()
    return Kernel(
        name=b.program.name,
        program=b.finish(),
        image_factory=image_factory,
        launch=_launch(spec),
    )


def _reduction(spec: FuzzSpec) -> Kernel:
    """Block-stride accumulate, warp-collective sum, one store per warp.

    The tail iteration is lane-predicated (SEL against an active mask)
    rather than branched, so a non-multiple trip count exercises the
    masked-writeback path through specialization.
    """
    # One deliberately ragged element count: 3/4 of the last iteration.
    per_tb = _elems(spec) - (spec.warp_width // 4)
    total_slots = _elems(spec) * spec.num_tbs
    warps_total = spec.num_warps * spec.num_tbs

    def image_factory() -> MemoryImage:
        img = MemoryImage(_IMAGE_WORDS)
        rng = np.random.default_rng(spec.seed)
        img.alloc("a", total_slots)
        img.write_array("a", rng.uniform(-4, 4, total_slots))
        img.alloc("out", max(1, warps_total))
        return img

    layout = image_factory()
    b = ProgramBuilder(f"fuzz_reduction_{spec.seed}")
    i, base, stride = _prologue(b, spec)
    acc = b.mov(0.0)
    b.label("loop")
    pos = b.iadd(base, i)
    addr = b.iadd(pos, layout.base("a"))
    val = b.ldg(addr)
    val = _fp_chain(b, val, spec)
    # Predicate off the ragged tail; inactive lanes contribute the
    # reduce identity.
    tb = b.special(SpecialReg.TB_ID)
    neg_tb_off = b.imul(tb, -_elems(spec))
    local = b.iadd(pos, neg_tb_off)
    active = b.isetp("lt", local, per_tb)
    if spec.reduce_op == "min":
        masked = b.sel(active, val, 1.0e9)
        b.min_(acc, masked, dst=acc)
    elif spec.reduce_op == "max":
        masked = b.sel(active, val, -1.0e9)
        b.max_(acc, masked, dst=acc)
    else:
        masked = b.sel(active, val, 0.0)
        b.fadd(acc, masked, dst=acc)
    b.iadd(i, stride, dst=i)
    pred = b.isetp("lt", i, _elems(spec))
    b.bra("loop", guard=pred)
    b.label("tail")
    # REDUX is the only warp collective; for min/max this sums the
    # per-lane extremes, which is still a deterministic warp-wide value.
    total = b.warp_sum(acc)
    wid = b.special(SpecialReg.WARP_ID)
    tbr = b.special(SpecialReg.TB_ID)
    nw = b.special(SpecialReg.NUM_WARPS)
    slot = b.imad(tbr, nw, wid)
    out_addr = b.iadd(slot, layout.base("out"))
    b.stg(out_addr, total)
    b.exit()
    return Kernel(
        name=b.program.name,
        program=b.finish(),
        image_factory=image_factory,
        launch=_launch(spec),
    )


def _mixed(spec: FuzzSpec) -> Kernel:
    """Nested loops + gather + predication: the graph-workload shape.

    Outer block-stride loop over entries; a uniform inner loop walks
    ``inner_trip`` neighbour slots through a two-level indirection;
    lane-parity predication picks between two scale factors before the
    reduction.
    """
    total = _elems(spec) * spec.num_tbs
    tw = spec.table_words

    def image_factory() -> MemoryImage:
        img = MemoryImage(_IMAGE_WORDS)
        rng = np.random.default_rng(spec.seed)
        img.alloc("entry", total)
        img.write_array("entry", rng.integers(0, tw, total))
        img.alloc("adj", tw * spec.inner_trip)
        img.write_array(
            "adj", rng.integers(0, tw, tw * spec.inner_trip)
        )
        img.alloc("dist", tw)
        img.write_array("dist", rng.uniform(0, 100, tw))
        img.alloc("out", total)
        return img

    layout = image_factory()
    b = ProgramBuilder(f"fuzz_mixed_{spec.seed}")
    i, base, stride = _prologue(b, spec)
    lane = b.special(SpecialReg.LANE_ID)
    parity = b.and_(lane, 1)
    odd = b.isetp("eq", parity, 1)
    b.label("outer")
    pos = b.iadd(base, i)
    entry_addr = b.iadd(pos, layout.base("entry"))
    node = b.ldg(entry_addr)
    row = b.imad(node, spec.inner_trip, layout.base("adj"))
    init = {"sum": 0.0, "min": 1.0e9, "max": -1.0e9}[spec.reduce_op]
    acc = b.mov(init)
    j = b.mov(0)
    b.label("inner")
    nb_addr = b.iadd(row, j)
    neighbour = b.ldg(nb_addr)
    dist_addr = b.iadd(neighbour, layout.base("dist"))
    dist = b.ldg(dist_addr)
    scaled = b.fmul(dist, spec.scale_imm)
    dist = b.sel(odd, scaled, dist)
    dist = _fp_chain(b, dist, spec)
    if spec.reduce_op == "min":
        b.min_(acc, dist, dst=acc)
    elif spec.reduce_op == "max":
        b.max_(acc, dist, dst=acc)
    else:
        b.fadd(acc, dist, dst=acc)
    b.iadd(j, 1, dst=j)
    inner_pred = b.isetp("lt", j, spec.inner_trip)
    b.bra("inner", guard=inner_pred)
    b.label("outer_tail")
    out_addr = b.iadd(pos, layout.base("out"))
    b.stg(out_addr, acc)
    b.iadd(i, stride, dst=i)
    outer_pred = b.isetp("lt", i, _elems(spec))
    b.bra("outer", guard=outer_pred)
    b.label("done")
    b.exit()
    return Kernel(
        name=b.program.name,
        program=b.finish(),
        image_factory=image_factory,
        launch=_launch(spec),
    )


_BUILDERS = {
    "streaming": _streaming,
    "gather": _gather,
    "tiled": _tiled,
    "reduction": _reduction,
    "mixed": _mixed,
    "deep": _deep,
}

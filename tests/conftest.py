"""Shared fixtures: small canonical kernels and helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compiler.memo import clear_source_slot
from repro.fexec import LaunchConfig, MemoryImage, run_kernel
from repro.isa import ProgramBuilder, SpecialReg

WIDTH = 16  # narrower warps keep the functional runs fast in tests


@pytest.fixture(autouse=True)
def _fresh_certificates():
    """Each test starts with an empty per-source slot (no stored
    compile, program or certificate), so whether a compile or a
    validation runs does not depend on which test ran before."""
    clear_source_slot()


def build_stream_program(n: int, base_in: int, base_out: int,
                         fp_ops: int = 1):
    """out[i] = chain(in[i]): the Figure 11 streaming shape."""
    b = ProgramBuilder("t_stream")
    lane = b.special(SpecialReg.LANE_ID)
    wid = b.special(SpecialReg.WARP_ID)
    nw = b.special(SpecialReg.NUM_WARPS)
    i = b.mov(0)
    tid = b.imad(wid, WIDTH, lane)
    stride = b.imul(nw, WIDTH)
    b.label("loop")
    pos = b.iadd(tid, i)
    addr_in = b.iadd(pos, base_in)
    val = b.ldg(addr_in)
    for _ in range(fp_ops):
        val = b.ffma(val, 2.0, 1.0)
    addr_out = b.iadd(pos, base_out)
    b.stg(addr_out, val)
    b.iadd(i, stride, dst=i)
    pred = b.isetp("lt", i, n)
    b.bra("loop", guard=pred)
    b.label("done")
    b.exit()
    return b.finish()


def build_gather_program(n: int, idx_base: int, data_base: int,
                         out_base: int):
    """out[i] = data[idx[i]]: the Figure 12 gather shape."""
    b = ProgramBuilder("t_gather")
    lane = b.special(SpecialReg.LANE_ID)
    wid = b.special(SpecialReg.WARP_ID)
    nw = b.special(SpecialReg.NUM_WARPS)
    i = b.mov(0)
    tid = b.imad(wid, WIDTH, lane)
    stride = b.imul(nw, WIDTH)
    b.label("loop")
    pos = b.iadd(tid, i)
    ia = b.iadd(pos, idx_base)
    index = b.ldg(ia)
    da = b.iadd(index, data_base)
    value = b.ldg(da)
    value = b.fmul(value, 3.0)
    oa = b.iadd(pos, out_base)
    b.stg(oa, value)
    b.iadd(i, stride, dst=i)
    pred = b.isetp("lt", i, n)
    b.bra("loop", guard=pred)
    b.label("done")
    b.exit()
    return b.finish()


def build_tile_program(tiles: int, tile_words: int, a_base: int,
                       out_base: int, num_warps: int):
    """Per-tile LDGSTS between BAR.SYNCs then SMEM compute (Figure 13)."""
    b = ProgramBuilder("t_tile")
    buf = b.alloc_smem("buf", tile_words)
    lane = b.special(SpecialReg.LANE_ID)
    wid = b.special(SpecialReg.WARP_ID)
    tid = b.imad(wid, WIDTH, lane)
    t = b.mov(0)
    acc = b.mov(0.0)
    b.label("tile_loop")
    b.bar_sync("tb")
    ga = b.imad(t, tile_words, tid)
    ga2 = b.iadd(ga, a_base)
    sa = b.iadd(tid, buf)
    b.ldgsts(ga2, sa, buffer="buf")
    b.bar_sync("tb")
    sv = b.lds(sa, buffer="buf")
    b.fadd(acc, sv, dst=acc)
    b.iadd(t, 1, dst=t)
    pred = b.isetp("lt", t, tiles)
    b.bra("tile_loop", guard=pred)
    b.label("epilog")
    oa = b.iadd(tid, out_base)
    b.stg(oa, acc)
    b.exit()
    return b.finish()


@pytest.fixture
def stream_setup():
    """(program, image_factory, launch, expected) for the stream kernel."""
    n = 128
    values = np.arange(n, dtype=float)

    def image_factory() -> MemoryImage:
        img = MemoryImage(1 << 12)
        img.alloc("a", n)
        img.write_array("a", values)
        img.alloc("o", n)
        return img

    layout = image_factory()
    program = build_stream_program(n, layout.base("a"), layout.base("o"))
    launch = LaunchConfig(num_warps=2, warp_width=WIDTH)
    expected = values * 2.0 + 1.0
    return program, image_factory, launch, expected


@pytest.fixture
def gather_setup():
    """(program, image_factory, launch, expected) for the gather kernel."""
    n, m = 128, 256
    rng = np.random.default_rng(123)
    idx = rng.integers(0, m, n)
    data = rng.uniform(-1, 1, m)

    def image_factory() -> MemoryImage:
        img = MemoryImage(1 << 12)
        img.alloc("idx", n)
        img.write_array("idx", idx)
        img.alloc("data", m)
        img.write_array("data", data)
        img.alloc("out", n)
        return img

    layout = image_factory()
    program = build_gather_program(
        n, layout.base("idx"), layout.base("data"), layout.base("out")
    )
    launch = LaunchConfig(num_warps=2, warp_width=WIDTH)
    expected = data[idx] * 3.0
    return program, image_factory, launch, expected


@pytest.fixture
def tile_setup():
    """(program, image_factory, launch, expected) for the tile kernel."""
    tiles, num_warps = 4, 2
    tile_words = num_warps * WIDTH
    n = tiles * tile_words
    values = np.arange(n, dtype=float) * 0.5

    def image_factory() -> MemoryImage:
        img = MemoryImage(1 << 12)
        img.alloc("a", n)
        img.write_array("a", values)
        img.alloc("out", tile_words)
        return img

    layout = image_factory()
    program = build_tile_program(
        tiles, tile_words, layout.base("a"), layout.base("out"), num_warps
    )
    launch = LaunchConfig(num_warps=num_warps, warp_width=WIDTH)
    expected = values.reshape(tiles, tile_words).sum(axis=0)
    return program, image_factory, launch, expected


def run_and_read(program, image_factory, launch, array: str) -> np.ndarray:
    """Execute functionally and read back an output array."""
    img = image_factory()
    run_kernel(program, img, launch)
    return img.read_array(array)

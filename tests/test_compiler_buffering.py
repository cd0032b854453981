"""LDGSTS fusion, sync-pair tagging, and double-buffer unrolling."""

import numpy as np

from repro.core.compiler.buffering import (
    apply_double_buffering,
    find_loops,
    fuse_ldgsts,
    innermost_loop,
    tag_tile_sync_pairs,
)
from repro.core.compiler.pdg import build_pdg
from repro.fexec import LaunchConfig, MemoryImage, run_kernel
from repro.isa import Opcode, ProgramBuilder
from tests.conftest import WIDTH, build_tile_program


def _tile_image(tiles: int, tile_words: int, values=None):
    img = MemoryImage(1 << 12)
    n = tiles * tile_words
    img.alloc("a", n)
    if values is not None:
        img.write_array("a", values)
    img.alloc("out", tile_words)
    return img


def _tile_prog(tiles: int = 4, num_warps: int = 2):
    tile_words = num_warps * WIDTH
    layout = _tile_image(tiles, tile_words)
    return build_tile_program(
        tiles, tile_words, layout.base("a"), layout.base("out"), num_warps
    )


def test_fuse_creates_ldgsts_from_ldg_sts_pair():
    b = ProgramBuilder("f")
    b.alloc_smem("buf", 8)
    v = b.ldg(b.mov(64))
    b.sts(b.mov(0), v, buffer="buf")
    b.exit()
    prog = b.finish()
    assert fuse_ldgsts(prog, build_pdg(prog)) == 1
    opcodes = [i.opcode for i in prog.instructions()]
    assert Opcode.LDGSTS in opcodes
    assert Opcode.STS not in opcodes
    assert Opcode.LDG not in opcodes
    fused = next(
        i for i in prog.instructions() if i.opcode is Opcode.LDGSTS
    )
    assert fused.attrs["smem_buffer"] == "buf"


def test_fuse_skips_value_with_extra_consumer():
    b = ProgramBuilder("f")
    b.alloc_smem("buf", 8)
    v = b.ldg(b.mov(64))
    b.sts(b.mov(0), v, buffer="buf")
    b.stg(b.mov(128), v)  # second consumer: fusion illegal
    b.exit()
    prog = b.finish()
    assert fuse_ldgsts(prog, build_pdg(prog)) == 0


def test_fuse_skips_value_used_as_store_address():
    b = ProgramBuilder("f")
    b.alloc_smem("buf", 8)
    v = b.ldg(b.mov(64))
    b.sts(v, b.mov(1.0), buffer="buf")  # v is the ADDRESS, not the value
    b.exit()
    prog = b.finish()
    assert fuse_ldgsts(prog, build_pdg(prog)) == 0


def test_tag_tile_sync_pairs():
    prog = _tile_prog()
    fuse_count = fuse_ldgsts(prog, build_pdg(prog))
    assert fuse_count == 0  # the builder already emits LDGSTS
    keys = tag_tile_sync_pairs(prog)
    assert keys == ["tile0"]
    syncs = [
        i for i in prog.instructions() if i.opcode is Opcode.BAR_SYNC
    ]
    roles = [i.attrs.get("tile_roles") for i in syncs]
    assert [("pre", "tile0")] in roles
    assert [("post", "tile0")] in roles


def test_find_loops_detects_backedge():
    prog = _tile_prog()
    loops = find_loops(prog)
    assert len(loops) == 1
    loop = loops[0]
    assert prog.blocks[loop.head_idx].label == "tile_loop"
    assert innermost_loop(prog, loop.head_idx) is not None


def test_double_buffering_unrolls_and_doubles_smem():
    prog = _tile_prog()
    tag_tile_sync_pairs(prog)
    before_smem = prog.smem_words
    keys = apply_double_buffering(prog, smem_capacity_words=1 << 16)
    assert keys == ["tile0"]
    assert prog.smem_words == 2 * before_smem
    assert "buf__db" in prog.smem_buffers
    labels = [blk.label for blk in prog.blocks]
    assert "tile_loop__db" in labels
    tile_keys = {
        i.attrs.get("tile_key")
        for i in prog.instructions()
        if i.opcode is Opcode.LDGSTS
    }
    assert tile_keys == {"tile0_A", "tile0_B"}


def test_double_buffering_respects_smem_capacity():
    prog = _tile_prog()
    tag_tile_sync_pairs(prog)
    keys = apply_double_buffering(
        prog, smem_capacity_words=prog.smem_words + 1
    )
    assert keys == []
    assert "buf__db" not in prog.smem_buffers


def test_unrolled_program_still_computes_same_result():
    prog = _tile_prog()
    tag_tile_sync_pairs(prog)
    apply_double_buffering(prog, smem_capacity_words=1 << 16)
    # After unrolling the program still uses plain BAR.SYNC (the
    # per-stage barrier rewrite happens during splitting), so it remains
    # directly executable and must produce the original result.
    n = 4 * 2 * WIDTH
    values = np.arange(n, dtype=float) * 0.5
    launch = LaunchConfig(num_warps=2, warp_width=WIDTH)
    img = _tile_image(4, 2 * WIDTH, values)
    run_kernel(prog, img, launch)
    expected = values.reshape(4, 2 * WIDTH).sum(axis=0)
    assert np.allclose(img.read_array("out"), expected)


def test_odd_trip_count_unroll_is_correct():
    tiles, num_warps = 5, 2  # odd: A,B,A,B,A
    tile_words = num_warps * WIDTH
    prog = _tile_prog(tiles=tiles, num_warps=num_warps)
    tag_tile_sync_pairs(prog)
    assert apply_double_buffering(prog, smem_capacity_words=1 << 16)
    n = tiles * tile_words
    values = np.arange(n, dtype=float)
    img = _tile_image(tiles, tile_words, values)
    run_kernel(prog, img, LaunchConfig(num_warps=num_warps, warp_width=WIDTH))
    expected = values.reshape(tiles, tile_words).sum(axis=0)
    assert np.allclose(img.read_array("out"), expected)

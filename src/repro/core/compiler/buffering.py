"""LDGSTS fusion and N-stage circular buffering (Sections IV-A/IV-B).

Three transformations, applied to the working program *before* stage
splitting:

1. :func:`fuse_ldgsts` — a global load whose value is only stored to
   shared memory is fused with its STS partner into one ``LDGSTS``
   instruction (Ampere ``cp.async``).
2. :func:`tag_tile_sync_pairs` — for each LDGSTS, the enclosing pair of
   ``BAR.SYNC`` instructions is identified and tagged; stage splitting
   later rewrites each tagged sync positionally into arrive/wait
   barriers (producer: wait-empty/arrive-filled; consumers:
   arrive-empty/wait-filled), which is the paper's single-buffering
   transformation.
3. :func:`apply_circular_buffering` — the innermost loop around a
   tile's sync pair is unrolled ``depth`` times (the paper "replicates
   the subprogram"), copy *k* targeting the *k*-th ring slot of each
   replicated SMEM buffer with its own barrier set (Figure 10;
   ``depth=2`` is classic double buffering, deeper rings follow the
   8-slot circular schedule of production TMA/MMA kernels).  All tile
   keys living in the same loop are transformed together so their
   barrier generations stay aligned.  After stage splitting the
   producer and consumer sections advance through the ring
   independently — they are no longer lockstep clones — the producer
   running up to ``depth`` generations ahead, bounded only by the
   per-slot empty/filled barrier credits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compiler.pdg import PDG
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Immediate, Register
from repro.isa.program import BasicBlock, Program, layout_backedges


def fuse_ldgsts(program: Program, pdg: PDG) -> int:
    """Fuse eligible LDG+STS pairs in place; returns fusions performed.

    ``pdg`` is ``program``'s dependence graph; it no longer describes
    the program once a fusion is performed.  An LDG is fused when its
    value's only consumer is a single STS in the same basic block using
    the value as its store operand and with the same guard.  The LDGSTS
    takes the LDG's global address and the STS's shared address, and
    inherits the STS's buffer tag.
    """
    fused = 0
    for load in list(pdg.global_loads()):
        if load.opcode is not Opcode.LDG or not isinstance(load.dst, Register):
            continue
        succs = [pdg.instr_by_uid[u] for u in pdg.data_succs.get(load.uid, ())]
        if len(succs) != 1:
            continue
        sts = succs[0]
        if sts.opcode is not Opcode.STS:
            continue
        if sts.srcs[1] != load.dst:
            continue  # value must be the stored operand, not the address
        if (sts.guard, sts.guard_negated) != (load.guard, load.guard_negated):
            continue
        block = pdg.block_of[load.uid]
        if pdg.block_of[sts.uid] != block:
            continue
        blk = program.find_block(block)
        fused_instr = Instruction(
            Opcode.LDGSTS,
            srcs=[load.srcs[0], sts.srcs[0]],
            guard=load.guard,
            guard_negated=load.guard_negated,
            attrs=dict(sts.attrs),
        )
        sts_pos = next(
            i for i, x in enumerate(blk.instructions) if x.uid == sts.uid
        )
        blk.instructions[sts_pos] = fused_instr
        blk.instructions = [x for x in blk.instructions if x.uid != load.uid]
        fused += 1
    return fused


def tag_tile_sync_pairs(program: Program) -> list[str]:
    """Tag BAR.SYNC pairs enclosing each LDGSTS; returns the tile keys.

    Tags are attached via ``attrs['tile_roles']`` (a list of
    ``(role, key)`` pairs, since one sync can close one buffer and open
    another) and ``attrs['tile_key']`` on the LDGSTS itself.  An LDGSTS
    without an enclosing sync pair is left untagged and keeps full
    thread-block synchronization semantics.
    """
    layout: list[Instruction] = list(program.instructions())
    position = {instr.uid: i for i, instr in enumerate(layout)}
    pair_keys: dict[tuple[int, int], str] = {}
    keys: list[str] = []
    for instr in layout:
        if instr.opcode is not Opcode.LDGSTS:
            continue
        pos = position[instr.uid]
        pre = _nearest_sync(layout, pos, step=-1)
        post = _nearest_sync(layout, pos, step=1)
        if pre is None or post is None:
            continue
        pair = (pre.uid, post.uid)
        if pair not in pair_keys:
            key = f"tile{len(pair_keys)}"
            pair_keys[pair] = key
            keys.append(key)
            pre.attrs.setdefault("tile_roles", []).append(("pre", key))
            post.attrs.setdefault("tile_roles", []).append(("post", key))
        instr.attrs["tile_key"] = pair_keys[pair]
    return keys


def _nearest_sync(
    layout: list[Instruction], start: int, step: int
) -> Instruction | None:
    pos = start + step
    while 0 <= pos < len(layout):
        instr = layout[pos]
        if instr.opcode is Opcode.BAR_SYNC:
            return instr
        if instr.opcode in (Opcode.BAR_ARRIVE, Opcode.BAR_WAIT):
            return None
        pos += step
    return None


@dataclass
class Loop:
    """A natural loop identified from a layout backedge."""

    head_idx: int
    tail_idx: int

    def contains_block(self, idx: int) -> bool:
        return self.head_idx <= idx <= self.tail_idx


def find_loops(program: Program) -> list[Loop]:
    """Loops from backedges (branch to an earlier block in layout)."""
    return [Loop(h, t) for h, t in layout_backedges(program.blocks)]


def innermost_loop(program: Program, block_idx: int) -> Loop | None:
    """Smallest loop whose body contains block ``block_idx``."""
    best: Loop | None = None
    for loop in find_loops(program):
        if loop.contains_block(block_idx):
            if best is None or (
                loop.tail_idx - loop.head_idx < best.tail_idx - best.head_idx
            ):
                best = loop
    return best


#: Ring-slot key suffixes: phase k of tile key ``tileN`` becomes
#: ``tileN_<letter>``.  Eight letters bound the ring depth at 8, the
#: deepest circular schedule observed in production kernels.
PHASE_SUFFIXES = "ABCDEFGH"

MAX_PIPELINE_DEPTH = len(PHASE_SUFFIXES)


def phase_suffix(phase: int) -> str:
    """Tile-key suffix for ring slot ``phase`` (``_A`` .. ``_H``)."""
    return f"_{PHASE_SUFFIXES[phase]}"


def copy_suffix(phase: int) -> str:
    """Label/buffer suffix for ring slot ``phase``.

    Slot 0 is the original (no suffix); slot 1 keeps the historical
    ``__db`` double-buffer suffix; deeper slots are ``__db2``.. so the
    strip rule everywhere stays ``__db\\d*``.
    """
    if phase <= 0:
        return ""
    if phase == 1:
        return "__db"
    return f"__db{phase}"


def apply_double_buffering(
    program: Program, smem_capacity_words: int
) -> list[str]:
    """Classic double buffering: :func:`apply_circular_buffering` at 2."""
    return apply_circular_buffering(program, smem_capacity_words, depth=2)


def apply_circular_buffering(
    program: Program, smem_capacity_words: int, depth: int = 2
) -> list[str]:
    """Ring-buffer every transformable tile loop; returns new keys.

    For each loop containing tagged tile sync pairs: verify every tile's
    LDGSTS names a known SMEM buffer, the replicated buffers fit in
    ``smem_capacity_words``, and the loop's backedge is guarded with a
    fall-through exit.  The loop is unrolled ``depth`` times; copy 0
    keeps tags re-keyed to ``<key>_A`` and copy ``k`` gets the *k*-th
    phase letter plus SMEM addresses shifted into its ring slot.  Loops
    failing the checks keep single buffering.
    """
    if not 2 <= depth <= MAX_PIPELINE_DEPTH:
        raise ValueError(
            f"pipeline depth must be in [2, {MAX_PIPELINE_DEPTH}], "
            f"got {depth}"
        )
    block_of_uid = {
        instr.uid: idx
        for idx, blk in enumerate(program.blocks)
        for instr in blk.instructions
    }
    loops_to_keys: dict[tuple[int, int], list[str]] = {}
    key_buffers: dict[str, set[str]] = {}
    for instr in program.instructions():
        key = instr.attrs.get("tile_key")
        if instr.opcode is not Opcode.LDGSTS or key is None:
            continue
        loop = innermost_loop(program, block_of_uid[instr.uid])
        if loop is None:
            continue
        loops_to_keys.setdefault((loop.head_idx, loop.tail_idx), []).append(key)
        key_buffers.setdefault(key, set()).add(
            instr.attrs.get("smem_buffer") or ""
        )

    transformed: list[str] = []
    # Process innermost-last so indices stay valid: transform from the
    # bottom of the layout upward.
    for (head_idx, tail_idx), keys in sorted(
        loops_to_keys.items(), reverse=True
    ):
        keys = sorted(set(keys))
        buffers: set[str] = set()
        for key in keys:
            names = key_buffers[key]
            if "" in names:
                buffers = set()
                break
            buffers.update(names)
        if not buffers or any(
            name not in program.smem_buffers for name in buffers
        ):
            continue
        extra = sum(program.smem_buffers[name][1] for name in buffers)
        if program.smem_words + extra * (depth - 1) > smem_capacity_words:
            continue
        loop = Loop(head_idx=head_idx, tail_idx=tail_idx)
        if _unroll_circular(program, loop, keys, sorted(buffers), depth):
            transformed.extend(keys)
    return transformed


def _unroll_circular(
    program: Program,
    loop: Loop,
    keys: list[str],
    buffers: list[str],
    depth: int,
) -> bool:
    tail = program.blocks[loop.tail_idx]
    backedge = tail.terminator
    if backedge is None or backedge.opcode is not Opcode.BRA:
        return False
    if backedge.guard is None:
        return False  # loop never exits by fall-through; unsupported
    if loop.tail_idx + 1 >= len(program.blocks):
        return False  # no fall-through exit block

    body = program.blocks[loop.head_idx : loop.tail_idx + 1]
    exit_label = program.blocks[loop.tail_idx + 1].label
    body_labels = {b.label for b in body}
    key_set = set(keys)

    buffer_set = set(buffers)
    for blk in body:
        for instr in blk.instructions:
            _suffix_tile_keys(instr, key_set, phase_suffix(0))
            _tag_phase(instr, buffer_set, 0)

    # Pre-assign every replica's buffer location at the end of SMEM so
    # address shifts are exact even when other allocations follow the
    # buffer.  Layout: all of slot 1's buffers, then slot 2's, ...
    shifts: dict[int, dict[str, int]] = {}
    copy_base = program.smem_words
    for phase in range(1, depth):
        per_phase: dict[str, int] = {}
        for name in buffers:
            orig_base, words = program.smem_buffers[name]
            per_phase[name] = copy_base - orig_base
            copy_base += words
        shifts[phase] = per_phase
    next_reg = [program.max_register_index() + 1]
    copy_blocks: list[BasicBlock] = []
    phase_backedges: list[Instruction] = []
    keys_a = {f"{k}{phase_suffix(0)}" for k in keys}
    for phase in range(1, depth):
        suffix = copy_suffix(phase)
        for blk in body:
            new_blk = BasicBlock(f"{blk.label}{suffix}")
            for instr in blk.instructions:
                clone = instr.clone()
                _rekey_phase(clone, keys_a, phase)
                _tag_phase(clone, buffer_set, phase)
                if clone.opcode is Opcode.BRA and clone.target in body_labels:
                    clone.target = f"{clone.target}{suffix}"
                _apply_buffer_offset(new_blk, clone, shifts[phase], next_reg)
                new_blk.instructions.append(clone)
            copy_blocks.append(new_blk)
        terminator = copy_blocks[-1].terminator
        assert terminator is not None
        phase_backedges.append(terminator)

    # Rewire: every copy except the last exits the ring when the trip
    # count is done and otherwise falls through into the next slot's
    # copy; the final copy's backedge returns to slot 0.
    head_label = program.blocks[loop.head_idx].label
    backedge.guard_negated = not backedge.guard_negated
    backedge.target = exit_label
    for terminator in phase_backedges[:-1]:
        terminator.guard_negated = not terminator.guard_negated
        terminator.target = exit_label
    phase_backedges[-1].target = head_label

    insert_at = loop.tail_idx + 1
    program.blocks[insert_at:insert_at] = copy_blocks
    for phase in range(1, depth):
        for name in buffers:
            base = program.smem_words
            words = program.smem_buffers[name][1]
            program.smem_buffers[f"{name}{copy_suffix(phase)}"] = (base, words)
            program.smem_words = base + words
    return True


def _suffix_tile_keys(
    instr: Instruction, keys: set[str], suffix: str
) -> None:
    if instr.attrs.get("tile_key") in keys:
        instr.attrs["tile_key"] = instr.attrs["tile_key"] + suffix
    roles = instr.attrs.get("tile_roles")
    if roles:
        instr.attrs["tile_roles"] = [
            (role, key + suffix if key in keys else key)
            for role, key in roles
        ]


def _tag_phase(
    instr: Instruction, buffers: set[str], phase: int
) -> None:
    """Record which circular-buffer phase (ring slot) an access targets.

    The happens-before race engine reads ``attrs['smem_phase']`` to
    prove accesses to different ring slots phase-disjoint even when the
    address is computed in a register.
    """
    if instr.attrs.get("smem_buffer") in buffers:
        instr.attrs["smem_phase"] = phase


def _rekey_phase(
    instr: Instruction, keys_a: set[str], phase: int
) -> None:
    """Re-key a cloned slot-0 (``_A``) tile key to ring slot ``phase``."""

    def swap(key: str) -> str:
        return key[:-2] + phase_suffix(phase) if key in keys_a else key

    if instr.attrs.get("tile_key") in keys_a:
        instr.attrs["tile_key"] = swap(instr.attrs["tile_key"])
    roles = instr.attrs.get("tile_roles")
    if roles:
        instr.attrs["tile_roles"] = [
            (role, swap(key)) for role, key in roles
        ]


_SMEM_ADDR_POS = {Opcode.LDS: 0, Opcode.STS: 0, Opcode.LDGSTS: 1}


def _apply_buffer_offset(
    block: BasicBlock,
    instr: Instruction,
    shifts: dict[str, int],
    next_reg: list[int],
) -> None:
    """Shift a copy-B instruction's SMEM address into its doubled copy."""
    buffer_name = instr.attrs.get("smem_buffer")
    if buffer_name not in shifts:
        return
    pos = _SMEM_ADDR_POS.get(instr.opcode)
    if pos is None:
        return
    shift = shifts[buffer_name]
    addr = instr.srcs[pos]
    if isinstance(addr, Immediate):
        instr.srcs[pos] = Immediate(addr.value + shift)
        return
    shifted = Register(next_reg[0])
    next_reg[0] += 1
    block.instructions.append(
        Instruction(
            Opcode.IADD,
            dst=shifted,
            srcs=[addr, Immediate(shift)],
            guard=instr.guard,
            guard_negated=instr.guard_negated,
        )
    )
    instr.srcs[pos] = shifted

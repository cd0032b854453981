"""Property-based round-trip tests for the ISA JSON serializer.

Satellite requirement: seeded stdlib ``random`` only (no third-party
property-testing dependency).  The properties:

* ``decode(encode(v))`` is structurally equal to ``v``;
* ``encode(decode(doc)) == doc`` — encoding is idempotent, so stored
  documents never drift when rewritten.

Random instances cover every operand kind and every opcode (with the
structural requirements — branch targets, barrier ids — satisfied).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import IsaError
from repro.fuzz.generator import build_kernel
from repro.fuzz.spec import generate_spec
from repro.core.compiler import WaspCompiler, WaspCompilerOptions
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, opcode_info
from repro.isa.operands import (
    Immediate,
    Predicate,
    QueueRef,
    Register,
    SpecialReg,
    SpecialRegister,
)
from repro.isa.serialize import (
    canonical_program_doc,
    decode_instruction,
    decode_operand,
    decode_program,
    encode_instruction,
    encode_operand,
    encode_program,
)

NUM_CASES = 200


def random_operand(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return Register(rng.randrange(256))
    if kind == 1:
        return Predicate(rng.randrange(8))
    if kind == 2:
        if rng.random() < 0.5:
            return Immediate(rng.randint(-(2 ** 31), 2 ** 31))
        return Immediate(rng.choice([0.0, -1.5, 0.5, 3.25, 1e30]))
    if kind == 3:
        return QueueRef(rng.randrange(8))
    return SpecialRegister(rng.choice(list(SpecialReg)))


def random_instruction(rng: random.Random) -> Instruction:
    opcode = rng.choice(list(Opcode))
    info = opcode_info(opcode)
    kwargs = {}
    if info.is_branch:
        kwargs["target"] = f"L{rng.randrange(16)}"
    if info.is_barrier:
        kwargs["barrier_id"] = f"bar{rng.randrange(4)}"
    if rng.random() < 0.3:
        kwargs["guard"] = Predicate(rng.randrange(8))
        kwargs["guard_negated"] = rng.random() < 0.5
    if rng.random() < 0.25:
        kwargs["attrs"] = {
            "buffer": f"buf{rng.randrange(3)}",
            "vec_stride": rng.randrange(1, 64),
        }
    return Instruction(
        opcode=opcode,
        dst=random_operand(rng) if rng.random() < 0.8 else None,
        srcs=[random_operand(rng) for _ in range(rng.randrange(4))],
        **kwargs,
    )


def test_operand_round_trip_random():
    rng = random.Random(0xC0FFEE)
    for _ in range(NUM_CASES):
        op = random_operand(rng)
        doc = encode_operand(op)
        assert decode_operand(doc) == op
        assert encode_operand(decode_operand(doc)) == doc
        # Survives an actual JSON text round trip too.
        assert decode_operand(json.loads(json.dumps(doc))) == op


def test_none_operand_round_trips():
    assert encode_operand(None) is None
    assert decode_operand(None) is None


def test_instruction_round_trip_random():
    rng = random.Random(0xDECADE)
    for _ in range(NUM_CASES):
        instr = random_instruction(rng)
        doc = encode_instruction(instr)
        back = decode_instruction(json.loads(json.dumps(doc)))
        assert back.opcode is instr.opcode
        assert back.dst == instr.dst
        assert back.srcs == instr.srcs
        assert back.guard == instr.guard
        assert back.guard_negated == instr.guard_negated
        assert back.target == instr.target
        assert back.barrier_id == instr.barrier_id
        assert back.attrs == instr.attrs
        assert back.category is instr.category
        # encode∘decode is the identity on documents.
        assert encode_instruction(back) == doc


def test_instruction_encoding_omits_defaults():
    doc = encode_instruction(
        Instruction(Opcode.IADD, dst=Register(0),
                    srcs=[Register(1), Immediate(2)])
    )
    assert set(doc) == {"opcode", "dst", "srcs"}


def test_decode_rejects_unknown_operand_kind():
    with pytest.raises(IsaError, match="unknown operand kind"):
        decode_operand({"kind": "banana"})


def test_decode_rejects_non_numeric_immediate():
    with pytest.raises(IsaError, match="not a number"):
        decode_operand({"kind": "imm", "value": "7"})


def test_decode_rejects_non_predicate_guard():
    doc = encode_instruction(
        Instruction(Opcode.IADD, dst=Register(0), srcs=[Register(1)])
    )
    doc["guard"] = {"kind": "reg", "index": 3}
    with pytest.raises(IsaError, match="guard must be a predicate"):
        decode_instruction(doc)


def test_program_round_trip_generated_kernels():
    """Whole generated programs — baseline and warp-specialized —
    survive encode→decode→encode with canonical documents intact."""
    for seed in range(12):
        kernel = build_kernel(generate_spec(seed))
        result = WaspCompiler(WaspCompilerOptions()).compile(
            kernel.program, num_warps=kernel.launch.num_warps
        )
        programs = [kernel.program]
        if result.specialized:
            programs.append(result.program)
        for program in programs:
            doc = encode_program(program)
            back = decode_program(json.loads(json.dumps(doc)))
            assert (canonical_program_doc(back)
                    == canonical_program_doc(program))
            assert encode_program(back) == doc


def test_program_round_trip_preserves_tb_spec():
    kernel = build_kernel(generate_spec(2))
    result = WaspCompiler(WaspCompilerOptions()).compile(
        kernel.program, num_warps=kernel.launch.num_warps
    )
    assert result.specialized
    back = decode_program(encode_program(result.program))
    spec, orig = back.tb_spec, result.program.tb_spec
    assert spec.num_stages == orig.num_stages
    assert spec.warps_per_stage == orig.warps_per_stage
    assert spec.stage_registers == orig.stage_registers
    assert [
        (q.queue_id, q.src_stage, q.dst_stage, q.size) for q in spec.queues
    ] == [
        (q.queue_id, q.src_stage, q.dst_stage, q.size) for q in orig.queues
    ]
    assert spec.barrier_expected == orig.barrier_expected
    assert spec.barrier_initial == orig.barrier_initial


def test_program_round_trip_deep_pipeline():
    """A deep circular-buffer program (8-slot ring, per-slot phase
    barriers and ``__db{k}`` buffer copies) survives the round trip
    with its canonical document and ring metadata intact."""
    kernel = build_kernel(generate_spec(5))  # every sixth seed is deep
    result = WaspCompiler(
        WaspCompilerOptions(pipeline_depth=8, enable_tma_offload=False)
    ).compile(kernel.program, num_warps=kernel.launch.num_warps)
    assert result.specialized
    doc = encode_program(result.program)
    back = decode_program(json.loads(json.dumps(doc)))
    assert canonical_program_doc(back) == canonical_program_doc(
        result.program
    )
    assert encode_program(back) == doc
    # The per-slot ring state is part of the round trip: all eight
    # phase-letter empty barriers and the slot-1..7 buffer copies.
    empties = {b for b in back.tb_spec.barrier_expected
               if b.endswith("_empty")}
    assert {f"tile0_{letter}_empty" for letter in "ABCDEFGH"} <= empties
    assert back.tb_spec.barrier_initial == result.program.tb_spec.barrier_initial
    copies = {name for name in back.smem_buffers if "__db" in name}
    assert len(copies) >= 7


def test_decode_rejects_wrong_version():
    doc = encode_program(build_kernel(generate_spec(0)).program)
    doc["version"] = 999
    with pytest.raises(IsaError, match="version"):
        decode_program(doc)

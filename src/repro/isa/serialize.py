"""JSON encode/decode for ISA programs, instructions and operands.

This module encodes a program as a plain-JSON document from which the
exact program structure can be rebuilt.  It exists so fuzz corpus
entries, cached compiler outputs and cross-process tooling can move
programs around without pickling.

:func:`program_digest` is the one program hash.  It covers everything
an analysis or the functional machine can read — name and thread-block
spec included — with the compiler's uid-derived ``key`` attrs
renumbered so the digest depends only on content.  Translation
validation memoizes certificates on it, the trace cache keys traces on
it (through :func:`~repro.workloads.base.execution_digest`), and
``tests/test_compile_identity.py`` pins compiles by the same
:func:`canonical_program_doc`.

Round-trip contract (pinned by ``tests/test_isa_serialize.py``):

* ``decode_x(encode_x(v))`` is structurally equal to ``v`` (operands
  compare by value; instructions by everything except ``uid``, which is
  intentionally regenerated like :meth:`Instruction.clone`);
* ``encode_x(decode_x(doc)) == doc`` — encoding is idempotent, so a
  document can be re-encoded endlessly without drift (all containers
  are normalized to JSON-native types on the way out).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.core.compiler.stagesplit import KEY_ATTR
from repro.core.specs import NamedQueueSpec, ThreadBlockSpec
from repro.errors import IsaError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrCategory, Opcode
from repro.isa.operands import (
    Immediate,
    Operand,
    Predicate,
    QueueRef,
    Register,
    SpecialReg,
    SpecialRegister,
)
from repro.isa.program import Program

#: Bumped on breaking changes to the document layout.
FORMAT_VERSION = 1


def _jsonify(value: Any) -> Any:
    """Normalize to JSON-native types (tuples become lists)."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


# -- operands ---------------------------------------------------------------


def encode_operand(op: Operand | None) -> dict[str, Any] | None:
    if op is None:
        return None
    if isinstance(op, Register):
        return {"kind": "reg", "index": op.index}
    if isinstance(op, Predicate):
        return {"kind": "pred", "index": op.index}
    if isinstance(op, Immediate):
        return {"kind": "imm", "value": op.value}
    if isinstance(op, QueueRef):
        return {"kind": "queue", "queue_id": op.queue_id}
    if isinstance(op, SpecialRegister):
        return {"kind": "special", "which": op.which.name}
    raise IsaError(f"cannot encode operand {op!r}")


def decode_operand(doc: dict[str, Any] | None) -> Operand | None:
    if doc is None:
        return None
    kind = doc["kind"]
    if kind == "reg":
        return Register(int(doc["index"]))
    if kind == "pred":
        return Predicate(int(doc["index"]))
    if kind == "imm":
        value = doc["value"]
        if not isinstance(value, (int, float)):
            raise IsaError(f"immediate value {value!r} is not a number")
        return Immediate(value)
    if kind == "queue":
        return QueueRef(int(doc["queue_id"]))
    if kind == "special":
        return SpecialRegister(SpecialReg[doc["which"]])
    raise IsaError(f"unknown operand kind {kind!r}")


# -- instructions -----------------------------------------------------------


def encode_instruction(instr: Instruction) -> dict[str, Any]:
    """Everything but ``uid``, which is per-process identity."""
    doc: dict[str, Any] = {
        "opcode": instr.opcode.name,
        "dst": encode_operand(instr.dst),
        "srcs": [encode_operand(s) for s in instr.srcs],
    }
    # Optional fields appear only when set, keeping documents tight and
    # idempotence trivially visible.
    if instr.guard is not None:
        doc["guard"] = encode_operand(instr.guard)
        doc["guard_negated"] = instr.guard_negated
    if instr.target is not None:
        doc["target"] = instr.target
    if instr.barrier_id is not None:
        doc["barrier_id"] = instr.barrier_id
    if instr.attrs:
        doc["attrs"] = _jsonify(instr.attrs)
    if instr.category is not None and instr.category is not instr.info.category:
        doc["category"] = instr.category.name
    return doc


def decode_instruction(doc: dict[str, Any]) -> Instruction:
    guard = decode_operand(doc.get("guard"))
    if guard is not None and not isinstance(guard, Predicate):
        raise IsaError(f"guard must be a predicate, got {guard!r}")
    category = doc.get("category")
    return Instruction(
        opcode=Opcode[doc["opcode"]],
        dst=decode_operand(doc.get("dst")),
        srcs=[decode_operand(s) for s in doc.get("srcs", [])],
        guard=guard,
        guard_negated=bool(doc.get("guard_negated", False)),
        target=doc.get("target"),
        barrier_id=doc.get("barrier_id"),
        attrs=dict(doc.get("attrs", {})),
        category=InstrCategory[category] if category else None,
    )


# -- thread-block spec ------------------------------------------------------


def encode_tb_spec(spec: ThreadBlockSpec | None) -> dict[str, Any] | None:
    if spec is None:
        return None
    return {
        "num_stages": spec.num_stages,
        "warps_per_stage": _jsonify(spec.warps_per_stage),
        "stage_registers": list(spec.stage_registers),
        "queues": [
            {
                "queue_id": q.queue_id,
                "src_stage": q.src_stage,
                "dst_stage": q.dst_stage,
                "size": q.size,
            }
            for q in spec.queues
        ],
        "smem_words": spec.smem_words,
        "barrier_expected": dict(spec.barrier_expected),
        "barrier_initial": dict(spec.barrier_initial),
    }


def decode_tb_spec(doc: dict[str, Any] | None) -> ThreadBlockSpec | None:
    if doc is None:
        return None
    return ThreadBlockSpec(
        num_stages=int(doc["num_stages"]),
        warps_per_stage=[list(ws) for ws in doc["warps_per_stage"]],
        stage_registers=list(doc["stage_registers"]),
        queues=[
            NamedQueueSpec(
                queue_id=int(q["queue_id"]),
                src_stage=int(q["src_stage"]),
                dst_stage=int(q["dst_stage"]),
                size=int(q["size"]),
            )
            for q in doc.get("queues", [])
        ],
        smem_words=int(doc.get("smem_words", 0)),
        barrier_expected=dict(doc.get("barrier_expected", {})),
        barrier_initial=dict(doc.get("barrier_initial", {})),
    )


# -- programs ---------------------------------------------------------------


def encode_program(program: Program) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "name": program.name,
        "smem_words": program.smem_words,
        "num_registers": program.num_registers,
        "smem_buffers": {
            name: list(extent)
            for name, extent in program.smem_buffers.items()
        },
        "tb_spec": encode_tb_spec(program.tb_spec),
        "blocks": [
            {
                "label": blk.label,
                "instructions": [
                    encode_instruction(i) for i in blk.instructions
                ],
            }
            for blk in program.blocks
        ],
    }


def decode_program(doc: dict[str, Any]) -> Program:
    version = doc.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise IsaError(
            f"program document version {version} != {FORMAT_VERSION}"
        )
    program = Program(
        name=doc["name"],
        smem_words=int(doc.get("smem_words", 0)),
        num_registers=doc.get("num_registers"),
        tb_spec=decode_tb_spec(doc.get("tb_spec")),
        smem_buffers={
            name: (int(extent[0]), int(extent[1]))
            for name, extent in doc.get("smem_buffers", {}).items()
        },
    )
    for blk_doc in doc.get("blocks", []):
        blk = program.block(blk_doc["label"])
        for instr_doc in blk_doc.get("instructions", []):
            blk.append(decode_instruction(instr_doc))
    return program


def canonical_program_doc(program: Program) -> dict[str, Any]:
    """:func:`encode_program` with each ``key`` attr renumbered.

    The ``key`` attr every stage instruction carries is the uid of the
    working-program instruction it came from.  Uids come from a
    process-global counter, so each distinct key is renumbered by first
    appearance: the document is independent of what the process built
    before while still recording which instructions share an origin.
    """
    doc = encode_program(program)
    numbers: dict[object, int] = {}
    for block in doc["blocks"]:
        for instr in block["instructions"]:
            attrs = instr.get("attrs")
            if attrs and KEY_ATTR in attrs:
                attrs[KEY_ATTR] = numbers.setdefault(
                    attrs[KEY_ATTR], len(numbers)
                )
    return doc


def program_digest(program: Program) -> str:
    """SHA-256 hex digest of :func:`canonical_program_doc`'s compact JSON."""
    text = json.dumps(
        canonical_program_doc(program), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def program_snapshot(program: Program) -> tuple:
    """A value copy of every field :func:`program_digest` covers.

    Two snapshots of one program compare equal only if no such field
    changed in between, so an equal snapshot means an unchanged digest,
    at a small fraction of the digest's cost.  Operands are immutable
    and compare by value, except that an immediate also records its
    value's type (``2 == 2.0``, but the digest tells them apart).
    ``attrs`` are free-form, so each of their values records its type
    and containers are copied.  The snapshot is stricter than the
    digest where that is cheaper (``key`` attrs are not renumbered,
    dict order counts), which only costs a re-hash.
    """
    return (
        program.name,
        program.smem_words,
        program.num_registers,
        _frozen(program.smem_buffers),
        encode_tb_spec(program.tb_spec),
        tuple(
            (block.label, tuple(
                (
                    instr.opcode,
                    instr.dst,
                    tuple([
                        (src.value.__class__, src)
                        if src.__class__ is Immediate else src
                        for src in instr.srcs
                    ]),
                    instr.guard,
                    instr.guard_negated,
                    instr.target,
                    instr.barrier_id,
                    instr.category,
                    _frozen(instr.attrs) if instr.attrs else None,
                )
                for instr in block.instructions
            ))
            for block in program.blocks
        ),
    )


def _frozen(value: Any) -> Any:
    """``value`` as nested tuples, each leaf paired with its type."""
    if isinstance(value, dict):
        return (dict, tuple((k, _frozen(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (list, tuple(_frozen(v) for v in value))
    return (value.__class__, value)

"""Dynamic instruction traces.

The functional executor resolves control flow, addresses and queue
traffic, and emits one :class:`DynamicInstr` per executed instruction per
warp.  The timing simulator replays these streams, re-enforcing register,
queue and barrier dependences at cycle granularity.

Register identifiers in traces are flat integers: architectural register
``Ri`` maps to ``i`` and predicate ``Pi`` to ``PRED_BASE + i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, cast

from repro.isa.opcodes import FuncUnit, InstrCategory, Opcode

if TYPE_CHECKING:
    from repro.core.specs import ThreadBlockSpec

PRED_BASE = 1 << 16


@dataclass(frozen=True, slots=True)
class TmaJob:
    """The offload job a TMA configuration record hands the engine.

    One warp-wide vector request per entry of ``vector_sectors``, in
    issue order.  A gather (paper Section III-E, Figure 8c) is
    two-phase: ``vector_sectors`` are its index fetches and
    ``data_vector_sectors`` the dependent data fetches; every other
    mode has ``data_vector_sectors`` ``None``.

    Attributes:
        mode: ``'tile'``, ``'stream'`` or ``'gather'``.
        queue: Queue id the engine pushes one entry per vector into,
            or ``None`` (an SMEM destination).
        barrier: Barrier the job arrives on at completion, or ``None``.
        vector_sectors: Phase-1 global sectors, one tuple per vector.
        data_vector_sectors: Gather phase-2 sectors, one per vector.
        smem_words: Shared-memory words the job writes.

    Derived once: ``num_vectors``, ``total_sectors`` (both phases) and
    ``smem_words_per_vector`` (at least 1 when the job writes SMEM).
    """

    mode: str
    queue: int | None
    barrier: str | None
    vector_sectors: tuple[tuple[int, ...], ...]
    data_vector_sectors: tuple[tuple[int, ...], ...] | None
    smem_words: int
    num_vectors: int = field(init=False, compare=False)
    total_sectors: int = field(init=False, compare=False)
    smem_words_per_vector: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        vectors = len(self.vector_sectors)
        total = sum(map(len, self.vector_sectors))
        total += sum(map(len, self.data_vector_sectors or ()))
        per_vector = 0
        if self.smem_words and vectors:
            per_vector = max(1, self.smem_words // vectors)
        object.__setattr__(self, "num_vectors", vectors)
        object.__setattr__(self, "total_sectors", total)
        object.__setattr__(self, "smem_words_per_vector", per_vector)


@dataclass(slots=True)
class DynamicInstr:
    """One executed instruction in a warp's dynamic stream.

    Attributes:
        opcode: The executed opcode.
        unit: Functional unit (drives latency/throughput in the sim).
        category: Figure-19 category tag carried over from the static
            instruction (possibly refined by the compiler).
        dst_regs: Flat ids of registers/predicates written.
        src_regs: Flat ids of registers/predicates read (incl. guard).
        queue_push: Queue id pushed to, or ``None``.
        queue_pop: Queue id popped from, or ``None``.
        barrier_id: Barrier name for BAR.* instructions.
        sectors: Distinct global-memory sector ids touched (loads/stores).
        is_store: True for global stores (no register writeback to wait on).
        smem_words: Shared-memory words moved (SMEM bandwidth model).
        tma_job: Offload job of a TMA configuration instruction.

    Records are never mutated once emitted: the functional machine
    appends one shared record for every execution of an instruction
    whose record has no per-execution field.
    """

    opcode: Opcode
    unit: FuncUnit
    category: InstrCategory
    dst_regs: tuple[int, ...] = ()
    src_regs: tuple[int, ...] = ()
    queue_push: int | None = None
    queue_pop: int | None = None
    barrier_id: str | None = None
    sectors: tuple[int, ...] = ()
    is_store: bool = False
    smem_words: int = 0
    tma_job: TmaJob | None = None


@dataclass
class WarpTrace:
    """The ordered dynamic stream of one warp, plus summary counters."""

    warp_id: int
    pipe_stage_id: int
    instrs: list[DynamicInstr] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instrs)

    def count_by_category(self) -> dict[InstrCategory, int]:
        counts: dict[InstrCategory, int] = {}
        for instr in self.instrs:
            counts[instr.category] = counts.get(instr.category, 0) + 1
        return counts

    def total_sectors(self) -> int:
        total = sum(len(i.sectors) for i in self.instrs)
        for instr in self.instrs:
            if instr.tma_job is not None:
                total += instr.tma_job.total_sectors
        return total


@dataclass
class KernelTrace:
    """All warp traces of one thread block execution.

    ``queue_lengths`` records how many entries flowed through each named
    queue (used for sanity checks and reporting); ``barrier_arrivals``
    counts arrive events per barrier.
    """

    kernel_name: str
    num_warps: int
    warp_width: int
    warps: list[WarpTrace] = field(default_factory=list)
    queue_lengths: dict[int, int] = field(default_factory=dict)
    barrier_arrivals: dict[str, int] = field(default_factory=dict)
    tb_spec: object | None = None
    program_registers: int = 0
    smem_words: int = 0

    def total_instructions(self) -> int:
        return sum(len(w) for w in self.warps)

    def count_by_category(self) -> dict[InstrCategory, int]:
        counts: dict[InstrCategory, int] = {}
        for warp in self.warps:
            for category, count in warp.count_by_category().items():
                counts[category] = counts.get(category, 0) + count
        return counts


# -- serialization ----------------------------------------------------------
#
# Traces persist across processes in the content-addressed cache
# (``repro.fexec.trace_store``).  The format is deliberately primitive —
# JSON-compatible lists/dicts with enums stored by value — so payloads
# stay readable and survive refactors of the dataclasses above.  Each
# record encodes as one positional row (``_encode_instr``/
# ``_decode_instr``), in two framings:
#
# * :func:`encode_traces` writes a row for every dynamic instruction.
#   It is the canonical form trace digests hash; nothing decodes it.
# * :func:`encode_trace_table` (trace format 2, the store's framing)
#   writes each distinct record once, in a table shared by every
#   thread-block trace of the list, and each warp as a list of table
#   indices.  :func:`decode_trace_table` decodes each row once, so warps
#   share record objects exactly as the functional machine emitted
#   them.
#
# Bump ``TRACE_FORMAT_VERSION`` whenever the store framing, the row
# encoding or the semantics of trace generation change; stale files are
# then regenerated instead of misread.

TRACE_FORMAT_VERSION = 2

_OPCODES = {m.value: m for m in Opcode}
_UNITS = {m.value: m for m in FuncUnit}
_CATEGORIES = {m.value: m for m in InstrCategory}


def encode_traces(traces: list[KernelTrace]) -> list[dict[str, Any]]:
    """Encode kernel traces as JSON-compatible primitives.

    Tuples stand in for JSON arrays (``json`` emits both alike).  A
    record shared by several dynamic instructions is encoded once.
    """
    rows: dict[int, list[Any]] = {}
    return [
        _encode_kernel_trace(
            t, lambda instrs: [_encode_instr(i, rows) for i in instrs]
        )
        for t in traces
    ]


def encode_trace_table(traces: list[KernelTrace]) -> dict[str, Any]:
    """Encode kernel traces as one record table plus index lists.

    The table holds each distinct record object once, in first-use
    order; each warp's ``instrs`` lists table indices.
    """
    index: dict[int, int] = {}
    rows: dict[int, list[Any]] = {}
    records: list[list[Any]] = []

    def indices(instrs: list[DynamicInstr]) -> list[int]:
        ids = list(map(id, instrs))
        for key, record in dict(zip(ids, instrs)).items():
            if key not in index:
                index[key] = len(records)
                records.append(_encode_instr(record, rows))
        return list(map(index.__getitem__, ids))

    kernels = [_encode_kernel_trace(t, indices) for t in traces]
    return {"records": records, "kernels": kernels}


def decode_trace_table(data: dict[str, Any]) -> list[KernelTrace]:
    """Rebuild kernel traces from :func:`encode_trace_table` output.

    Raises ``KeyError``/``IndexError``/``ValueError``/``TypeError`` on
    malformed payloads; callers treat any failure as a cache miss.
    """
    records = [_decode_instr(row) for row in data["records"]]
    return [_decode_kernel_trace(t, records) for t in data["kernels"]]


def _encode_kernel_trace(
    trace: KernelTrace,
    encode_instrs: Callable[[list[DynamicInstr]], list[Any]],
) -> dict[str, Any]:
    return {
        "kernel_name": trace.kernel_name,
        "num_warps": trace.num_warps,
        "warp_width": trace.warp_width,
        "warps": [
            {
                "warp_id": w.warp_id,
                "pipe_stage_id": w.pipe_stage_id,
                "instrs": encode_instrs(w.instrs),
            }
            for w in trace.warps
        ],
        "queue_lengths": {str(k): v for k, v in trace.queue_lengths.items()},
        "barrier_arrivals": dict(trace.barrier_arrivals),
        "tb_spec": _encode_tb_spec(trace.tb_spec),
        "program_registers": trace.program_registers,
        "smem_words": trace.smem_words,
    }


def _decode_kernel_trace(
    data: dict[str, Any], records: list[DynamicInstr]
) -> KernelTrace:
    return KernelTrace(
        kernel_name=data["kernel_name"],
        num_warps=data["num_warps"],
        warp_width=data["warp_width"],
        warps=[
            WarpTrace(
                warp_id=w["warp_id"],
                pipe_stage_id=w["pipe_stage_id"],
                instrs=_records_at(records, w["instrs"]),
            )
            for w in data["warps"]
        ],
        queue_lengths={int(k): v for k, v in data["queue_lengths"].items()},
        barrier_arrivals=dict(data["barrier_arrivals"]),
        tb_spec=_decode_tb_spec(data["tb_spec"]),
        program_registers=data["program_registers"],
        smem_words=data["smem_words"],
    )


def _records_at(
    records: list[DynamicInstr], indices: list[int]
) -> list[DynamicInstr]:
    found = list(map(records.__getitem__, indices))
    # A negative index would quietly pick a record from the table's end.
    if found and min(indices) < 0:
        raise IndexError("negative record index")
    return found


def _encode_instr(
    instr: DynamicInstr, rows: dict[int, list[Any]]
) -> list[Any]:
    # Positional encoding keeps large payloads compact.  ``rows`` is
    # keyed by identity, which is sound only while ``instr`` is alive:
    # every key belongs to a trace of the one ``encode_traces`` call.
    row = rows.get(id(instr))
    if row is None:
        row = rows[id(instr)] = [
            instr.opcode.value,
            instr.unit.value,
            instr.category.value,
            instr.dst_regs,
            instr.src_regs,
            instr.queue_push,
            instr.queue_pop,
            instr.barrier_id,
            instr.sectors,
            int(instr.is_store),
            instr.smem_words,
            None if instr.tma_job is None else _encode_tma_job(instr.tma_job),
        ]
    return row


def _decode_instr(data: list[Any]) -> DynamicInstr:
    (opcode, unit, category, dst_regs, src_regs, queue_push, queue_pop,
     barrier_id, sectors, is_store, smem_words, tma_job) = data
    return DynamicInstr(
        _OPCODES[opcode],
        _UNITS[unit],
        _CATEGORIES[category],
        tuple(dst_regs),
        tuple(src_regs),
        queue_push,
        queue_pop,
        barrier_id,
        tuple(sectors),
        bool(is_store),
        smem_words,
        None if tma_job is None else _decode_tma_job(tma_job),
    )


def _encode_tma_job(job: TmaJob) -> dict[str, Any]:
    # The key order is the row format: store entries and trace digests
    # depend on it.  Sector tuples encode as arrays.
    row: dict[str, Any] = {
        "mode": job.mode,
        "num_vectors": job.num_vectors,
        "vector_sectors": job.vector_sectors,
    }
    if job.data_vector_sectors is not None:
        row["data_vector_sectors"] = job.data_vector_sectors
    row["total_sectors"] = job.total_sectors
    row["smem_words"] = job.smem_words
    row["barrier"] = job.barrier
    row["queue"] = job.queue
    return row


def _decode_tma_job(row: dict[str, Any]) -> TmaJob:
    data = row.get("data_vector_sectors")
    return TmaJob(
        mode=row["mode"],
        queue=row["queue"],
        barrier=row["barrier"],
        vector_sectors=tuple(map(tuple, row["vector_sectors"])),
        data_vector_sectors=(
            None if data is None else tuple(map(tuple, data))
        ),
        smem_words=row["smem_words"],
    )


def _encode_tb_spec(tb_spec: object | None) -> dict[str, Any] | None:
    if tb_spec is None:
        return None
    spec = cast("ThreadBlockSpec", tb_spec)
    return {
        "num_stages": spec.num_stages,
        "warps_per_stage": [list(ws) for ws in spec.warps_per_stage],
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


def _decode_tb_spec(data: dict[str, Any] | None) -> ThreadBlockSpec | None:
    if data is None:
        return None
    from repro.core.specs import NamedQueueSpec, ThreadBlockSpec

    return ThreadBlockSpec(
        num_stages=data["num_stages"],
        warps_per_stage=[list(ws) for ws in data["warps_per_stage"]],
        stage_registers=list(data["stage_registers"]),
        queues=[
            NamedQueueSpec(
                queue_id=q["queue_id"],
                src_stage=q["src_stage"],
                dst_stage=q["dst_stage"],
                size=q["size"],
            )
            for q in data["queues"]
        ],
        smem_words=data["smem_words"],
        barrier_expected=dict(data["barrier_expected"]),
        barrier_initial=dict(data["barrier_initial"]),
    )

"""Top-level WASP compiler driver (Section IV).

``WaspCompiler.compile`` chains the passes: LDGSTS fusion, sync-pair
tagging, double buffering, PDG construction, stage extraction planning,
stage splitting, WASP-TMA offloading, empty-stage dropping, and
finalization.  Each program version gets at most one dependence graph
(DESIGN.md §1d).  The result carries the warp-specialized program (with
the thread-block specification attached), the untouched original, and a
report used by the evaluation harness.  Coinciding compiles of one
source are answered from the per-source slot
(:mod:`repro.core.compiler.memo`), so a result's program and facts are
shared and read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from repro.core.compiler.buffering import (
    MAX_PIPELINE_DEPTH,
    apply_circular_buffering,
    fuse_ldgsts,
    tag_tile_sync_pairs,
)
from repro.core.compiler.extraction import ExtractionPlan, plan_extraction
from repro.core.compiler.finalize import finalize_pipeline
from repro.core.compiler.memo import SOURCE_SLOT, CompileKeys
from repro.core.compiler.pdg import build_pdg
from repro.core.compiler.stagesplit import (
    StageProgram,
    build_stage_programs,
    tag_keys,
)
from repro.core.compiler.tma_offload import OffloadReport, offload_pipeline
from repro.isa.opcodes import FuncUnit, Opcode
from repro.isa.program import Program
from repro.telemetry.spans import span

if TYPE_CHECKING:
    from repro.analysis.facts import PipelineFacts
    from repro.analysis.transval import ValidationReport

# A100: 192 KB combined L1/SMEM per SM; up to ~164 KB usable as SMEM.
DEFAULT_SMEM_CAPACITY_WORDS = (164 * 1024) // 4


@dataclass(frozen=True)
class WaspCompilerOptions:
    """Knobs matching the paper's compiler configurations.

    ``WASP_COMPILER_TILE`` is ``enable_streaming=False``;
    ``WASP_COMPILER_ALL`` enables everything targeting baseline hardware
    (the simulator then models queue traffic through SMEM); the full
    WASP GPU additionally executes the queues in the register file and
    honours ``enable_tma_offload``.
    """

    enable_streaming: bool = True
    enable_tile: bool = True
    enable_tma_offload: bool = True
    double_buffering: bool = True
    #: Circular-buffer ring depth: how many generations of each tile
    #: buffer live in SMEM at once.  2 is classic double buffering; up
    #: to 8 slots hide full DRAM latency on attention-class pipelines.
    #: Only meaningful when ``double_buffering`` is on.
    pipeline_depth: int = 2
    max_stages: int = 16
    queue_size: int = 32
    smem_capacity_words: int = DEFAULT_SMEM_CAPACITY_WORDS
    #: Run the static pipeline verifier as a post-pass and raise
    #: :class:`repro.errors.VerificationError` on error-severity
    #: findings.  Opt-out: ``repro lint`` disables it to report findings
    #: instead of raising.
    verify: bool = True
    #: Run translation validation after compiling: raise on a
    #: ``not-equivalent`` verdict (WASP-T errors).  Abstention never
    #: raises — it is a coverage statement, surfaced on the result.
    #: Opt-out like ``verify``.
    validate: bool = True

    def __post_init__(self) -> None:
        if not 2 <= self.pipeline_depth <= MAX_PIPELINE_DEPTH:
            raise ValueError(
                f"pipeline_depth must be in [2, {MAX_PIPELINE_DEPTH}], "
                f"got {self.pipeline_depth}"
            )

    def to_json(self) -> dict[str, object]:
        """Plain-data form (the ``repro advise`` report embeds these)."""
        return {
            "enable_streaming": self.enable_streaming,
            "enable_tile": self.enable_tile,
            "enable_tma_offload": self.enable_tma_offload,
            "double_buffering": self.double_buffering,
            "pipeline_depth": self.pipeline_depth,
            "max_stages": self.max_stages,
            "queue_size": self.queue_size,
            "smem_capacity_words": self.smem_capacity_words,
            "verify": self.verify,
            "validate": self.validate,
        }

    @staticmethod
    def from_json(data: dict[str, object]) -> "WaspCompilerOptions":
        """Inverse of :meth:`to_json`; unknown keys are rejected."""
        fields_ = WaspCompilerOptions().to_json().keys()
        unknown = set(data) - set(fields_)
        if unknown:
            raise ValueError(
                f"unknown compiler option(s): {sorted(unknown)}"
            )
        return WaspCompilerOptions(**data)  # type: ignore[arg-type]


def options_delta(
    base: WaspCompilerOptions, other: WaspCompilerOptions
) -> dict[str, object]:
    """The fields where ``other`` differs from ``base``.

    This is what an advisor suggestion is: apply the delta to your
    current options.  Empty dict means "keep what you have".
    """
    left = base.to_json()
    right = other.to_json()
    return {k: right[k] for k in right if right[k] != left[k]}


@dataclass
class CompileResult:
    """Outcome of compiling one kernel.

    ``program``, ``facts``, ``plan`` and ``offload`` are shared with
    the per-source slot and with every later compile that coincides
    with this one: read-only.  A caller that rewrites the program
    clones it first.
    """

    original: Program
    program: Program
    specialized: bool
    plan: ExtractionPlan | None = None
    num_stages: int = 1
    stage_registers: list[int] = field(default_factory=list)
    original_registers: int = 0
    fused_ldgsts: int = 0
    double_buffered: list[str] = field(default_factory=list)
    offload: OffloadReport | None = None
    dropped_stages: int = 0
    reason: str = ""
    #: Static-verifier findings over the compiled program (empty when
    #: verification is disabled or found nothing).
    diagnostics: list = field(default_factory=list)
    #: Translation-validation report (None when validation is disabled
    #: or the compile was not specialized).
    transval: ValidationReport | None = None
    #: Static facts of the specialized program — view, sites, HB solve,
    #: verifier report — shared by every analysis that reads it (None
    #: when the compile was not specialized).
    facts: PipelineFacts | None = None
    #: True when an earlier compile of the same source under the same
    #: compile key answered this one; not serialized.
    reused: bool = field(default=False, compare=False)


class WaspCompiler:
    """Automatic warp specialization for SASS-like kernels.

    ``on_compile`` is the advisory hook: a callable invoked with every
    :class:`CompileResult` this compiler produces (specialized or not).
    The performance-model advisor uses it to observe the pipeline shape
    each candidate option set yields without re-walking compiler
    internals; profiling and CI smoke jobs can attach loggers the same
    way.  Hook exceptions propagate — a broken observer should fail
    loudly, not silently skew advice.
    """

    def __init__(
        self,
        options: WaspCompilerOptions | None = None,
        on_compile: "Callable[[CompileResult], None] | None" = None,
    ) -> None:
        self.options = options or WaspCompilerOptions()
        self.on_compile = on_compile

    def _emit(self, result: CompileResult) -> CompileResult:
        if self.on_compile is not None:
            self.on_compile(result)
        return result

    def compile(self, program: Program, num_warps: int) -> CompileResult:
        """Warp-specialize ``program`` for a ``num_warps``-warp block.

        Returns an unspecialized result (original program) when no
        pipeline stage can be extracted — callers fall back to the
        baseline kernel, matching the paper's per-kernel opt-in.
        """
        with span("compiler", "compile"):
            return self._compile(program, num_warps)

    def _compile(self, program: Program, num_warps: int) -> CompileResult:
        program.validate()
        # Imported lazily: the serializer imports this package.
        from repro.isa.serialize import program_digest

        SOURCE_SLOT.select(program, program_digest(program))
        opts = self.options
        keys = CompileKeys(opts, num_warps)
        stored = self._passes(program, num_warps, keys)
        result = replace(
            stored,
            original=program,
            program=stored.program if stored.specialized else program,
            stage_registers=list(stored.stage_registers),
            double_buffered=list(stored.double_buffered),
            diagnostics=[],
            reused=keys.hit_at is not None,
        )
        facts = result.facts
        if facts is not None and opts.verify:
            from repro.analysis.verifier import verify_or_raise

            result.diagnostics = list(
                verify_or_raise(facts.program, facts=facts)
            )
        if facts is not None and opts.validate:
            from repro.analysis.transval import validate_or_raise

            result.transval = validate_or_raise(
                program, facts.program, facts=facts
            )
        return self._emit(result)

    def _passes(
        self, program: Program, num_warps: int, keys: CompileKeys
    ) -> CompileResult:
        """Every pass up to the shared facts of the finalized program,
        answered from the slot at the first lookup point that hits; no
        post-pass."""
        opts = self.options
        work = program.clone()
        work.name = program.name

        fused = 0
        double_buffered: list[str] = []
        pdg = None
        if opts.enable_tile:
            with span("compiler", "buffering"):
                pdg = build_pdg(work)
                fused = fuse_ldgsts(work, pdg)
                # Sync-pair tagging only writes attrs: no new version.
                tag_tile_sync_pairs(work)
                if opts.double_buffering:
                    double_buffered = apply_circular_buffering(
                        work,
                        opts.smem_capacity_words,
                        depth=opts.pipeline_depth,
                    )
            if fused or double_buffered:
                pdg = None  # the rewritten program is a new version
        if not double_buffered:
            keys.drop("pipeline_depth")
        stored = keys.lookup("options")
        if stored is not None:
            return stored

        original_registers = program.register_count()
        if pdg is None:
            with span("compiler", "build_pdg"):
                pdg = build_pdg(work)
        with span("compiler", "plan_extraction"):
            plan = plan_extraction(
                pdg,
                max_stages=opts.max_stages,
                enable_streaming=opts.enable_streaming,
                enable_tile=opts.enable_tile,
            )
        if not plan.over_budget:
            keys.drop("max_stages")
        if not plan.streaming_filtered:
            keys.drop("enable_streaming")
        stored = keys.lookup("plan")
        if stored is not None:
            return keys.store(stored)
        if plan.num_stages <= 1 or not plan.loads:
            return keys.store(CompileResult(
                original=program,
                program=program,
                specialized=False,
                plan=plan,
                original_registers=original_registers,
                reason="no extractable pipeline stages",
            ))

        tag_keys(work)
        with span("compiler", "stage_split"):
            stages = build_stage_programs(work, plan)
        offload = None
        if opts.enable_tma_offload:
            with span("compiler", "tma_offload"):
                offload = offload_pipeline(stages)
        kept, dropped = drop_empty_stages(stages)
        if len(kept) <= 1:
            return keys.store(CompileResult(
                original=program,
                program=program,
                specialized=False,
                plan=plan,
                original_registers=original_registers,
                reason="pipeline collapsed to a single stage",
            ))
        if offload is None or not (offload.streams or offload.gathers):
            keys.drop("enable_tma_offload")
        stored = keys.lookup("offload")
        if stored is not None:
            # Offload did nothing either way; the report is the caller's.
            return keys.store(replace(stored, offload=offload))

        with span("compiler", "finalize"):
            combined = finalize_pipeline(
                name=program.name,
                stages=kept,
                num_warps=num_warps,
                queue_size=opts.queue_size,
                smem_words=work.smem_words,
                smem_buffers=work.smem_buffers,
            )
        # Imported lazily: the analysis package partitions the *output*
        # of this compiler and is otherwise independent.
        from repro.analysis.facts import PipelineFacts

        facts = SOURCE_SLOT.share(PipelineFacts(combined))
        return keys.store(CompileResult(
            original=program,
            program=facts.program,
            specialized=True,
            plan=plan,
            num_stages=len(kept),
            stage_registers=list(facts.program.tb_spec.stage_registers),
            original_registers=original_registers,
            fused_ldgsts=fused,
            double_buffered=double_buffered,
            offload=offload,
            dropped_stages=dropped,
            facts=facts,
        ))


def drop_empty_stages(
    stages: list[StageProgram],
) -> tuple[list[StageProgram], int]:
    """Remove stages left without work (e.g. after gather fusion).

    A stage is droppable when it contains only control flow and pure
    arithmetic — no memory operations, queue traffic, barriers or TMA
    configurations.  Kept stages are renumbered contiguously.
    """
    kept = [
        sp for sp in stages if sp.is_compute or not _is_workless(sp.program)
    ]
    dropped = len(stages) - len(kept)
    for new_index, stage_prog in enumerate(kept):
        stage_prog.stage = new_index
        stage_prog.is_compute = new_index == len(kept) - 1
    return kept, dropped


_PURE_UNITS = (FuncUnit.INT, FuncUnit.FP, FuncUnit.TENSOR, FuncUnit.NOP)


def _is_workless(program: Program) -> bool:
    for instr in program.instructions():
        if instr.opcode in (Opcode.BRA, Opcode.EXIT, Opcode.NOP):
            continue
        if instr.queue_pushes() or instr.queue_pops():
            return False
        info = instr.info
        if info.is_barrier:
            return False
        if info.reads_global or info.writes_global:
            return False
        if info.reads_shared or info.writes_shared:
            return False
        if info.unit not in _PURE_UNITS:
            return False
    return True

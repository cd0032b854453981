"""Resource and hygiene checker (rules WASP-R001..R006, C006, C007).

Proves the launch-time contracts the simulator's :class:`ResourceError`
and silent mis-accounting would otherwise surface mid-run:

* the spec's per-stage register allocation fits the SM register file
  (Section V's RF partitioning) and covers every register each stage's
  code actually references;
* every register/predicate read is preceded by a definition — a
  definite-assignment dataflow per stage section (reads that are
  undefined on *every* path are errors, reads undefined on *some* path
  are warnings, since predicated definitions are modelled as full
  definitions);
* the SMEM footprint fits the configured capacity;
* CFG hygiene: unreachable blocks, and control bleeding from one
  stage's code section into another's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import DISPATCH, ProgramView
from repro.analysis.dataflow.framework import (
    DataflowProblem,
    MeetSetLattice,
    solve,
)
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.facts import PipelineFacts
from repro.core.specs import ThreadBlockSpec
from repro.isa.operands import Operand


@dataclass(frozen=True)
class VerifyLimits:
    """Capacities the resource pass checks against.

    Defaults mirror :class:`repro.sim.config.GPUConfig` (A100-class SM).
    """

    registers_per_sm: int = 65536
    smem_capacity_words: int = 41984
    threads_per_warp: int = 32


def check_resources(
    facts: PipelineFacts, limits: VerifyLimits
) -> list[Diagnostic]:
    view, spec = facts.view, facts.spec
    diags: list[Diagnostic] = []
    diags.extend(_check_hygiene(view))
    diags.extend(_check_smem_capacity(view, limits))
    if spec is not None:
        diags.extend(_check_register_budgets(view, spec, limits))
    for stage in sorted(view.sections):
        diags.extend(_check_use_before_def(view, stage))
    return diags


def _check_hygiene(view: ProgramView) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    kernel = view.program.name
    for block in view.program.blocks:
        if block.label not in view.reachable:
            stage = view.stage_of_block(block.label)
            diags.append(Diagnostic(
                rule="WASP-C006",
                message=f"block {block.label!r} is unreachable from the "
                        "program entry",
                kernel=kernel,
                stage=stage if stage >= 0 else None,
                block=block.label,
            ))
            continue
        stage = view.stage_of_block(block.label)
        if stage == DISPATCH:
            continue
        for succ in view.successors.get(block.label, ()):
            succ_stage = view.stage_of_block(succ)
            if succ_stage not in (stage, DISPATCH) and succ_stage >= 0:
                diags.append(Diagnostic(
                    rule="WASP-C007",
                    message=f"stage {stage} block {block.label!r} "
                            f"transfers control into stage {succ_stage} "
                            f"({succ!r})",
                    kernel=kernel,
                    stage=stage,
                    block=block.label,
                    hint="end every stage section with EXIT or an "
                         "in-section branch",
                ))
    return diags


def _check_smem_capacity(
    view: ProgramView, limits: VerifyLimits
) -> list[Diagnostic]:
    if view.program.smem_words <= limits.smem_capacity_words:
        return []
    return [Diagnostic(
        rule="WASP-R004",
        message=f"program allocates {view.program.smem_words} SMEM words "
                f"but the SM holds {limits.smem_capacity_words}",
        kernel=view.program.name,
        hint="shrink tile buffers or disable double buffering",
    )]


def _check_register_budgets(
    view: ProgramView,
    spec: ThreadBlockSpec,
    limits: VerifyLimits,
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    kernel = view.program.name

    footprint = spec.per_stage_register_footprint(limits.threads_per_warp)
    if footprint > limits.registers_per_sm:
        diags.append(Diagnostic(
            rule="WASP-R001",
            message=f"per-stage register footprint {footprint} exceeds "
                    f"the {limits.registers_per_sm}-register file "
                    f"(stage_registers={spec.stage_registers}, "
                    f"{spec.num_warps} warps)",
            kernel=kernel,
            hint="reduce stage register budgets or warps per stage",
        ))

    for stage in view.stages:
        if stage >= spec.num_stages:
            diags.append(Diagnostic(
                rule="WASP-R006",
                message=f"code section for stage {stage} exists but the "
                        f"spec declares only {spec.num_stages} stages",
                kernel=kernel,
                stage=stage,
            ))
            continue
        budget = spec.stage_registers[stage]
        top = -1
        culprit = None
        for block in view.reachable_blocks(stage):
            for instr in block.instructions:
                regs = instr.used_registers() + instr.defined_registers()
                for reg in regs:
                    if reg.index > top:
                        top = reg.index
                        culprit = (block.label, repr(instr))
        if top + 1 > budget:
            assert culprit is not None
            diags.append(Diagnostic(
                rule="WASP-R002",
                message=f"stage {stage} references R{top} but its "
                        f"allocation is {budget} registers "
                        f"(R0..R{budget - 1})",
                kernel=kernel,
                stage=stage,
                block=culprit[0],
                instruction=culprit[1],
                hint="raise stage_registers or re-run register "
                     "compaction",
            ))

    declared = view.program.num_registers
    if declared is not None and spec.stage_registers and (
        declared < max(spec.stage_registers)
    ):
        diags.append(Diagnostic(
            rule="WASP-R006",
            message=f"program declares {declared} registers but the spec "
                    f"allocates up to {max(spec.stage_registers)} to a "
                    "stage",
            kernel=kernel,
        ))
    if spec.smem_words != view.program.smem_words:
        diags.append(Diagnostic(
            rule="WASP-R006",
            message=f"spec.smem_words={spec.smem_words} disagrees with "
                    f"the program's {view.program.smem_words}",
            kernel=kernel,
        ))
    return diags


def _check_use_before_def(
    view: ProgramView, stage: int
) -> list[Diagnostic]:
    """Definite-assignment dataflow over one stage section's sub-CFG.

    An instance of the generic worklist framework
    (:mod:`repro.analysis.dataflow.framework`): facts are the set of
    definitely-assigned operands, joined by intersection over
    predecessor edges (``None`` = not-yet-visited, optimistic), each
    edge transferring its source block's definitions.
    """
    blocks = view.reachable_blocks(stage)
    if not blocks:
        return []
    labels = {b.label for b in blocks}
    order = {b.label: i for i, b in enumerate(blocks)}

    # Dispatch-section definitions (the jump table's predicate) reach
    # every stage entry; for the dispatch section itself start empty.
    inherited: set[Operand] = set()
    if stage != DISPATCH and DISPATCH in view.sections:
        for block in view.sections[DISPATCH].blocks:
            for instr in block.instructions:
                inherited.update(instr.defined_registers())
                inherited.update(instr.defined_predicates())

    preds: dict[str, list[str]] = {label: [] for label in labels}
    succs: dict[str, tuple[str, ...]] = {}
    for label in labels:
        succs[label] = tuple(
            s for s in view.successors.get(label, ()) if s in labels
        )
        for succ in succs[label]:
            preds.setdefault(succ, [])
    for label in labels:
        for succ in succs[label]:
            preds[succ].append(label)

    block_defs: dict[str, frozenset[Operand]] = {}
    ever_defined: set[Operand] = set(inherited)
    for block in blocks:
        defs: set[Operand] = set()
        for instr in block.instructions:
            defs.update(instr.defined_registers())
            defs.update(instr.defined_predicates())
        block_defs[block.label] = frozenset(defs)
        ever_defined.update(defs)

    lattice: MeetSetLattice[Operand] = MeetSetLattice()

    def transfer(
        src: str, dst: str, value: frozenset[Operand] | None
    ) -> frozenset[Operand] | None:
        if value is None:
            return None
        return value | block_defs[src]

    problem: DataflowProblem[str, frozenset[Operand] | None]
    problem = DataflowProblem(
        nodes=tuple(b.label for b in blocks),
        successors=succs,
        bottom=lattice.bottom,
        join=lattice.join,
        leq=lattice.leq,
        transfer=transfer,
        initial={
            label: frozenset(inherited)
            for label in (b.label for b in blocks)
            if not preds[label]
        },
    )
    in_sets = solve(problem)

    diags: list[Diagnostic] = []
    reported: set[Operand] = set()
    for block in sorted(blocks, key=lambda b: order[b.label]):
        solved = in_sets[block.label]
        if not preds[block.label]:
            current = set(inherited)
        elif solved is None:
            current = set(ever_defined)  # section-internal dead cycle
        else:
            current = set(solved)
        for instr in block.instructions:
            uses: list[Operand] = list(instr.used_registers())
            uses.extend(instr.used_predicates())
            for operand in uses:
                if operand in current or operand in reported:
                    continue
                reported.add(operand)
                never = operand not in ever_defined
                diags.append(Diagnostic(
                    rule="WASP-R003" if never else "WASP-R005",
                    message=f"{operand!r} is read but "
                            + ("never defined in this stage" if never
                               else "not defined on every path here"),
                    kernel=view.program.name,
                    stage=stage if stage >= 0 else None,
                    block=block.label,
                    instruction=repr(instr),
                    hint="initialize the register before the loop or "
                         "guard the use",
                ))
            current.update(instr.defined_registers())
            current.update(instr.defined_predicates())
    return diags

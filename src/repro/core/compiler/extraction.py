"""Pipeline stage extraction and planning (Section IV-A, Figure 9).

The planner decides, for every global load in the kernel:

* whether it is extracted into a memory-access pipeline stage
  (:class:`LoadPlan`), and if so at which indirection depth,
* which queue delivers its value, and to which consumer stage, and
* which instructions form the stage's closure (address backslice plus
  duplicated ineligible boundary loads) — the paper's "collection".

Planning is a fixpoint: extracting a load is only legal if its value is
consumed by exactly one downstream stage (a register-file queue entry
can be popped once), and demoting one load can change the consumer sets
of others, so the loop iterates until stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.compiler.backslice import address_backslice
from repro.core.compiler.eligibility import (
    EligibilityReport,
    classify_loads,
)
from repro.core.compiler.merging import group_by_depth
from repro.core.compiler.pdg import PDG
from repro.core.compiler.skeleton import compute_skeleton
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, opcode_info

COMPUTE_STAGE = -1  # sentinel: resolved to the last stage id at the end


@dataclass
class LoadPlan:
    """Extraction decision for one global load."""

    load: Instruction
    stage: int
    depth: int
    is_tile: bool
    queue_id: int | None = None
    consumer_stage: int | None = None


@dataclass
class ExtractionPlan:
    """Complete stage plan for one kernel.

    ``num_stages`` includes the final compute stage; memory stages are
    ``0 .. num_stages - 2`` in increasing indirection depth.
    """

    skeleton: set[int]
    eligibility: EligibilityReport
    num_stages: int
    loads: list[LoadPlan] = field(default_factory=list)
    stage_closures: list[set[int]] = field(default_factory=list)
    demoted: list[Instruction] = field(default_factory=list)
    #: Whether the stage budget (``max_stages``) demoted a load in some
    #: planning round, and whether ``enable_streaming=False`` filtered
    #: out a load that would otherwise have been a candidate.  When
    #: either is False, every value of that option plans the same
    #: (the compile key drops it, DESIGN.md §1e).
    over_budget: bool = False
    streaming_filtered: bool = False

    @property
    def compute_stage(self) -> int:
        return self.num_stages - 1


def _compute_depths(pdg: PDG) -> dict[int, int]:
    """Memory-indirection depth for every global load.

    depth = 1 + max depth of loads feeding the address (0 if none).
    Loop-carried back-references are cut (treated as depth 0); such
    loads are self-cycle ineligible anyway.
    """
    depths: dict[int, int] = {}
    visiting: set[int] = set()

    def depth_of(load: Instruction) -> int:
        if load.uid in depths:
            return depths[load.uid]
        if load.uid in visiting:
            return 0
        visiting.add(load.uid)
        backslice = address_backslice(pdg, load)
        best = 0
        for boundary in backslice.boundary_loads:
            best = max(best, depth_of(boundary))
        visiting.discard(load.uid)
        depths[load.uid] = 1 + best
        return depths[load.uid]

    for load in pdg.global_loads():
        depth_of(load)
    return depths


def _stage_closure(
    pdg: PDG, load: Instruction, eligible_uids: set[int]
) -> set[int]:
    """The paper's phase-1 "collection" for one extracted load.

    Address-backslice instructions, plus ineligible boundary loads
    duplicated into the stage together with their own backslices
    (eligible boundaries are delivered via queues instead).
    """
    closure: set[int] = set()
    work = [load]
    seen: set[int] = {load.uid}
    while work:
        current = work.pop()
        backslice = address_backslice(pdg, current)
        closure.update(i.uid for i in backslice.instructions)
        for boundary in backslice.boundary_loads:
            if boundary.uid in eligible_uids or boundary.uid in seen:
                continue
            seen.add(boundary.uid)
            closure.add(boundary.uid)
            work.append(boundary)
    return closure


def _compute_live_uids(pdg: PDG, extracted_uids: set[int]) -> set[int]:
    """Instructions live in the compute stage's view of the program.

    Backward reachability from compute-stage roots (side effects,
    control flow) through data edges, with edges out of extracted loads
    cut (their definitions are not produced in the compute stage — the
    queue pop re-defines the register instead, so reaching the extracted
    load itself means the compute stage *consumes* its value).
    """
    roots = []
    for instr in pdg.program.instructions():
        info = opcode_info(instr.opcode)
        side_effect = (
            info.writes_global
            or info.writes_shared
            or info.is_branch
            or info.is_barrier
        )
        if side_effect and instr.uid not in extracted_uids:
            roots.append(instr.uid)
    live: set[int] = set()
    stack = list(roots)
    while stack:
        uid = stack.pop()
        if uid in live:
            continue
        live.add(uid)
        if uid in extracted_uids:
            continue  # do not traverse through an extracted load
        stack.extend(pdg.data_preds.get(uid, ()))
    return live


def plan_extraction(
    pdg: PDG,
    max_stages: int = 16,
    enable_streaming: bool = True,
    enable_tile: bool = True,
) -> ExtractionPlan:
    """Plan pipeline stages for ``pdg.program``.

    ``enable_streaming`` gates fine-grained LDG->queue extraction;
    ``enable_tile`` gates LDGSTS (tile) stage extraction.  With both
    disabled the plan degenerates to a single compute stage.
    """
    skeleton = compute_skeleton(pdg)
    eligibility = classify_loads(pdg, skeleton)
    depths = _compute_depths(pdg)

    candidates: list[Instruction] = []
    streaming_filtered = False
    for load in eligibility.eligible:
        is_tile = load.opcode is Opcode.LDGSTS
        if is_tile and not enable_tile:
            continue
        if not is_tile and not pdg.data_succs.get(load.uid):
            continue  # dead value: leave to dead-code elimination
        if not is_tile and not enable_streaming:
            streaming_filtered = True
            continue
        candidates.append(load)

    demoted: list[Instruction] = []
    over_budget_seen = False
    while True:
        groups, over_budget = group_by_depth(
            depths, candidates, max_stages=max_stages
        )
        if over_budget:
            over_budget_seen = True
            demoted.extend(over_budget)
            candidates = [c for c in candidates if c not in over_budget]
            continue
        if not groups:
            plan = ExtractionPlan(
                skeleton=skeleton, eligibility=eligibility, num_stages=1
            )
            break
        result = _try_assign(
            pdg, groups, len(groups) + 1, skeleton, depths, eligibility
        )
        if isinstance(result, ExtractionPlan):
            plan = result
            break
        # result is the load to demote; retry without it.
        demoted.append(result)
        candidates = [c for c in candidates if c.uid != result.uid]
    plan.demoted = demoted
    plan.over_budget = over_budget_seen
    plan.streaming_filtered = streaming_filtered
    return plan


def _try_assign(
    pdg: PDG,
    groups: list[list[Instruction]],
    num_stages: int,
    skeleton: set[int],
    depths: dict[int, int],
    eligibility: EligibilityReport,
) -> ExtractionPlan | Instruction:
    """Attempt a full assignment; returns a load to demote on conflict."""
    stage_of_load: dict[int, int] = {}
    for stage, loads in enumerate(groups):
        for load in loads:
            stage_of_load[load.uid] = stage
    eligible_uids = set(stage_of_load)

    closures = [set() for _ in groups]
    closure_stage_of: dict[int, set[int]] = {}
    for stage, loads in enumerate(groups):
        for load in loads:
            closure = _stage_closure(pdg, load, eligible_uids)
            closures[stage].update(closure)
            for uid in closure:
                closure_stage_of.setdefault(uid, set()).add(stage)

    compute_live = _compute_live_uids(pdg, eligible_uids)
    compute_stage = num_stages - 1

    plans: list[LoadPlan] = []
    next_queue = 0
    for stage, loads in enumerate(groups):
        for load in loads:
            if load.opcode is Opcode.LDGSTS:
                plans.append(
                    LoadPlan(
                        load=load,
                        stage=stage,
                        depth=depths[load.uid],
                        is_tile=True,
                    )
                )
                continue
            consumer_stages: set[int] = set()
            for succ_uid in pdg.data_succs.get(load.uid, ()):
                if succ_uid in skeleton:
                    return load  # feeds control: every stage needs it
                for consumer_stage in closure_stage_of.get(succ_uid, ()):
                    consumer_stages.add(consumer_stage)
                if succ_uid in compute_live:
                    consumer_stages.add(compute_stage)
                succ_info = opcode_info(pdg.instr_by_uid[succ_uid].opcode)
                if succ_info.writes_global or succ_info.writes_shared:
                    consumer_stages.add(compute_stage)
            if stage in consumer_stages:
                return load  # value consumed within its own stage: demote
            if len(consumer_stages) != 1:
                return load  # zero or multiple consumer stages: demote
            consumer = consumer_stages.pop()
            if consumer <= stage:
                return load
            plans.append(
                LoadPlan(
                    load=load,
                    stage=stage,
                    depth=depths[load.uid],
                    is_tile=False,
                    queue_id=next_queue,
                    consumer_stage=consumer,
                )
            )
            next_queue += 1
    return ExtractionPlan(
        skeleton=skeleton,
        eligibility=eligibility,
        num_stages=num_stages,
        loads=plans,
        stage_closures=closures,
    )

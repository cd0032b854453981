"""The WASP thread-block specification (paper Table I).

The specification is the contract between the WASP compiler and the WASP
hardware: it names each warp's pipeline stage, gives per-stage register
requirements, declares the named queues connecting stages, and carries
arrive/wait barrier metadata for SMEM double buffering.

The baseline GPU ignores everything except thread dimensions; the WASP
SM uses the full specification for mapping, register allocation and
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ValidationError


@dataclass(frozen=True)
class NamedQueueSpec:
    """A named queue connecting two pipeline stages.

    Matches the paper's ``{src_id, dst_id, size}`` triple; ``size`` is
    entries per warp-channel (32 by default, swept in Figure 18).
    """

    queue_id: int
    src_stage: int
    dst_stage: int
    size: int = 32

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValidationError("queue size must be positive")
        if self.src_stage == self.dst_stage:
            raise ValidationError(
                f"queue {self.queue_id} connects stage "
                f"{self.src_stage} to itself"
            )


@dataclass
class ThreadBlockSpec:
    """Extended thread-block specification.

    Attributes:
        num_stages: Pipeline depth (the new launch dimension of III-A).
        warps_per_stage: Warps assigned to each stage, in stage order.
            Stage ids are implicit (index into this list).
        stage_registers: Per-thread register count for each stage.
        queues: Named queues between stages.
        smem_words: Shared memory including any compiler-added buffering.
        barrier_expected: Arrivals per generation for each arrive/wait
            barrier (producer warp count).
        barrier_initial: Initial arrival credit (empty buffers start
            "arrived", per Section IV-B).
    """

    num_stages: int
    warps_per_stage: list[list[int]]
    stage_registers: list[int]
    queues: list[NamedQueueSpec] = field(default_factory=list)
    smem_words: int = 0
    barrier_expected: dict[str, int] = field(default_factory=dict)
    barrier_initial: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_stages <= 0:
            raise ValidationError("num_stages must be positive")
        if len(self.warps_per_stage) != self.num_stages:
            raise ValidationError(
                f"warps_per_stage has {len(self.warps_per_stage)} entries "
                f"for {self.num_stages} stages"
            )
        if len(self.stage_registers) != self.num_stages:
            raise ValidationError(
                f"stage_registers has {len(self.stage_registers)} entries "
                f"for {self.num_stages} stages"
            )
        seen: set[int] = set()
        for stage_warps in self.warps_per_stage:
            if not stage_warps:
                raise ValidationError("every stage needs at least one warp")
            overlap = seen.intersection(stage_warps)
            if overlap:
                raise ValidationError(
                    f"warps {sorted(overlap)} assigned to multiple stages"
                )
            seen.update(stage_warps)
        for queue in self.queues:
            for stage in (queue.src_stage, queue.dst_stage):
                if not 0 <= stage < self.num_stages:
                    raise ValidationError(
                        f"queue {queue.queue_id} references stage {stage} "
                        f"outside 0..{self.num_stages - 1}"
                    )
        negative = sorted(
            name for name, credit in self.barrier_initial.items()
            if credit < 0
        )
        if negative:
            raise ValidationError(
                f"barriers {negative} start with negative arrival credit"
            )

    # -- queries ------------------------------------------------------------

    @property
    def num_warps(self) -> int:
        return sum(len(ws) for ws in self.warps_per_stage)

    def stage_of_warp(self, warp_id: int) -> int:
        for stage, warps in enumerate(self.warps_per_stage):
            if warp_id in warps:
                return stage
        raise ValidationError(f"warp {warp_id} not assigned to any stage")

    def warps_in_stage(self, stage: int) -> list[int]:
        return self.warps_per_stage[stage]

    def queue_by_id(self, queue_id: int) -> NamedQueueSpec:
        for queue in self.queues:
            if queue.queue_id == queue_id:
                return queue
        raise ValidationError(f"no queue with id {queue_id}")

    def pipeline_slices(self) -> list[list[int]]:
        """Warps grouped into pipeline slices (III-B warp mapping).

        Slice *k* holds the *k*-th warp of each stage, i.e. one complete
        producer→consumer chain; ``group_pipeline`` mapping co-locates a
        slice on one processing block.  Stages with fewer warps than the
        widest stage contribute to the earliest slices only.
        """
        depth = max(len(ws) for ws in self.warps_per_stage)
        slices: list[list[int]] = [[] for _ in range(depth)]
        for warps in self.warps_per_stage:
            for k, warp_id in enumerate(warps):
                slices[k].append(warp_id)
        return [s for s in slices if s]

    # -- register accounting (Figure 16) ----------------------------------

    def uniform_register_footprint(self, threads_per_warp: int = 32) -> int:
        """Thread-block register footprint under uniform allocation.

        Current GPUs allocate every warp the *maximum* per-stage register
        count (Section III-B).
        """
        peak = max(self.stage_registers)
        return peak * threads_per_warp * self.num_warps

    def per_stage_register_footprint(self, threads_per_warp: int = 32) -> int:
        """Thread-block register footprint under WASP per-stage allocation."""
        total = 0
        for stage, warps in enumerate(self.warps_per_stage):
            total += self.stage_registers[stage] * threads_per_warp * len(warps)
        return total


def slice_of(spec: ThreadBlockSpec | None, warp_id: int) -> int:
    """A warp's slice: its index among its stage's warps (the warp id
    itself without a spec).  A queue has one channel per slice: warp
    *k* of stage S talks to warp *k* of stage S+1, the paper's
    ``TB0_W<k>_QS0S1`` naming."""
    if spec is None:
        return warp_id
    stage = spec.stage_of_warp(warp_id)
    return spec.warps_in_stage(stage).index(warp_id)


def contiguous_stage_assignment(
    num_stages: int, warps_per_stage_count: list[int]
) -> list[list[int]]:
    """Assign warp ids 0..N-1 contiguously to stages, in stage order."""
    if len(warps_per_stage_count) != num_stages:
        raise ValidationError("stage count mismatch")
    assignment: list[list[int]] = []
    next_warp = 0
    for count in warps_per_stage_count:
        assignment.append(list(range(next_warp, next_warp + count)))
        next_warp += count
    return assignment

"""Thread-block specification (Table I) invariants."""

from dataclasses import replace

import pytest

from repro.core.specs import (
    NamedQueueSpec,
    ThreadBlockSpec,
    contiguous_stage_assignment,
)
from repro.errors import ValidationError


def _spec():
    return ThreadBlockSpec(
        num_stages=2,
        warps_per_stage=[[0, 1], [2, 3]],
        stage_registers=[8, 24],
        queues=[NamedQueueSpec(0, 0, 1, size=32)],
    )


def test_stage_of_warp_and_back():
    spec = _spec()
    assert spec.stage_of_warp(0) == 0
    assert spec.stage_of_warp(3) == 1
    assert spec.warps_in_stage(1) == [2, 3]
    assert spec.num_warps == 4


def test_unknown_warp_rejected():
    with pytest.raises(ValidationError):
        _spec().stage_of_warp(9)


def test_overlapping_stage_assignment_rejected():
    with pytest.raises(ValidationError):
        ThreadBlockSpec(
            num_stages=2, warps_per_stage=[[0, 1], [1, 2]],
            stage_registers=[4, 4],
        )


def test_queue_stage_bounds_checked():
    with pytest.raises(ValidationError):
        ThreadBlockSpec(
            num_stages=2, warps_per_stage=[[0], [1]],
            stage_registers=[4, 4],
            queues=[NamedQueueSpec(0, 0, 5)],
        )


def test_negative_barrier_credit_rejected():
    """A negative initial credit is the only source of a negative
    happens-before shift, so it must fail fast, not at the verifier."""
    spec = replace(_spec(), barrier_initial={"empty": 0, "full": 2})
    assert spec.barrier_initial == {"empty": 0, "full": 2}
    with pytest.raises(ValidationError, match="negative arrival credit"):
        replace(spec, barrier_initial={"empty": -1, "full": 2})


def test_self_queue_rejected():
    with pytest.raises(ValidationError):
        NamedQueueSpec(0, 1, 1)


def test_queue_size_positive():
    with pytest.raises(ValidationError):
        NamedQueueSpec(0, 0, 1, size=0)


def test_pipeline_slices_pair_kth_warps():
    spec = _spec()
    assert spec.pipeline_slices() == [[0, 2], [1, 3]]


def test_pipeline_slices_uneven_stages():
    spec = ThreadBlockSpec(
        num_stages=2,
        warps_per_stage=[[0], [1, 2]],
        stage_registers=[4, 4],
    )
    assert spec.pipeline_slices() == [[0, 1], [2]]


def test_register_footprints():
    spec = _spec()
    # Uniform: every warp gets the max (24) regs.
    assert spec.uniform_register_footprint(32) == 24 * 32 * 4
    # Per-stage: 2 warps * 8 + 2 warps * 24.
    assert spec.per_stage_register_footprint(32) == (8 * 2 + 24 * 2) * 32
    assert (
        spec.per_stage_register_footprint(32)
        <= spec.uniform_register_footprint(32)
    )


def test_contiguous_assignment():
    assert contiguous_stage_assignment(3, [2, 1, 2]) == [
        [0, 1], [2], [3, 4]
    ]
    with pytest.raises(ValidationError):
        contiguous_stage_assignment(2, [1])


def test_queue_by_id():
    spec = _spec()
    assert spec.queue_by_id(0).dst_stage == 1
    with pytest.raises(ValidationError):
        spec.queue_by_id(9)

"""The random kernel generator: seeded, replayable, valid, diverse.

Everything downstream (oracle, shrinker, corpus) relies on one
property: a :class:`FuzzSpec` fully determines the generated kernel —
program, memory image and launch — across processes and runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fuzz.generator import build_kernel
from repro.isa.serialize import program_digest
from repro.fuzz.spec import (
    SKELETONS,
    FuzzSpec,
    generate_spec,
    shrink_candidates,
)

SEED_RANGE = range(40)


def test_specs_are_deterministic():
    for seed in SEED_RANGE:
        assert generate_spec(seed) == generate_spec(seed)


def test_specs_json_round_trip():
    for seed in SEED_RANGE:
        spec = generate_spec(seed)
        assert FuzzSpec.from_json(spec.to_json()) == spec


def test_unknown_skeleton_rejected():
    doc = generate_spec(0).to_json()
    doc["skeleton"] = "nope"
    with pytest.raises(ValueError, match="unknown skeleton"):
        FuzzSpec.from_json(doc)


def test_all_skeletons_generated():
    seen = {generate_spec(seed).skeleton for seed in SEED_RANGE}
    assert seen == set(SKELETONS)


def test_describe_names_the_skeleton():
    for seed in range(10):
        spec = generate_spec(seed)
        assert spec.skeleton in spec.describe()
        assert f"seed={seed}" in spec.describe()


@pytest.mark.parametrize("seed", list(range(20)))
def test_build_is_deterministic(seed):
    spec = generate_spec(seed)
    first, second = build_kernel(spec), build_kernel(spec)
    assert (program_digest(first.program)
            == program_digest(second.program))
    assert first.content_digest() == second.content_digest()
    assert np.array_equal(
        first.image_factory().snapshot(), second.image_factory().snapshot()
    )
    assert first.launch == second.launch


@pytest.mark.parametrize("seed", list(range(20)))
def test_generated_programs_are_valid(seed):
    kernel = build_kernel(generate_spec(seed))
    kernel.program.validate()


def test_skeleton_dispatch_rejects_unknown():
    from dataclasses import replace

    bogus = replace(generate_spec(0), skeleton="nope")
    with pytest.raises(KeyError):
        build_kernel(bogus)


def test_shrink_candidates_strictly_smaller():
    for seed in SEED_RANGE:
        spec = generate_spec(seed)
        for candidate in shrink_candidates(spec):
            assert candidate != spec
            # At least one shrinkable field moved toward its minimum and
            # none moved away (tile_elems may follow the thread count).
            diffs = [
                (field, getattr(spec, field), getattr(candidate, field))
                for field in (
                    "num_tbs", "iters", "num_warps", "fp_ops",
                    "num_inputs", "gather_depth", "inner_trip",
                    "table_words", "warp_width",
                )
                if getattr(spec, field) != getattr(candidate, field)
            ]
            assert diffs, "candidate changed nothing shrinkable"
            assert all(new < old for _f, old, new in diffs)


def test_shrink_keeps_tiled_specs_buildable():
    tiled = [
        generate_spec(seed) for seed in SEED_RANGE
        if generate_spec(seed).skeleton == "tiled"
    ]
    assert tiled
    for spec in tiled:
        for candidate in shrink_candidates(spec):
            build_kernel(candidate).program.validate()

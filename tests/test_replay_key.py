"""The result tier's replay key loses nothing a replay can observe.

``TraceCache.simulate`` and ``TraceCache.predict`` memoize on
:func:`repro.sim.gpu.replay_key`: the resolved core and the GPU with
its features reduced to those a replay of the traces can observe.  A
key is sound when the replay and the prediction under every GPU equal
those under its key's GPU.  This module checks exactly that for every
replay the evaluation configurations ask the result tier for: each
kernel's plain and specialized entries under the GPUs of the Figure
14, 15 and 17 configurations (the CUTLASS GPU of GEMM kernels
included), and the WASP GPU at every register-file-queue size of the
Figure 18 sweep and of the fuzz oracle's metamorphic RFQ ladder.
Tier 1 checks the toolchain benchmark's 11-kernel subset;
CI checks the whole registry::

    python -m tests.test_replay_key
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import pytest

from benchmarks.toolchain.workloads import KERNELS
from tests.test_sim_identity import sim_digest

from repro.analysis.perfmodel.model import predict_traces
from repro.core.mapping import group_pipeline_mapping, round_robin_mapping
from repro.errors import CompilerError, ResourceError
from repro.fuzz.metamorphic import RFQ_LADDER
from repro.experiments.configs import (
    gto_wasp_hw_config,
    progressive_feature_configs,
    scheduling_policy_configs,
    standard_configs,
    wasp_gpu_config,
)
from repro.experiments.fig18 import DEFAULT_SIZES
from repro.experiments.runner import (
    TraceCache, _compiler_options_for, _gpu_for,
)
from repro.sim.config import (
    GPUConfig, SchedulingPolicy, WaspFeatures, baseline_a100, wasp_gpu,
)
from repro.sim.gpu import replay_key, simulate_kernel
from repro.sweeps import registry_kernels

SCALE = 0.25

#: (label, traces, GPU, kernel name) of one replay the tier serves.
Replay = tuple[str, list, GPUConfig, str]


#: RFQ sizes of the Figure 18 sweep and the metamorphic RFQ ladder.
RFQ_SIZES = tuple(sorted(set(DEFAULT_SIZES) | set(RFQ_LADDER)))


def _configs():
    return [
        *standard_configs(), *progressive_feature_configs(),
        *scheduling_policy_configs(), gto_wasp_hw_config(),
        *(wasp_gpu_config(rfq_size=size) for size in RFQ_SIZES),
    ]


def replays(kernels, cache: TraceCache) -> list[Replay]:
    """Every distinct (entry, GPU) replay a sweep of ``kernels`` under
    the evaluation configurations asks the result tier for."""
    seen: set[tuple[int, GPUConfig]] = set()
    found: list[Replay] = []
    for bench, kernel in kernels:
        for config in _configs():
            gpu = _gpu_for(kernel, config)
            label = f"{bench}/{kernel.name}:{config.name}"
            entries = [("plain", cache.original(kernel))]
            options = _compiler_options_for(kernel, config)
            if options is not None:
                try:
                    entry = cache.specialized(kernel, options)
                except CompilerError:
                    entry = None
                if entry is not None:
                    entries.append(("specialized", entry))
            for kind, entry in entries:
                if (id(entry), gpu) not in seen:
                    seen.add((id(entry), gpu))
                    found.append(
                        (f"{label}:{kind}", entry.traces, gpu, kernel.name)
                    )
    return found


def _outcome(traces: list, gpu: GPUConfig, name: str) -> tuple[str, str]:
    """(SimResult digest, prediction JSON), or the error raised."""
    try:
        sim = sim_digest(simulate_kernel(traces, gpu))
    except ResourceError as exc:
        sim = f"ResourceError: {exc}"
    try:
        prediction = json.dumps(
            predict_traces(traces, gpu, kernel_name=name).to_json(),
            sort_keys=True,
        )
    except ResourceError as exc:
        prediction = f"ResourceError: {exc}"
    return sim, prediction


def mismatches(found: list[Replay]) -> list[str]:
    """Labels whose replay or prediction differs from its key's."""
    outcomes: dict[tuple[int, GPUConfig], tuple[str, str]] = {}

    def outcome(traces: list, gpu: GPUConfig, name: str):
        key = (id(traces), gpu)
        if key not in outcomes:
            outcomes[key] = _outcome(traces, gpu, name)
        return outcomes[key]

    return [
        label for label, traces, gpu, name in found
        if outcome(traces, gpu, name)
        != outcome(traces, replay_key(gpu, traces)[1], name)
    ]


@pytest.fixture(scope="module")
def subset():
    wanted = set(KERNELS)
    kernels = [
        (bench, kernel) for bench, kernel in registry_kernels(None, SCALE)
        if (bench, kernel.name) in wanted
    ]
    assert len(kernels) == len(KERNELS)
    cache = TraceCache()
    return kernels, cache, replays(kernels, cache)


def test_every_replay_matches_its_key(subset):
    _kernels, _cache, found = subset
    assert sum(label.endswith(":specialized") for label, *_ in found) >= 40
    keys = {
        (id(traces), replay_key(gpu, traces)) for _, traces, gpu, _ in found
    }
    # The key merges replays (every plain entry's WASP-hardware GPUs
    # collapse onto BASELINE's) ...
    assert len(keys) < len(found)
    # ... and none of the merged ones is told apart by a replay.
    assert mismatches(found) == []


def test_rfq_size_merges_only_spec_less_replays(subset):
    """A spec-less replay has no RFQ channels and no RFQ register
    share, so every RFQ size keys to the default; a specialized one
    keeps one key per size."""
    kernels, cache, _found = subset
    gpus = [wasp_gpu(rfq_size=size) for size in RFQ_SIZES]
    specialized = 0
    for _bench, kernel in kernels:
        traces = cache.original(kernel).traces
        assert {replay_key(gpu, traces) for gpu in gpus} == {
            replay_key(wasp_gpu(), traces)
        }
        options = _compiler_options_for(kernel, wasp_gpu_config())
        try:
            entry = cache.specialized(kernel, options)
        except CompilerError:
            entry = None
        if entry is None:
            continue
        specialized += 1
        keys = {replay_key(gpu, entry.traces) for gpu in gpus}
        assert len(keys) == len(gpus)
    assert specialized > 0


def test_group_mapping_is_kept_only_where_it_moves_a_warp(subset):
    """The WASP mapper acts only through the warp->processing-block map,
    so a specialized replay keys it away exactly where dealing pipeline
    slices gives the round-robin map; both cases occur."""
    _kernels, _cache, found = subset
    outcomes = set()
    for _label, traces, gpu, _name in found:
        spec = traces[0].tb_spec
        if spec is None or not gpu.features.group_pipeline_mapping:
            continue
        blocks = gpu.processing_blocks
        moves = group_pipeline_mapping(spec, blocks) != round_robin_mapping(
            spec.num_warps, blocks
        )
        kept = replay_key(gpu, traces)[1].features.group_pipeline_mapping
        assert kept == moves
        outcomes.add(kept)
    assert outcomes == {True, False}


def test_lrr_pipeline_scheduling_keeps_its_own_key(subset):
    """Round-robin ranks single-stage warps unlike GTO, so a spec-less
    replay under LRR pipeline scheduling is not BASELINE's."""
    kernels, cache, _found = subset
    lrr = replace(wasp_gpu(), features=replace(
        WaspFeatures.full(), scheduling_policy=SchedulingPolicy.LRR,
    ))
    base = baseline_a100()
    differs = 0
    for _bench, kernel in kernels:
        traces = cache.original(kernel).traces
        _core, key = replay_key(lrr, traces)
        assert key != replay_key(base, traces)[1]
        assert key.features == WaspFeatures(
            pipeline_scheduling=True, scheduling_policy=SchedulingPolicy.LRR,
        )
        outcome = _outcome(traces, lrr, kernel.name)
        assert outcome == _outcome(traces, key, kernel.name)
        differs += outcome[0] != _outcome(traces, base, kernel.name)[0]
    assert differs > 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.test_replay_key",
        description="Check that the replay and the prediction of every "
        "registry kernel's entries, under every evaluation GPU, equal "
        "those under the GPU's replay key.",
    )
    parser.parse_args(argv)
    found = replays(registry_kernels(None, SCALE), TraceCache())
    bad = mismatches(found)
    for label in bad:
        print(f"MISMATCH {label}", file=sys.stderr)
    keys = {
        (id(traces), replay_key(gpu, traces)) for _, traces, gpu, _ in found
    }
    print(f"replay keys: {len(found) - len(bad)}/{len(found)} replays "
          f"match their key's replay and prediction "
          f"({len(keys)} distinct keys)")
    return 1 if bad or not found else 0


if __name__ == "__main__":
    sys.exit(main())

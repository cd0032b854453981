"""Metamorphic timing invariants and per-bucket stall coverage.

Satellite requirement: the PR 2 stall-attribution invariant
(``sum(stalls) + issued == active warp-cycles``) holds as a standing
assertion under *generated* workloads, with a dedicated unit test per
stall bucket — each :class:`StallCause` has a deterministic generated
scenario that provably charges it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.compiler import WaspCompiler, WaspCompilerOptions
from repro.fexec.machine import run_kernel
from repro.fuzz.generator import build_kernel
from repro.fuzz.metamorphic import (
    assert_stall_accounting,
    check_timing_invariants,
)
from repro.fuzz.spec import generate_spec
from repro.profiling.stalls import StallCause
from repro.sim.config import wasp_gpu
from repro.sim.gpu import simulate_kernel
from repro.sim.sm import SMSimulator

#: Seeds with known skeletons (pinned by the generator determinism
#: tests): 2 = streaming, 7 = tiled.
STREAMING_SEED = 2
TILED_SEED = 7


def _baseline_traces(seed):
    kernel = build_kernel(generate_spec(seed))
    result = run_kernel(kernel.program, kernel.image_factory(),
                        kernel.launch)
    return kernel, result.traces


def _specialized_traces(seed, queue_size=32):
    kernel = build_kernel(generate_spec(seed))
    options = WaspCompilerOptions(
        queue_size=queue_size, enable_tma_offload=False
    )
    result = WaspCompiler(options).compile(
        kernel.program, num_warps=kernel.launch.num_warps
    )
    assert result.specialized
    launch = replace(
        kernel.launch,
        num_warps=kernel.launch.num_warps * result.num_stages,
    )
    run = run_kernel(result.program, kernel.image_factory(), launch)
    return kernel, run.traces


def _stalls(traces, gpu, occupancy=None):
    sim = simulate_kernel(traces, gpu, occupancy=occupancy)
    assert_stall_accounting(sim)  # the standing invariant, every sim
    return sim.stall_by_cause()


class TestEachStallBucketHasAGeneratedTrigger:
    def test_scoreboard(self):
        _kernel, traces = _baseline_traces(STREAMING_SEED)
        assert _stalls(traces, wasp_gpu())[StallCause.SCOREBOARD] > 0

    def test_issue_port(self):
        _kernel, traces = _baseline_traces(STREAMING_SEED)
        gpu = replace(wasp_gpu(), processing_blocks=1)
        assert _stalls(traces, gpu)[StallCause.ISSUE_PORT] > 0

    def test_mshr(self):
        _kernel, traces = _baseline_traces(STREAMING_SEED)
        gpu = replace(wasp_gpu(), max_outstanding_loads_per_warp=1)
        assert _stalls(traces, gpu)[StallCause.MSHR] > 0

    def test_barrier_wait(self):
        _kernel, traces = _baseline_traces(TILED_SEED)
        assert _stalls(traces, wasp_gpu())[StallCause.BARRIER_WAIT] > 0

    def test_queue_empty(self):
        _kernel, traces = _specialized_traces(STREAMING_SEED)
        assert _stalls(traces, wasp_gpu())[StallCause.QUEUE_EMPTY] > 0

    def test_queue_full(self):
        _kernel, traces = _specialized_traces(STREAMING_SEED,
                                              queue_size=1)
        gpu = wasp_gpu(rfq_size=1)
        assert _stalls(traces, gpu)[StallCause.QUEUE_FULL] > 0

    def test_no_eligible(self):
        """Warps whose thread block is queued behind an occupancy limit
        idle with no attributable hardware cause."""
        _kernel, traces = _baseline_traces(STREAMING_SEED)
        gpu = wasp_gpu()
        occupancy = replace(
            SMSimulator(gpu, traces).occupancy, max_resident_tbs=1
        )
        stalls = _stalls(traces, gpu, occupancy=occupancy)
        assert stalls[StallCause.NO_ELIGIBLE] > 0


def test_assert_stall_accounting_rejects_corruption():
    _kernel, traces = _baseline_traces(STREAMING_SEED)
    sim = simulate_kernel(traces, wasp_gpu())
    broken = replace(sim, active_warp_cycles=sim.active_warp_cycles + 10)
    with pytest.raises(AssertionError, match="stall accounting"):
        assert_stall_accounting(broken)


@pytest.mark.parametrize("seed", [2, 7, 13, 21])
def test_timing_invariants_hold_on_generated_kernels(seed):
    spec = generate_spec(seed)
    kernel = build_kernel(spec)
    result = run_kernel(kernel.program, kernel.image_factory(),
                        kernel.launch)
    failures = check_timing_invariants(spec, kernel, result.traces)
    assert not failures, [f.summary() for f in failures]


def test_violations_are_reported_not_raised(monkeypatch):
    """A broken stall invariant comes back as a FuzzFailure (so the
    fuzz runner can shrink and persist it), never as an exception."""
    import repro.fuzz.metamorphic as meta

    def explode(sim, context=""):
        raise AssertionError("stall accounting broken (sabotaged)")

    monkeypatch.setattr(meta, "assert_stall_accounting", explode)
    spec = generate_spec(2)
    kernel = build_kernel(spec)
    result = run_kernel(kernel.program, kernel.image_factory(),
                        kernel.launch)
    failures = meta.check_timing_invariants(spec, kernel, result.traces)
    assert [f.check for f in failures] == ["timing-stall-accounting"]


def _spy_replays(monkeypatch, tamper=None):
    """Record every replay ``check_timing_invariants`` runs; ``tamper``
    may rewrite the n-th (0-based) result."""
    import repro.fuzz.metamorphic as meta

    real = meta.simulate_kernel
    replays = []

    def spy(traces, gpu, occupancy=None, **kwargs):
        sim = real(traces, gpu, occupancy=occupancy, **kwargs)
        if tamper is not None:
            sim = tamper(len(replays), sim)
        replays.append(sim)
        return sim

    monkeypatch.setattr(meta, "simulate_kernel", spy)
    return replays


@pytest.mark.parametrize("seed", [STREAMING_SEED, TILED_SEED])
def test_ladder_replays_each_observable_gpu_once(monkeypatch, seed):
    """On baseline traces the x1.0 bandwidth rung, the 400-cycle
    latency rung and the three RFQ rungs are ``base``; the determinism
    check still replays ``base`` afresh."""
    replays = _spy_replays(monkeypatch)
    spec = generate_spec(seed)
    kernel, traces = _baseline_traces(seed)
    assert check_timing_invariants(spec, kernel, traces) == []
    assert len(replays) == 6
    base, again = replays[:2]
    assert again is not base and again == base


@pytest.mark.parametrize("seed", [STREAMING_SEED, TILED_SEED])
def test_merged_rungs_equal_a_fresh_replay(seed):
    """Every rung the ladder reads from ``base`` replays to ``base``."""
    from repro.fuzz.metamorphic import RFQ_LADDER
    from repro.sim.occupancy import trace_occupancy

    _kernel, traces = _baseline_traces(seed)
    base_gpu = wasp_gpu()
    base = simulate_kernel(traces, base_gpu)
    pinned = trace_occupancy(wasp_gpu(rfq_size=RFQ_LADDER[0]), traces)
    assert simulate_kernel(traces, base_gpu.scale_bandwidth(1.0)) == base
    assert simulate_kernel(
        traces, replace(base_gpu, dram_latency=400)
    ) == base
    for rfq in RFQ_LADDER:
        assert simulate_kernel(
            traces, wasp_gpu(rfq_size=rfq), occupancy=pinned
        ) == base


def test_nondeterministic_second_replay_is_reported(monkeypatch):
    """``again`` is a fresh replay: a simulator whose second run of
    ``base`` differs is caught."""
    def tamper(index, sim):
        return replace(sim, cycles=sim.cycles + 1) if index == 1 else sim

    _spy_replays(monkeypatch, tamper)
    spec = generate_spec(STREAMING_SEED)
    kernel, traces = _baseline_traces(STREAMING_SEED)
    failures = check_timing_invariants(spec, kernel, traces)
    assert [f.check for f in failures] == ["timing-nondeterminism"]

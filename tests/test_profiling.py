"""Pipeline profiler: stall attribution, queue occupancy, Chrome trace.

The load-bearing property is the accounting invariant — every active
warp-cycle is attributed to exactly one issue or one stall cause::

    sum(stall_cycles over (stage, cause)) + issued_total
        == active_warp_cycles

checked here over several registry workloads under both the baseline
and the WASP configurations.  The profiler must also never perturb
timing: a profiled replay reports the same cycle count as the
unprofiled run.
"""

import json

import pytest

from repro.experiments.configs import (
    baseline_config,
    standard_configs,
    wasp_gpu_config,
)
from repro.experiments.runner import TraceCache, profile_kernel
from repro.profiling import (
    PipelineProfiler,
    StallCause,
    TIMELINE_BUCKET,
    build_chrome_trace,
    validate_chrome_trace,
)
from repro.profiling import report as profreport
from repro.sim.gpu import simulate_kernel
from repro.workloads import get_benchmark

SCALE = 0.1
INVARIANT_WORKLOADS = ["pointnet", "spmv1_g3", "lonestar_bfs", "bert"]

_CACHE = TraceCache()


def _first_kernel(name):
    return get_benchmark(name, SCALE).kernels[0]


def _traces(name):
    return _CACHE.original(_first_kernel(name)).traces


# -- stall attribution invariant (all counters always on) -------------------


@pytest.mark.parametrize("workload", INVARIANT_WORKLOADS)
@pytest.mark.parametrize(
    "config", standard_configs(), ids=lambda c: c.name
)
def test_stall_invariant(workload, config):
    sim = simulate_kernel(_traces(workload), config.gpu)
    assert sim.active_warp_cycles > 0
    assert sim.stall_total + sim.issued_total == pytest.approx(
        sim.active_warp_cycles, rel=1e-9
    )


def test_stall_causes_present_and_nonnegative():
    sim = simulate_kernel(_traces("pointnet"), baseline_config().gpu)
    assert sim.stall_cycles, "a real workload must record some stalls"
    for (stage, cause), cycles in sim.stall_cycles.items():
        assert isinstance(stage, int)
        assert isinstance(cause, StallCause)
        assert cycles > 0
    rollup = sim.stall_by_cause()
    assert sum(rollup.values()) == pytest.approx(sim.stall_total)
    assert 0.0 <= sim.stall_fraction(StallCause.SCOREBOARD) <= 1.0


def test_specialized_kernel_records_queue_stalls():
    result, _prof = profile_kernel(
        _first_kernel("pointnet"), wasp_gpu_config(), cache=_CACHE
    )
    if not result.used_specialized:
        pytest.skip("pointnet did not specialize at this scale")
    causes = set(result.sim.stall_by_cause())
    assert causes & {StallCause.QUEUE_EMPTY, StallCause.QUEUE_FULL}


# -- profiling must not perturb timing --------------------------------------


@pytest.mark.parametrize("config", [baseline_config(), wasp_gpu_config()],
                         ids=lambda c: c.name)
def test_profiled_replay_matches_unprofiled(config):
    traces = _traces("pointnet")
    bare = simulate_kernel(traces, config.gpu)
    profiled = simulate_kernel(
        traces, config.gpu, profiler=PipelineProfiler()
    )
    assert profiled.cycles == bare.cycles
    assert profiled.issued_total == bare.issued_total
    assert profiled.stall_cycles == bare.stall_cycles


# -- satellite 1: the timeline covers the memory drain tail -----------------


def test_timeline_covers_drain_tail():
    """The bucketed timeline's time axis must reach the cycle count.

    Kernel completion waits for stores to drain through the bandwidth
    servers; the summarized timeline used to end at the last bucket
    with issue activity, silently dropping that tail from Figure 3.
    """
    for config in (baseline_config(), wasp_gpu_config()):
        sim = simulate_kernel(_traces("pointnet"), config.gpu)
        assert sim.timeline, "timeline must not be empty"
        times = [t for t, _c, _m in sim.timeline]
        # Contiguous buckets from zero...
        assert times == [i * TIMELINE_BUCKET for i in range(len(times))]
        # ...reaching the final cycle (drain included).
        assert times[-1] + TIMELINE_BUCKET >= sim.cycles


# -- queue occupancy --------------------------------------------------------


def test_queue_profiles_consistency():
    result, profiler = profile_kernel(
        _first_kernel("pointnet"), wasp_gpu_config(), cache=_CACHE
    )
    profiles = result.sim.queue_profiles
    if not profiles:
        pytest.skip("kernel has no queues under this configuration")
    for prof in profiles:
        assert prof.capacity > 0
        assert prof.pushes >= prof.pops
        assert 0.0 <= prof.mean_depth() <= prof.capacity
        assert prof.max_depth() <= prof.capacity
        assert 0.0 <= prof.full_fraction() <= 1.0
        assert 0.0 <= prof.empty_fraction() <= 1.0
        # Depth histogram spans [first event, end of run].
        assert prof.observed_cycles <= result.sim.cycles + 1e-9
        # The bucketed series agrees with the histogram's total mass.
        if prof.series:
            assert all(
                0.0 <= mean <= prof.capacity and mx <= prof.capacity
                for _t, mean, mx in prof.series
            )


# -- event trace ring buffer ------------------------------------------------


def test_ring_buffer_drops_oldest_beyond_capacity():
    traces = _traces("pointnet")
    small = PipelineProfiler(trace_capacity=64)
    simulate_kernel(traces, baseline_config().gpu, profiler=small)
    assert small.events_recorded > 64
    assert len(small.events) == 64
    assert small.dropped_events == small.events_recorded - 64

    big = PipelineProfiler()
    simulate_kernel(traces, baseline_config().gpu, profiler=big)
    assert big.dropped_events == 0
    assert big.events_recorded == small.events_recorded


def test_trace_disabled_records_nothing():
    prof = PipelineProfiler(trace_events=False)
    simulate_kernel(_traces("pointnet"), baseline_config().gpu,
                    profiler=prof)
    assert prof.events_recorded == 0
    assert len(prof.events) == 0


# -- Chrome trace export ----------------------------------------------------


def _profiled(config):
    prof = PipelineProfiler()
    simulate_kernel(_traces("pointnet"), config.gpu, profiler=prof)
    return prof


def test_chrome_trace_valid_and_loads_as_json(tmp_path):
    from repro.profiling.chrometrace import write_chrome_trace

    path = tmp_path / "trace.json"
    trace = write_chrome_trace(
        str(path), [("pointnet", _profiled(wasp_gpu_config()))]
    )
    assert validate_chrome_trace(trace) == []
    reloaded = json.loads(path.read_text())
    assert reloaded["displayTimeUnit"] == "ms"
    events = reloaded["traceEvents"]
    assert events
    slices = [e for e in events if e["ph"] == "X"]
    assert slices, "trace must contain complete slices"
    for ev in slices:
        assert {"name", "pid", "tid", "ts", "dur"} <= set(ev)
    # Warp tracks are named via metadata events.
    names = [e for e in events if e["ph"] == "M"
             and e["name"] == "thread_name"]
    assert any("warp" in e["args"]["name"] for e in names)


def test_artifact_trace_out_carries_toolchain_rows(tmp_path, capsys):
    """``--trace-out`` on an artifact writes the toolchain spans as
    their own rows, and the written file validates."""
    from repro.cli import main
    from repro.profiling.chrometrace import main as check_trace

    path = tmp_path / "fig14.json"
    assert main([
        "fig14", "--scale", "0.1", "--benchmarks", "pointnet",
        "--cache-dir", str(tmp_path / "cache"), "--trace-out", str(path),
    ]) == 0
    rows = {
        e["args"]["name"] for e in json.loads(path.read_text())["traceEvents"]
        if e["name"] == "process_name"
    }
    assert "toolchain: compiler" in rows
    capsys.readouterr()
    assert check_trace([str(path)]) == 0
    assert capsys.readouterr().out.startswith("OK:")


def test_chrome_trace_multi_section_pids_disjoint():
    a = _profiled(baseline_config())
    b = _profiled(wasp_gpu_config())
    trace = build_chrome_trace([("base", a), ("wasp", b)])
    assert validate_chrome_trace(trace) == []
    # Events of different sections must not share pids.
    pids = {}
    for ev in trace["traceEvents"]:
        section = "a" if ev["pid"] < 2_000_000 else "b"
        pids.setdefault(section, set()).add(ev["pid"])
    assert pids["a"].isdisjoint(pids["b"])


def test_validate_rejects_malformed_traces():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) != []
    assert validate_chrome_trace(
        {"displayTimeUnit": "ms", "traceEvents": [{"ph": "X"}]}
    ) != []
    missing_dur = {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 1.0}
        ],
    }
    assert any("dur" in e for e in validate_chrome_trace(missing_dur))


# -- report rendering -------------------------------------------------------


def test_stall_breakdown_text_states_invariant():
    sim = simulate_kernel(_traces("pointnet"), baseline_config().gpu)
    text = profreport.profile_text(sim)
    assert "Where warp-cycles went" in text
    assert f"active warp-cycles: {sim.active_warp_cycles:.0f}" in text
    assert f"{sim.issued_total} issued" in text


def test_profile_json_is_json_serializable():
    result, _prof = profile_kernel(
        _first_kernel("pointnet"), wasp_gpu_config(), cache=_CACHE
    )
    doc = profreport.profile_json(result.sim, config_name="WASP_GPU")
    text = json.dumps(doc)
    parsed = json.loads(text)
    assert parsed["schema"] == "repro-profile-v1"
    total = sum(parsed["stalls_by_cause"].values())
    assert total + parsed["issued_total"] == pytest.approx(
        parsed["active_warp_cycles"]
    )


def test_profile_kernel_timing_matches_run_kernel():
    from repro.experiments.runner import run_kernel

    kernel = _first_kernel("pointnet")
    config = wasp_gpu_config()
    plain = run_kernel(kernel, config, _CACHE)
    profiled, profiler = profile_kernel(kernel, config, cache=_CACHE)
    assert profiled.cycles == plain.cycles
    assert profiled.used_specialized == plain.used_specialized
    assert profiler.events_recorded > 0

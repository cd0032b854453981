"""Parallel sweep runner: determinism, job resolution, reporting.

The key property is numerical equivalence: ``--jobs N`` must reproduce
the exact figures of a serial run.  These tests run a small benchmark
subset at reduced scale against an isolated temporary cache directory.
"""

import os
import time
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.experiments import runner
from repro.experiments.configs import (
    baseline_config,
    compiler_all_config,
    compiler_tile_config,
    wasp_gpu_config,
)
from repro.experiments.parallel import (
    fan_out,
    last_report,
    resolve_jobs,
    run_sweep,
)
from repro.experiments.reporting import format_cache_report
from repro.experiments.runner import CacheStats, TraceCache
from repro.fexec.trace_store import TraceStore

SCALE = 0.1
FAST = ["pointnet", "lonestar_bfs"]


@pytest.fixture
def isolated_cache(tmp_path):
    """Point GLOBAL_CACHE at an empty store in a fresh state."""
    saved = runner.GLOBAL_CACHE.__dict__.copy()
    runner.GLOBAL_CACHE._entries = {}
    runner.GLOBAL_CACHE.stats = CacheStats()
    runner.GLOBAL_CACHE.store = TraceStore(tmp_path / "cache")
    yield runner.GLOBAL_CACHE
    runner.GLOBAL_CACHE.__dict__.update(saved)


def _configs():
    return [baseline_config(), wasp_gpu_config()]


def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == 1
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert resolve_jobs(None) == 4
    assert resolve_jobs(2) == 2
    monkeypatch.setenv("REPRO_JOBS", "garbage")
    assert resolve_jobs(None) == 1


def test_parallel_matches_serial(isolated_cache):
    configs = _configs()
    serial = run_sweep(FAST, SCALE, configs, jobs=1)
    parallel = run_sweep(FAST, SCALE, configs, jobs=2)
    for name in FAST:
        for idx in range(len(configs)):
            assert parallel.total_cycles(name, idx) == pytest.approx(
                serial.total_cycles(name, idx), rel=0, abs=0
            )


def test_parallel_results_keep_kernel_objects(isolated_cache):
    sweep = run_sweep(["pointnet"], SCALE, [baseline_config()], jobs=2)
    result = sweep.benchmark_result("pointnet", 0)
    assert all(k.kernel is not None for k in result.kernels)
    assert result.total_cycles > 0


def test_second_sweep_is_all_cache_hits(isolated_cache):
    configs = _configs()
    run_sweep(FAST, SCALE, configs, jobs=1)
    again = run_sweep(FAST, SCALE, configs, jobs=1)
    assert again.report.stats.generations == 0
    assert again.report.stats.lookups > 0


def test_kernel_names_filter(isolated_cache):
    from repro.workloads import get_benchmark

    bench = get_benchmark("pointnet", SCALE)
    only = bench.kernels[0].name
    sweep = run_sweep(
        ["pointnet"], SCALE, [baseline_config()],
        kernel_names={"pointnet": [only]},
    )
    assert sweep.report.num_tasks == 1
    assert sweep.kernel_result("pointnet", only, 0).cycles > 0
    if len(bench.kernels) > 1:
        with pytest.raises(KeyError):
            sweep.kernel_result("pointnet", bench.kernels[1].name, 0)


def test_report_recorded_and_renders(isolated_cache):
    sweep = run_sweep(["pointnet"], SCALE, [baseline_config()], jobs=1)
    report = last_report()
    assert report is sweep.report
    assert report.num_tasks == len(
        sweep.benchmark_result("pointnet", 0).kernels
    )
    text = format_cache_report(report)
    assert "jobs=1" in text
    assert "trace cache:" in text


def test_trace_cache_default_constructor_is_memory_only():
    cache = TraceCache()
    assert cache.store is None


def test_parallel_cache_stats_aggregate_from_workers(isolated_cache,
                                                     tmp_path):
    """Worker-side hit/miss counters reach the parent's report, and
    equal a serial sweep's exactly.

    Every sweep groups its cells by kernel content digest and runs each
    group in one process; trace-cache keys start with that digest, so
    no two workers ever look up the same trace.  On two fresh stores,
    ``jobs=1`` and ``jobs=2`` therefore count the same memory hits,
    disk hits and generations — each unique (kernel, options) trace is
    generated exactly once: not zero times (counters lost in the pool)
    and not more (duplicated work).
    """
    from repro.experiments.runner import _compiler_options_for, _options_key
    from repro.workloads import get_benchmark

    configs = _configs()
    serial = run_sweep(FAST, SCALE, configs, jobs=1).report.stats
    isolated_cache._entries = {}
    isolated_cache.stats = CacheStats()
    isolated_cache.store = TraceStore(tmp_path / "cache-jobs2")
    sweep = run_sweep(FAST, SCALE, configs, jobs=2)
    stats = sweep.report.stats
    assert stats.to_json() == serial.to_json()

    unique = set()
    for name in FAST:
        for kernel in get_benchmark(name, SCALE).kernels:
            digest = kernel.content_digest()
            unique.add((digest, None))
            for config in configs:
                options = _compiler_options_for(kernel, config)
                if options is not None:
                    unique.add((digest, _options_key(options)))
    assert stats.generations == len(unique)
    assert stats.lookups > stats.generations  # later cells hit the cache

    # A second parallel sweep over the same store is generation-free.
    again = run_sweep(FAST, SCALE, configs, jobs=2)
    assert again.report.stats.generations == 0
    assert (
        again.report.stats.memory_hits + again.report.stats.disk_hits > 0
    )


def test_sweep_stall_aggregation_matches_serial(isolated_cache):
    """Stall roll-ups are assembled in the parent: jobs-invariant, also
    when three configs share ``baseline_a100()`` and so share replays
    through the result tier."""
    configs = [baseline_config(), compiler_tile_config(),
               compiler_all_config(), wasp_gpu_config()]
    serial = run_sweep(FAST, SCALE, configs, jobs=1)
    parallel = run_sweep(FAST, SCALE, configs, jobs=2)
    assert serial.report.stall_cycles
    assert parallel.report.stall_cycles == serial.report.stall_cycles
    assert serial.report.stats.sim_reuses > 0
    assert parallel.report.stats.sim_reuses == (
        serial.report.stats.sim_reuses
    )
    assert parallel.report.issued_total == serial.report.issued_total
    assert parallel.report.active_warp_cycles == pytest.approx(
        serial.report.active_warp_cycles
    )
    # The sweep-level invariant holds (it holds per simulation).
    total = sum(serial.report.stall_cycles.values())
    assert total + serial.report.issued_total == pytest.approx(
        serial.report.active_warp_cycles
    )


def test_sweep_profile_json_includes_cache_stats(isolated_cache):
    from repro.profiling.report import sweep_stalls_json, sweep_stalls_text

    sweep = run_sweep(["pointnet"], SCALE, _configs(), jobs=1)
    doc = sweep_stalls_json(sweep.report)
    assert doc["schema"] == "repro-sweep-profile-v1"
    assert doc["trace_cache"]["generations"] == (
        sweep.report.stats.generations
    )
    assert doc["stalls_by_cause"]
    import json

    json.dumps(doc)  # plain JSON types only
    text = sweep_stalls_text(sweep.report)
    assert text.startswith("sweep stalls:")


# -- fan_out: one contract for sweeps and fuzz seeds ------------------------


def _sleep_unit(unit):
    """Mark the unit as started, then sleep (module-level: picklable)."""
    marks, index, seconds = unit
    Path(marks, str(index)).touch()
    time.sleep(seconds)
    return index


def _die_on_one(index):
    if index == 1:
        os._exit(3)
    time.sleep(0.5)
    return index


@pytest.mark.parametrize("jobs", [1, 2])
def test_fan_out_deadline_returns_every_started_unit(tmp_path, jobs):
    """No unit starts after the deadline; every started unit (also one
    still running in a worker when it passes) is awaited and returned,
    so the result is a prefix of the units."""
    units = [(str(tmp_path), i, 0.3) for i in range(10)]
    done = fan_out(_sleep_unit, units, jobs,
                   deadline=time.perf_counter() + 0.45)
    started = sorted(int(p.name) for p in tmp_path.iterdir())
    assert 0 < len(done) < len(units)
    assert done == list(range(len(done)))
    assert started == done


def test_fan_out_names_units_in_flight_when_a_worker_dies():
    with pytest.raises(ReproError, match="worker process died") as info:
        fan_out(_die_on_one, range(4), jobs=2,
                name=lambda i: f"unit {i}")
    assert "unit 1" in str(info.value)
    assert "unit 2" not in str(info.value)  # never handed to a worker


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_failure_names_the_cell(isolated_cache, monkeypatch, jobs):
    from repro.experiments import parallel
    from repro.workloads import get_benchmark

    bad = get_benchmark("pointnet", SCALE).kernels[0].name
    real = parallel.run_kernel

    def run_kernel(kernel, config, *args, **kwargs):
        if kernel.name == bad and config.name == "WASP_GPU":
            raise RuntimeError("injected")
        return real(kernel, config, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_kernel", run_kernel)
    with pytest.raises(ReproError) as info:
        run_sweep(["pointnet"], SCALE, _configs(), jobs=jobs)
    assert f"pointnet/{bad}[WASP_GPU]" in str(info.value)
    assert isinstance(info.value.__cause__, RuntimeError)

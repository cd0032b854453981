"""Parallel sweep runner: determinism, job resolution, reporting.

The key property is numerical equivalence: ``--jobs N`` must reproduce
the exact figures of a serial run.  These tests run a small benchmark
subset at reduced scale against an isolated temporary cache directory.
"""

import pytest

from repro.experiments import runner
from repro.experiments.configs import (
    baseline_config,
    compiler_all_config,
    compiler_tile_config,
    wasp_gpu_config,
)
from repro.experiments.parallel import (
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


def test_parallel_cache_stats_aggregate_from_workers(isolated_cache):
    """Worker-side hit/miss counters must reach the parent's report.

    With a cold cache and ``jobs=2``, the warm phase generates each
    unique (kernel, options) trace exactly once across the pool; the
    deltas are measured inside the workers and merged in the parent, so
    the report must show exactly that many generations — not zero
    (counters lost in the pool) and not more (duplicated work).
    """
    configs = _configs()
    sweep = run_sweep(FAST, SCALE, configs, jobs=2)
    stats = sweep.report.stats

    unique = set()
    for name in FAST:
        from repro.experiments.runner import _options_key
        from repro.experiments.parallel import _compiler_options_for
        from repro.workloads import get_benchmark

        for kernel in get_benchmark(name, SCALE).kernels:
            digest = kernel.content_digest()
            unique.add((digest, None))
            for config in configs:
                options = _compiler_options_for(kernel, config)
                if options is not None:
                    unique.add((digest, _options_key(options)))
    assert stats.generations == len(unique)
    assert stats.lookups > stats.generations  # sim phase hits the cache

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

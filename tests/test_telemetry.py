"""Telemetry layer: registry, snapshots, spans, exports, dashboard.

Covers the ISSUE 7 contracts:

* histogram bucketing and merge associativity (property tests),
* snapshot delta/merge algebra used by the pool workers,
* the ``repro-metrics-v1`` document validator and Prometheus
  round-trip,
* jobs-invariance of aggregated sweep telemetry (serial vs
  ``--jobs 2`` identical invariant counters),
* span export into the Chrome trace writer,
* the ``repro bench report`` trajectory dashboard,
* the per-core perf fields on ``CoreDiff`` / ``SweepReport``.
"""

from __future__ import annotations

import json
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.registry import (
    TELEMETRY,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    exponential_buckets,
)
from repro.telemetry.snapshot import (
    METRICS_SCHEMA,
    build_metrics_document,
    missing_families,
    parse_prometheus,
    render_prometheus,
    validate_metrics_document,
)
from repro.telemetry.spans import SpanRecorder
from repro.telemetry.trajectory import (
    build_bench_report,
    render_bench_report,
)

BOUNDS = exponential_buckets(0.001, 4.0, 8)


# -- buckets and histograms -------------------------------------------------


def test_exponential_buckets_shape():
    bounds = exponential_buckets(1e-4, 4.0, 12)
    assert len(bounds) == 12
    assert bounds[0] == pytest.approx(1e-4)
    assert all(b2 / b1 == pytest.approx(4.0)
               for b1, b2 in zip(bounds, bounds[1:]))


def test_exponential_buckets_rejects_bad_args():
    for start, factor, count in [(0, 2, 4), (-1, 2, 4), (1, 1, 4),
                                 (1, 0.5, 4), (1, 2, 0)]:
        with pytest.raises(ValueError):
            exponential_buckets(start, factor, count)


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("repro_x", (), bounds=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("repro_x", (), bounds=(1.0, 1.0, 2.0))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), max_size=50))
def test_histogram_bucketing_property(values):
    hist = Histogram("repro_test_seconds", (), bounds=BOUNDS)
    for v in values:
        hist.observe(v)
    assert hist.count == len(values)
    assert sum(hist.counts) == hist.count
    assert hist.sum == pytest.approx(sum(values))
    # Every value lands in the first bucket whose bound >= value
    # ("le" semantics); the overflow bucket catches the rest.
    expected = [0] * (len(BOUNDS) + 1)
    for v in values:
        expected[bisect_left(BOUNDS, v)] += 1
    assert hist.counts == expected
    for i, v in enumerate(BOUNDS):
        single = Histogram("repro_one", (), bounds=BOUNDS)
        single.observe(v)
        assert single.counts[i] == 1  # boundary value is <= its bound


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0, 1e4, allow_nan=False), max_size=20),
    st.lists(st.floats(0, 1e4, allow_nan=False), max_size=20),
    st.lists(st.floats(0, 1e4, allow_nan=False), max_size=20),
)
def test_histogram_merge_associative_commutative(xs, ys, zs):
    def build(values):
        h = Histogram("repro_m", (), bounds=BOUNDS)
        for v in values:
            h.observe(v)
        return h

    # (x + y) + z == x + (y + z) == (y + x) + z, element-wise.
    left = build(xs)
    left.merge(build(ys))
    left.merge(build(zs))
    inner = build(ys)
    inner.merge(build(zs))
    right = build(xs)
    right.merge(inner)
    swapped = build(ys)
    swapped.merge(build(xs))
    swapped.merge(build(zs))
    for other in (right, swapped):
        assert left.counts == other.counts
        assert left.count == other.count
        assert left.sum == pytest.approx(other.sum)


def test_histogram_merge_rejects_different_bounds():
    a = Histogram("repro_h", (), bounds=(1.0, 2.0))
    b = Histogram("repro_h", (), bounds=(1.0, 4.0))
    with pytest.raises(ValueError):
        a.merge(b)


def test_observe_many_matches_repeated_observe():
    a = Histogram("repro_h", (), bounds=BOUNDS)
    b = Histogram("repro_h", (), bounds=BOUNDS)
    a.observe_many(0.5, 7)
    a.observe_many(0.5, 0)  # no-op
    for _ in range(7):
        b.observe(0.5)
    assert a.counts == b.counts and a.sum == b.sum


# -- registry and snapshots -------------------------------------------------


def test_registry_get_or_create_and_kind_conflict():
    reg = MetricsRegistry(enabled=True)
    c = reg.counter("repro_x_total", {"k": "v"})
    assert reg.counter("repro_x_total", {"k": "v"}) is c
    assert reg.counter("repro_x_total", {"k": "w"}) is not c
    with pytest.raises(ValueError):
        reg.gauge("repro_x_total", {"k": "v"})


def test_gauge_set_max():
    reg = MetricsRegistry(enabled=True)
    g = reg.gauge("repro_g")
    g.set(2.0)
    g.set_max(1.0)
    assert g.value == 2.0
    g.set_max(3.0)
    assert g.value == 3.0
    assert not g.invariant  # gauges never join the invariance contract


def test_snapshot_since_and_merge_roundtrip():
    reg = MetricsRegistry(enabled=True)
    reg.counter("repro_a_total").inc(3)
    reg.histogram("repro_h_seconds", bounds=BOUNDS).observe(0.01)
    before = reg.snapshot()
    reg.counter("repro_a_total").inc(4)
    reg.counter("repro_b_total", {"phase": "x"}).inc(1)
    reg.histogram("repro_h_seconds", bounds=BOUNDS).observe(0.02)
    after = reg.snapshot()

    delta = after.since(before)
    key = ("repro_a_total", ())
    assert delta.entries[key]["value"] == 4.0

    # before + delta == after for counters and histograms.
    rebuilt = MetricsSnapshot()
    rebuilt.merge(before)
    rebuilt.merge(delta)
    for k, entry in after.entries.items():
        got = rebuilt.entries[k]
        if entry["kind"] == "histogram":
            assert got["counts"] == entry["counts"]
            assert got["count"] == entry["count"]
        else:
            assert got["value"] == entry["value"]


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.integers(0, 100)),
    max_size=12,
))
def test_snapshot_merge_order_independent(incs):
    """Merging per-task deltas yields the same totals in any order —
    the property that makes --jobs N aggregation deterministic."""
    def snap_of(name, amount):
        reg = MetricsRegistry(enabled=True)
        reg.counter(f"repro_{name}_total").inc(amount)
        return reg.snapshot()

    deltas = [snap_of(n, a) for n, a in incs]
    forward = MetricsSnapshot()
    for d in deltas:
        forward.merge(d)
    backward = MetricsSnapshot()
    for d in reversed(deltas):
        backward.merge(d)
    assert (forward.invariant_counters()
            == backward.invariant_counters())


def test_invariant_counters_excludes_non_invariant():
    reg = MetricsRegistry(enabled=True)
    reg.counter("repro_keep_total", invariant=True).inc(1)
    reg.counter("repro_drop_total", invariant=False).inc(1)
    reg.gauge("repro_g").set(5)
    flat = reg.snapshot().invariant_counters()
    assert "repro_keep_total" in flat
    assert "repro_drop_total" not in flat
    assert not any(k.startswith("repro_g") for k in flat)


def test_registry_disabled_by_default_in_tests():
    # The suite must not run with REPRO_TELEMETRY globally on, or the
    # overhead guarantees aren't what we're exercising.
    assert not TELEMETRY.enabled


# -- spans ------------------------------------------------------------------


def test_span_recorder_bounded_and_grouped():
    rec = SpanRecorder(maxlen=3)
    for i in range(5):
        with rec.span("compiler", f"pass{i}"):
            pass
    spans = rec.spans()
    assert len(spans) == 3
    assert rec.dropped == 2
    assert [s.name for s in spans] == ["pass2", "pass3", "pass4"]
    assert set(rec.by_subsystem()) == {"compiler"}
    assert all(s.duration_s >= 0 for s in spans)
    rec.clear()
    assert rec.spans() == [] and rec.dropped == 0


def test_span_records_pass_histogram(clean_telemetry):
    rec = SpanRecorder()
    with rec.span("verifier", "verify"):
        pass
    hist = clean_telemetry.histogram(
        "repro_pass_seconds",
        {"subsystem": "verifier", "pass": "verify"},
    )
    assert hist.count == 1
    assert not hist.invariant  # wall time is machine-dependent


def test_chrome_trace_with_spans_validates():
    from repro.profiling.chrometrace import (
        build_chrome_trace,
        validate_chrome_trace,
    )

    rec = SpanRecorder()
    with rec.span("compiler", "build_pdg"):
        pass
    with rec.span("sim", "replay"):
        pass
    trace = build_chrome_trace([], spans=rec)
    assert validate_chrome_trace(trace) == []
    names = {e["name"] for e in trace["traceEvents"]}
    assert {"build_pdg", "replay", "process_name"} <= names
    rows = {
        e["args"]["name"] for e in trace["traceEvents"]
        if e["name"] == "process_name"
    }
    assert rows == {"toolchain: compiler", "toolchain: sim"}


def test_compile_spans_and_pdg_counter(clean_telemetry):
    """Every compile pass is spanned, and each PDG build is counted."""
    from repro.core.compiler import WaspCompiler, WaspCompilerOptions
    from repro.telemetry.spans import SPANS
    from repro.workloads import get_benchmark

    kernel = get_benchmark("pointnet", 0.25).kernel("ball_query_gather")
    SPANS.clear()
    result = WaspCompiler(
        WaspCompilerOptions(verify=False, validate=False)
    ).compile(kernel.program, kernel.launch.num_warps)
    assert result.offload is not None and result.offload.gathers
    names = {s.name for s in SPANS.by_subsystem()["compiler"]}
    assert {"compile", "buffering", "plan_extraction", "stage_split",
            "tma_offload", "finalize"} <= names
    builds = clean_telemetry.counter("repro_compiler_pdg_builds_total")
    # The working program once, then one graph per stage program.
    assert builds.value == 1 + result.plan.num_stages


def test_hb_spans_split_build_from_solve(clean_telemetry):
    """HB time shows graph building and shortest-shift solving apart."""
    from repro.analysis.facts import PipelineFacts
    from repro.fuzz.mutate import apply_mutation
    from repro.profiling.chrometrace import build_chrome_trace
    from repro.telemetry.spans import SPANS
    from tests.test_analysis_dataflow import build_ring_program

    def hb_spans(program):
        SPANS.clear()
        analysis = PipelineFacts(program).hb
        return analysis, [s.name for s in SPANS.by_subsystem()["verifier"]]

    _, names = hb_spans(build_ring_program())
    assert names == ["hb-build", "hb-solve"]
    # A pair racy only at non-zero shifts re-solves on the depth-1
    # credit graph: a second build and a second solve.
    mutant = apply_mutation(build_ring_program(), "phase-off-by-one")
    analysis, names = hb_spans(mutant)
    assert "WASP-S004" in {v.rule for v in analysis.racy()}
    assert names == ["hb-build", "hb-solve", "hb-build", "hb-solve"]
    for name, count in (("hb-build", 3), ("hb-solve", 3)):
        hist = clean_telemetry.histogram(
            "repro_pass_seconds", {"subsystem": "verifier", "pass": name}
        )
        assert hist.count == count
    events = build_chrome_trace([], spans=SPANS)["traceEvents"]
    assert {"hb-build", "hb-solve"} <= {e["name"] for e in events}


def test_oracle_sanitizer_and_advise_spans():
    """The fuzz oracle's phases, a sanitized run and an advise call
    each get a span, and the trace shows them as their own rows."""
    from repro.analysis.perfmodel.advisor import advise_kernel
    from repro.experiments.configs import standard_configs
    from repro.fexec.machine import run_kernel
    from repro.fuzz.generator import build_kernel
    from repro.fuzz.oracle import run_oracle
    from repro.fuzz.spec import generate_spec
    from repro.profiling.chrometrace import build_chrome_trace
    from repro.telemetry.spans import SPANS
    from repro.workloads import get_benchmark

    SPANS.clear()
    spec = generate_spec(3)
    assert run_oracle(spec, use_verdict_cache=False).passed
    kernel = build_kernel(spec)
    run_kernel(kernel.program, kernel.image_factory(), kernel.launch,
               collect_trace=False, sanitize=True)
    config = next(c for c in standard_configs() if c.name == "WASP_GPU")
    advise_kernel(get_benchmark("pointnet", 0.1).kernels[0], config,
                  simulate=False)
    grouped = SPANS.by_subsystem()
    assert {"reference", "compile", "dynamic", "metamorphic"} <= {
        s.name for s in grouped["fuzz"]
    }
    assert [s.name for s in grouped["sanitizer"]] == ["run"]
    assert "advise" in {s.name for s in grouped["perfmodel"]}
    rows = {
        e["args"]["name"]
        for e in build_chrome_trace([], spans=SPANS)["traceEvents"]
        if e["name"] == "process_name"
    }
    assert {"toolchain: fuzz", "toolchain: sanitizer",
            "toolchain: perfmodel"} <= rows


# -- metrics document + Prometheus export -----------------------------------


def _sample_document():
    reg = MetricsRegistry(enabled=True)
    reg.counter("repro_eventcore_events_total",
                {"kind": "mem"}, help="events").inc(7)
    reg.counter("repro_cache_l1_hits_total").inc(3)
    reg.counter("repro_pool_tasks_total", {"phase": "simulate"}).inc(2)
    reg.gauge("repro_pool_jobs").set(2)
    reg.histogram("repro_pass_seconds",
                  {"subsystem": "compiler", "pass": "compile"},
                  bounds=BOUNDS, invariant=False).observe(0.01)
    rec = SpanRecorder()
    with rec.span("compiler", "compile"):
        pass
    return build_metrics_document(
        reg.snapshot(), command="test", spans=rec
    )


def test_metrics_document_valid_and_complete():
    doc = _sample_document()
    assert doc["schema"] == METRICS_SCHEMA
    assert validate_metrics_document(doc) == []
    assert missing_families(doc) == []
    assert doc["spans"]["count"] == 1
    assert doc["spans"]["subsystems"] == ["compiler"]


def test_metrics_document_reports_missing_families():
    doc = _sample_document()
    doc["metrics"] = [
        e for e in doc["metrics"]
        if not e["name"].startswith("repro_pool_")
    ]
    assert missing_families(doc) == ["repro_pool_"]


def test_validate_rejects_malformed_documents():
    assert validate_metrics_document([]) != []
    assert validate_metrics_document({"schema": "nope"}) != []

    doc = _sample_document()
    doc["metrics"][0]["name"] = "BadName"
    assert any("bad name" in p
               for p in validate_metrics_document(doc))

    doc = _sample_document()
    doc["metrics"].append(dict(doc["metrics"][0]))
    assert any("duplicate" in p
               for p in validate_metrics_document(doc))

    doc = _sample_document()
    hist = next(e for e in doc["metrics"]
                if e["kind"] == "histogram")
    hist["count"] += 1
    assert any("sum of bucket counts" in p
               for p in validate_metrics_document(doc))

    doc = _sample_document()
    del doc["metrics"][0]["invariant"]
    assert any("invariant" in p
               for p in validate_metrics_document(doc))


def test_prometheus_render_parse_roundtrip():
    doc = _sample_document()
    text = render_prometheus(doc)
    families = parse_prometheus(text)
    assert set(families) == {e["name"] for e in doc["metrics"]}
    assert families["repro_pool_jobs"]["kind"] == "gauge"
    # histogram: one _bucket line per bound + overflow, plus _sum
    # and _count.
    assert (families["repro_pass_seconds"]["samples"]
            == len(BOUNDS) + 1 + 2)
    # cumulative bucket counts: the +Inf bucket equals _count.
    inf_line = next(
        ln for ln in text.splitlines()
        if ln.startswith("repro_pass_seconds_bucket")
        and 'le="+Inf"' in ln
    )
    assert inf_line.rsplit(" ", 1)[1] == "1"


def test_prometheus_parser_rejects_malformed():
    with pytest.raises(ValueError):
        parse_prometheus("repro_x_total 1\n")  # sample before TYPE
    with pytest.raises(ValueError):
        parse_prometheus("# TYPE repro_x wat\nrepro_x 1\n")
    with pytest.raises(ValueError):
        parse_prometheus("# TYPE repro_x counter\nrepro_x one\n")


# -- jobs-invariance of sweep telemetry -------------------------------------


@pytest.fixture
def isolated_cache(tmp_path):
    from repro.experiments import runner
    from repro.experiments.runner import CacheStats
    from repro.fexec.trace_store import TraceStore

    saved = runner.GLOBAL_CACHE.__dict__.copy()
    runner.GLOBAL_CACHE._entries = {}
    runner.GLOBAL_CACHE._compiles = {}
    runner.GLOBAL_CACHE.stats = CacheStats()
    runner.GLOBAL_CACHE.store = TraceStore(tmp_path / "cache")
    yield runner.GLOBAL_CACHE
    runner.GLOBAL_CACHE.__dict__.update(saved)


def _distinct_replays(cache, benchmark, scale, configs) -> int:
    """The (executed program's trace key, replay key) pairs a sweep
    must simulate."""
    from repro.experiments.runner import _compiler_options_for, _gpu_for
    from repro.sim.gpu import replay_key
    from repro.workloads import get_benchmark

    pairs = set()
    for kernel in get_benchmark(benchmark, scale).kernels:
        for config in configs:
            gpu = _gpu_for(kernel, config)
            plain = cache.original(kernel)
            pairs.add((cache.key_for(kernel, None),
                       replay_key(gpu, plain.traces)))
            options = _compiler_options_for(kernel, config)
            if options is None:
                continue
            entry = cache.specialized(kernel, options)
            if entry is not None:
                pairs.add((cache.key_for(kernel, options),
                           replay_key(gpu, entry.traces)))
    return len(pairs)


def test_sweep_telemetry_jobs_invariant(clean_telemetry,
                                        isolated_cache):
    """Serial and --jobs 2 sweeps aggregate to identical invariant
    counters (the ISSUE 7 satellite contract); wall-clock series are
    excluded by their invariant=False flag.  Three of the configs share
    ``baseline_a100()``, so both sweeps must replay each distinct
    (entry, replay key) pair exactly once: the result tier is emptied at
    sweep start (workers forked after the serial sweep inherit none of
    its replays) and each entry group runs in one worker."""
    from repro.experiments.configs import (
        baseline_config,
        compiler_all_config,
        compiler_tile_config,
        wasp_gpu_config,
    )
    from repro.experiments.parallel import last_report, run_sweep

    configs = [baseline_config(), compiler_tile_config(),
               compiler_all_config(), wasp_gpu_config()]
    run_sweep(["pointnet"], 0.1, configs, jobs=1)
    serial_report = last_report()
    serial = clean_telemetry.snapshot().invariant_counters()
    assert serial, "sweep harvested no invariant telemetry"
    assert any(k.startswith("repro_eventcore_") for k in serial)
    assert serial.get(
        "repro_pool_tasks_total{phase=simulate}"
    ) == len(configs)
    distinct = _distinct_replays(isolated_cache, "pointnet", 0.1, configs)
    assert serial["repro_eventcore_runs_total"] == distinct
    assert serial["repro_cache_result_reuses_total{kind=sim}"] == (
        serial_report.stats.sim_reuses
    ) > 0
    assert "repro_cache_result_reuses_total{kind=prediction}" in serial

    clean_telemetry.reset()
    run_sweep(["pointnet"], 0.1, configs, jobs=2)
    parallel_report = last_report()
    parallel = clean_telemetry.snapshot().invariant_counters()
    assert parallel == serial

    # Satellite 2: the structured pool/cache stats on SweepReport.
    for report, jobs in ((serial_report, 1), (parallel_report, 2)):
        doc = report.to_json()
        assert doc["jobs"] == jobs
        assert doc["num_tasks"] == len(configs)
        assert 0.0 <= doc["utilization"] <= 1.0
        assert set(doc["cache"]) >= {
            "memory_hits", "disk_hits", "generations", "lookups",
            "sim_reuses", "prediction_reuses",
        }
        assert doc["cache"]["lookups"] > 0
        assert doc["cache"]["sim_reuses"] == serial_report.stats.sim_reuses


def test_eventcore_counts_eager_sleeps(clean_telemetry):
    from tests.test_sim_eventcore import _eager_chain

    from repro.sim.config import baseline_a100
    from repro.sim.gpu import simulate_kernel

    simulate_kernel([_eager_chain()], baseline_a100(), core="event")
    counters = clean_telemetry.snapshot().invariant_counters()
    events = "repro_eventcore_events_total{type=%s}"
    assert counters[events % "sleep_eager"] == 7
    # Every heap push is one sleep, eager or after a blocked poll.
    assert counters[events % "sleep_heap"] + 7 == (
        counters["repro_eventcore_heap_pushes_total"]
    )


def test_fuzz_oracle_counts_reused_work(clean_telemetry):
    from tests.test_fuzz_oracle import REPEATING_SEED, variant_digests

    from repro.fuzz.oracle import run_oracle
    from repro.fuzz.spec import generate_spec

    spec = generate_spec(REPEATING_SEED)
    report = run_oracle(spec, use_verdict_cache=False)
    assert report.passed
    digests = variant_digests(spec)
    counters = clean_telemetry.snapshot().invariant_counters()
    reuses = "repro_fuzz_oracle_reuses_total{kind=%s}"
    # x1.0 bandwidth, 400-cycle latency and the three RFQ rungs.
    assert counters[reuses % "replay"] == 5
    assert counters[reuses % "dynamic"] == (
        len(digests) - len(set(digests.values()))
    )


# -- corediff perf fields ---------------------------------------------------


def test_corediff_speedup_and_json():
    from repro.sim.differential import CoreDiff

    diff = CoreDiff(label="k/cfg", ref_wall_s=0.4, event_wall_s=0.1,
                    ref_issued=100, event_issued=100,
                    event_events=42)
    assert diff.ok
    assert diff.speedup == pytest.approx(4.0)
    doc = diff.to_json()
    assert doc["speedup"] == pytest.approx(4.0)
    assert doc["event_events"] == 42
    assert doc["ok"] is True
    # Failed-before-run diffs must not divide by zero.
    assert CoreDiff(label="x").speedup == 0.0


def test_diff_traces_populates_perf_fields(isolated_cache):
    from repro.sim.config import baseline_a100
    from repro.sim.differential import diff_traces
    from repro.workloads.registry import get_benchmark

    bench = get_benchmark("pointnet", scale=0.1)
    kernel = bench.kernels[0]
    traces = isolated_cache.original(kernel).traces
    diff = diff_traces(traces, baseline_a100(), "pointnet/BASELINE")
    assert diff.ok, diff.mismatches
    assert diff.ref_wall_s > 0 and diff.event_wall_s > 0
    assert diff.ref_issued == diff.event_issued > 0
    assert diff.event_events > 0


# -- perf-trajectory dashboard ----------------------------------------------


def _bench_doc(normals: dict[str, float]) -> dict:
    return {
        "schema": 1,
        "benchmarks": {
            name: {"wall_s": n / 10.0, "normalized": n}
            for name, n in normals.items()
        },
    }


def test_bench_report_trajectory_and_regression(tmp_path):
    core = _bench_doc({"a/ev": 10.0, "b/ev": 5.0})
    other = _bench_doc({"a/ev": 11.0})
    (tmp_path / "BENCH_core.json").write_text(json.dumps(core))
    (tmp_path / "BENCH_other.json").write_text(json.dumps(other))

    current = _bench_doc({"a/ev": 13.0, "b/ev": 4.9, "c/ev": 1.0})
    report = build_bench_report(
        directory=str(tmp_path), current=current, tolerance=0.2
    )
    assert report["schema"] == "repro-bench-report-v1"
    by_name = {r["benchmark"]: r for r in report["rows"]}
    assert by_name["a/ev"]["status"] == "REGRESSED"  # +30% > 20%
    assert by_name["a/ev"]["delta"] == pytest.approx(0.3)
    assert by_name["b/ev"]["status"] == "ok"
    assert by_name["c/ev"]["status"] == "new"
    assert by_name["a/ev"]["columns"]["BENCH_other"] == 11.0
    assert report["summary"]["regressions"] == ["a/ev"]
    assert report["summary"]["geomean_ratio"] > 1.0

    text = render_bench_report(report)
    assert "Perf trajectory" in text
    assert "REGRESSED: a/ev" in text


def test_bench_report_committed_only(tmp_path):
    core = _bench_doc({"a/ev": 10.0})
    (tmp_path / "BENCH_core.json").write_text(json.dumps(core))
    report = build_bench_report(directory=str(tmp_path))
    assert report["summary"]["regressions"] == []
    assert all("status" not in r for r in report["rows"])
    text = render_bench_report(report)
    assert "a/ev" in text and "status" not in text


def test_bench_report_empty_dir(tmp_path):
    report = build_bench_report(directory=str(tmp_path))
    assert report["rows"] == []


# -- telemetry overhead gate ------------------------------------------------


def test_check_telemetry_overhead_gate():
    from benchmarks.perf.harness import check_telemetry_overhead

    base = {"schema": 1, "benchmarks": {
        "a": {"normalized": 10.0}, "b": {"normalized": 20.0},
    }}
    ok = {"schema": 1, "benchmarks": {
        "a": {"normalized": 10.1}, "b": {"normalized": 20.2},
    }}
    assert check_telemetry_overhead(ok, base, 0.02) == []
    slow = {"schema": 1, "benchmarks": {
        "a": {"normalized": 10.5}, "b": {"normalized": 21.0},
    }}
    problems = check_telemetry_overhead(slow, base, 0.02)
    assert len(problems) == 1 and "telemetry" in problems[0]
    # schema change and disjoint suites are not this gate's problem
    assert check_telemetry_overhead(
        {"schema": 2, "benchmarks": {}}, base, 0.02) == []
    assert check_telemetry_overhead(
        {"schema": 1, "benchmarks": {"z": {"normalized": 1}}},
        base, 0.02) == []


# -- CLI surfaces -----------------------------------------------------------


def test_cli_bench_report(tmp_path, capsys):
    from repro.cli import main

    (tmp_path / "BENCH_core.json").write_text(
        json.dumps(_bench_doc({"a/ev": 10.0}))
    )
    out_path = tmp_path / "report.json"
    rc = main([
        "bench", "report",
        "--dir", str(tmp_path), "--json-out", str(out_path),
    ])
    assert rc == 0
    assert "Perf trajectory" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert doc["schema"] == "repro-bench-report-v1"
    assert main(["bench", "report", "--dir", str(tmp_path / "empty")]) == 1


def test_cli_metrics_snapshot(tmp_path, capsys, clean_telemetry,
                              isolated_cache):
    from repro.cli import main
    from repro.telemetry.snapshot import main as validate_main

    json_path = tmp_path / "metrics.json"
    prom_path = tmp_path / "metrics.prom"
    rc = main([
        "metrics", "--benchmarks", "pointnet", "--scale", "0.1",
        "--json-out", str(json_path), "--prom-out", str(prom_path),
        "--cache-dir", str(tmp_path / "cache"),
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "metrics:" in out

    doc = json.loads(json_path.read_text())
    assert validate_metrics_document(doc) == []
    assert missing_families(doc) == []
    families = parse_prometheus(prom_path.read_text())
    assert any(n.startswith("repro_eventcore_") for n in families)

    # The CI smoke job's validator accepts the pair it just wrote.
    assert validate_main([str(json_path), str(prom_path)]) == 0
    assert "valid repro-metrics-v1" in capsys.readouterr().out

"""The static performance model: bounds, predictions, and the plumbing
that threads predictions through the runner and the sweep reports."""

from __future__ import annotations

import json

import pytest

from repro.analysis.perfmodel import (
    PREDICTION_SCHEMA,
    Prediction,
    compute_bounds,
    predict_kernel,
    predict_traces,
    queue_digraph,
)
from repro.analysis.perfmodel.dataflow import DataflowWalk
from repro.core.compiler import WaspCompiler, WaspCompilerOptions
from repro.core.compiler.pipeline import CompileResult, options_delta
from repro.experiments.configs import baseline_config, wasp_gpu_config
from repro.experiments.parallel import KernelTask, SweepReport, run_sweep
from repro.experiments.runner import (
    TraceCache,
    _compiler_options_for,
    _gpu_for,
    run_kernel,
)
from repro.workloads import get_benchmark

SCALE = 0.25


@pytest.fixture(scope="module")
def cache():
    return TraceCache()


@pytest.fixture(scope="module")
def spmv_kernel():
    return get_benchmark("hpcg", scale=SCALE).kernel("spmv_27pt")


@pytest.fixture(scope="module")
def spmv_specialized(spmv_kernel, cache):
    options = _compiler_options_for(spmv_kernel, wasp_gpu_config())
    entry = cache.specialized(spmv_kernel, options)
    assert entry is not None
    return entry


@pytest.fixture(scope="module")
def spmv_prediction(spmv_kernel, cache):
    return predict_kernel(spmv_kernel, wasp_gpu_config(), cache=cache)


# -- bounds --------------------------------------------------------------


def test_queue_digraph_matches_tb_spec(spmv_kernel, cache):
    options = _compiler_options_for(spmv_kernel, wasp_gpu_config())
    spec = cache.compile(spmv_kernel, options).program.tb_spec
    edges = queue_digraph(spec)
    assert edges, "specialized pipeline must have at least one queue"
    declared = {(q.queue_id, q.src_stage, q.dst_stage) for q in spec.queues}
    assert set(edges) == declared
    assert queue_digraph(None) == []


def test_bounds_binding_is_max(spmv_kernel, spmv_specialized):
    gpu = _gpu_for(spmv_kernel, wasp_gpu_config())
    traces = spmv_specialized.traces
    walk = DataflowWalk(gpu, traces)
    walk.run()
    traffic = walk.channel_stats()
    report = compute_bounds(
        walk.stage_work,
        gpu.service_rates(),
        walk.spec,
        queue_residency={
            qid: agg.mean_residency for qid, agg in traffic.items()
        },
        queue_channels={
            qid: agg.channels for qid, agg in traffic.items()
        },
    )
    binding = report.binding()
    assert binding is not None
    assert binding.cycles == max(b.cycles for b in report.kernel)
    for stage_bounds in report.stages.values():
        candidates = [
            stage_bounds.issue,
            *stage_bounds.memory,
            *stage_bounds.queues,
        ]
        assert stage_bounds.binding().cycles == max(
            b.cycles for b in candidates
        )
    # Little's-law queue coupling produced at least one queue bound.
    assert any(sb.queues for sb in report.stages.values())


# -- predictions ---------------------------------------------------------


def test_prediction_fields_and_schema(spmv_prediction):
    pred = spmv_prediction.predicted
    assert isinstance(pred, Prediction)
    assert pred.cycles > 0
    assert pred.bottleneck_stage is not None
    assert pred.explanation, "explanation chain must not be empty"
    # The stall mix is a distribution over the profiler's taxonomy.
    assert pred.stall_mix
    assert abs(sum(pred.stall_mix.values()) - 1.0) < 1e-6
    doc = json.loads(json.dumps(pred.to_json()))
    assert doc["schema"] == PREDICTION_SCHEMA
    assert doc["cycles"] == round(pred.cycles, 2)
    assert doc["bottleneck_stage"] == pred.bottleneck_stage


def test_kernel_prediction_speedup(spmv_prediction):
    kp = spmv_prediction
    assert kp.baseline.cycles > 0
    assert kp.predicted.cycles <= kp.baseline.cycles
    assert kp.predicted_speedup == pytest.approx(
        kp.baseline.cycles / kp.predicted.cycles
    )
    doc = kp.to_json()
    assert doc["predicted_speedup"] == round(kp.predicted_speedup, 4)
    assert doc["specialized"] == kp.used_specialized


def test_predict_traces_close_to_simulator(spmv_kernel, cache):
    """Same-variant prediction tracks the simulator on this kernel."""
    config = wasp_gpu_config()
    result = run_kernel(spmv_kernel, config, cache)
    if result.used_specialized:
        options = _compiler_options_for(spmv_kernel, config)
        traces = cache.specialized(spmv_kernel, options).traces
    else:
        traces = cache.original(spmv_kernel).traces
    pred = predict_traces(
        traces, _gpu_for(spmv_kernel, config),
        kernel_name=spmv_kernel.name,
    )
    assert abs(pred.cycles - result.cycles) / result.cycles < 0.25


def test_baseline_config_prediction(spmv_kernel, cache):
    kp = predict_kernel(spmv_kernel, baseline_config(), cache=cache)
    assert not kp.used_specialized
    assert kp.predicted.cycles == kp.baseline.cycles


# -- runner / sweep plumbing ---------------------------------------------


def test_run_kernel_predict_flag(spmv_kernel, cache):
    config = wasp_gpu_config()
    plain = run_kernel(spmv_kernel, config, cache)
    assert plain.prediction is None
    assert plain.predicted_error is None
    with_pred = run_kernel(spmv_kernel, config, cache, predict=True)
    assert with_pred.prediction is not None
    assert with_pred.predicted_error is not None
    assert with_pred.predicted_error < 0.25


def test_sweep_rows_carry_prediction_error():
    config = wasp_gpu_config()
    sweep = run_sweep(["hpcg"], SCALE, [config], jobs=1, predict=True)
    report = sweep.report
    assert len(report.prediction_rows) == report.num_tasks
    for row in report.prediction_rows:
        result = sweep.kernel_result(row.benchmark, row.kernel, 0)
        assert row.simulated_cycles == result.cycles
        assert row.error < 0.25
        doc = row.to_json()
        assert doc["predicted_error"] == round(row.error, 4)


def test_sweep_without_predict_has_no_prediction_rows():
    sweep = run_sweep(["hpcg"], SCALE, [wasp_gpu_config()], jobs=1)
    assert sweep.report.prediction_rows == []


def test_sweep_report_merge_keeps_prediction_rows():
    a = run_sweep(
        ["hpcg"], SCALE, [wasp_gpu_config()], jobs=1, predict=True
    ).report
    b = SweepReport()
    b.merge(a)
    assert len(b.prediction_rows) == len(a.prediction_rows)


def test_kernel_task_defaults_to_no_prediction():
    task = KernelTask(
        benchmark="hpcg", scale=SCALE, kernel="spmv_27pt",
        config=wasp_gpu_config(), config_index=0,
    )
    assert task.predict is False


# -- compiler options plumbing -------------------------------------------


def test_options_json_round_trip():
    options = WaspCompilerOptions(queue_size=8, max_stages=2)
    back = WaspCompilerOptions.from_json(options.to_json())
    assert back == options


def test_options_from_json_rejects_unknown_keys():
    doc = WaspCompilerOptions().to_json()
    doc["not_a_knob"] = 1
    with pytest.raises(ValueError):
        WaspCompilerOptions.from_json(doc)


def test_options_delta_names_changed_fields_only():
    base = WaspCompilerOptions()
    other = WaspCompilerOptions(queue_size=8, enable_tma_offload=False)
    delta = options_delta(base, other)
    assert delta == {"queue_size": 8, "enable_tma_offload": False}
    assert options_delta(base, base) == {}


def test_on_compile_hook_observes_every_result(spmv_kernel):
    seen: list[CompileResult] = []
    compiler = WaspCompiler(
        wasp_gpu_config().compiler, on_compile=seen.append
    )
    result = compiler.compile(
        spmv_kernel.program, num_warps=spmv_kernel.launch.num_warps
    )
    assert seen == [result]


def test_on_compile_hook_exceptions_propagate(spmv_kernel):
    def boom(result: CompileResult) -> None:
        raise RuntimeError("observer broke")

    compiler = WaspCompiler(wasp_gpu_config().compiler, on_compile=boom)
    with pytest.raises(RuntimeError, match="observer broke"):
        compiler.compile(
            spmv_kernel.program, num_warps=spmv_kernel.launch.num_warps
        )


# -- trace semantics shared with the simulator --------------------------


def _tma_fed_entry(cache, bench, name):
    kernel = get_benchmark(bench, scale=SCALE).kernel(name)
    config = wasp_gpu_config()
    entry = cache.specialized(kernel, _compiler_options_for(kernel, config))
    assert entry is not None
    return entry.traces, _gpu_for(kernel, config)


@pytest.mark.parametrize("bench,name", [
    ("spgemm1_econ", "spgemm_symbolic"),
    ("lonestar_bfs", "frontier_expand"),
])
def test_walk_queue_traffic_is_ldg_pushes_plus_tma_vectors(
    cache, bench, name
):
    """A TMA configuration record pushes nothing itself: its engine
    pushes one entry per vector, as in the simulator."""
    traces, gpu = _tma_fed_entry(cache, bench, name)
    ldg_pushes = tma_vectors = 0
    for trace in traces:
        for warp in trace.warps:
            for record in warp.instrs:
                job = record.tma_job
                if job is not None and job.queue is not None:
                    tma_vectors += len(job.vector_sectors)
                elif record.queue_push is not None:
                    ldg_pushes += 1
    assert tma_vectors > 0
    walk = DataflowWalk(gpu, traces)
    walk.run()
    traffic = walk.channel_stats().values()
    pushes = sum(agg.pushes for agg in traffic)
    pops = sum(agg.pops for agg in traffic)
    assert pushes == pops == ldg_pushes + tma_vectors


@pytest.fixture(scope="module")
def subset_replays():
    """Every distinct plain and specialized replay of the toolchain
    benchmark's kernel subset under the Figure 14 and Figure 15
    configurations at depth 2."""
    from tests.test_prediction_identity import entries
    from benchmarks.toolchain.workloads import KERNELS
    from repro.sweeps import registry_kernels

    wanted = set(KERNELS)
    kernels = [
        (bench, kernel) for bench, kernel in registry_kernels(None, SCALE)
        if (bench, kernel.name) in wanted
    ]
    seen = set()
    found = []
    for label, traces, gpu, _name in entries(kernels, (2,)):
        if (id(traces), gpu) not in seen:
            seen.add((id(traces), gpu))
            found.append((label, traces, gpu))
    return found


def test_stage_issue_slots_equal_simulated_issues(subset_replays):
    """The issue roofline counts exactly the slots the SM cores issue,
    per stage, SMEM-queue bookkeeping slots included."""
    from repro.errors import ResourceError
    from repro.sim.gpu import simulate_kernel

    checked = smem_tma = 0
    for label, traces, gpu in subset_replays:
        try:
            issued = simulate_kernel(traces, gpu).issued_by_stage
        except ResourceError:
            continue
        walk = DataflowWalk(gpu, traces)
        walk.run()
        slots = {
            s: w.issue_slots for s, w in walk.stage_work.items()
            if w.issue_slots
        }
        assert slots == issued, label
        checked += 1
        smem_tma += "+WASP_TMA:specialized" in label
    assert checked >= 100 and smem_tma > 0


def test_stage_global_sectors_equal_trace_sectors(subset_replays):
    """The bandwidth bounds count every global sector the traces fetch,
    per stage: both phases of a two-phase TMA gather included."""
    from repro.errors import ResourceError

    checked = gathers = 0
    for label, traces, gpu in subset_replays:
        expected: dict[int, int] = {}
        for trace in traces:
            for warp in trace.warps:
                stage = warp.pipe_stage_id
                expected[stage] = (
                    expected.get(stage, 0) + warp.total_sectors()
                )
                gathers += any(
                    r.tma_job is not None
                    and r.tma_job.data_vector_sectors
                    for r in warp.instrs
                )
        try:
            walk = DataflowWalk(gpu, traces)
        except ResourceError:
            continue
        walk.run()
        counted = {
            s: w.global_sectors for s, w in walk.stage_work.items()
            if w.global_sectors
        }
        assert counted == {s: n for s, n in expected.items() if n}, label
        checked += 1
    assert checked >= 100 and gathers > 0

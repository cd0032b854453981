"""The workload definitions reproduce the toolchain's own results.

Run with ``PYTHONPATH=src python -m pytest benchmarks/toolchain``.
"""

import repro.fexec.machine
from benchmarks.toolchain.layers import Tracer
from benchmarks.toolchain.measure import measure
from benchmarks.toolchain.workloads import (
    KERNELS,
    SCALE,
    fig14_items,
    fuzz_items,
    load_golden,
)
from repro.experiments import fig14
from repro.experiments.runner import GLOBAL_CACHE, TraceCache
from repro.fexec.trace_store import TraceStore
from repro.workloads.registry import get_benchmark


def test_golden_table_covers_the_kernel_subset():
    golden = load_golden()
    assert len(golden) == 212
    for bench, kernel in KERNELS:
        assert sum(key[:2] == (bench, kernel) for key in golden) == 4


def test_fig14_cells_equal_fig14_run(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
    monkeypatch.setattr(GLOBAL_CACHE, "store", TraceStore(tmp_path / "g"))
    names = ["rnnt", "hpgmg"]
    kernels = [
        (name, kernel)
        for name in names
        for kernel in get_benchmark(name, SCALE).kernels
    ]
    cache = TraceCache(TraceStore(tmp_path / "bench"))
    cycles = {}
    for item in fig14_items(kernels, cache, golden=load_golden()):
        out = item.run()
        assert item.check(out) is None, item.label
        cycles[tuple(item.label.split("/"))] = out[0]

    want = fig14.run(scale=SCALE, benchmarks=names, jobs=1)
    for name, speedups in want.rows:
        totals = [
            sum(k.weight * cycles[name, k.name, config]
                for k in get_benchmark(name, SCALE).kernels)
            for config in want.config_names
        ]
        assert [totals[0] / t for t in totals] == speedups


def test_fuzz_smoke_under_the_tracer():
    original = repro.fexec.machine.run_kernel
    tracer = Tracer()
    with tracer.installed():
        assert repro.fexec.machine.run_kernel is not original
        record = measure(fuzz_items(range(5)))
    assert repro.fexec.machine.run_kernel is original
    assert record["attempted"] == 5
    assert record["failures"] == []
    ledger = tracer.ledger("fuzz-oracle", dict(record, trace_generations=0))
    assert ledger["fuzz.oracle.calls"] == 5
    assert ledger["fexec.machine.calls"] > 5
    assert ledger["analysis.transval.certified_ratio"] == 1.0

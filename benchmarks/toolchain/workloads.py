"""The four toolchain workloads: their inputs, measured calls and checks.

Every workload is a list of :class:`Item` objects.  An item is one
cell, compile or fuzz program: ``run`` is the measured call into the
toolchain and ``check`` compares its output with the known answer.
The item set of each workload is fixed.  Only fuzz-oracle takes the
seed, and it only permutes the order of its programs, so runs on
different seeds measure the same work and stay comparable: a seeded
draw of 34 programs would move the total by more than its regression
bound.  The fig14 and certify workloads run in registry order, as
``repro fig14`` and ``repro validate`` do; shuffling their 44 cells
moved the item percentiles by up to 12% from seed to seed, because
the order decides which cell absorbs each garbage collection.

The kernel subset is every fifth registry kernel in registry order,
which touches 11 of the 23 benchmarks and every suite (ML, sparse,
HPC, graph, attention).  Its cold-sweep, warm-sweep and certify costs
are 1.05x, 0.99x and 0.91x one fifth of the full registry's, so the
layer shares match the full ``repro fig14`` / ``repro validate`` runs
while one repeat stays a few CPU-seconds long.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from repro.analysis.lint import standard_option_sets, validate_kernel
from repro.experiments.configs import standard_configs
from repro.experiments.reporting import geomean
from repro.experiments.runner import TraceCache, run_kernel
from repro.fexec.trace_store import TraceStore
from repro.fuzz.oracle import run_oracle
from repro.fuzz.spec import generate_spec
from repro.workloads.registry import all_benchmarks, get_benchmark

#: Registry problem-size scale, the same as CI's sweeps.
SCALE = 0.25

#: Every fifth registry kernel (index 0, 5, ..., 50 in registry order).
KERNELS = (
    ("3d_unet", "conv_gemm"),
    ("bert", "layernorm"),
    ("dlrm", "interaction"),
    ("rnnt", "lstm_gates"),
    ("spmv2_web", "spmv_vector"),
    ("spgemm1_econ", "spgemm_numeric"),
    ("hpgmg", "smooth_fine"),
    ("lulesh", "eos_update"),
    ("lonestar_bfs", "frontier_expand"),
    ("lonestar_sp", "message_update"),
    ("gemm_epilogue", "residual_add"),
)

#: Ring depths certify-deep compiles every kernel at.
DEPTHS = (2, 4, 8)

#: Fuzz programs of the fuzz-oracle workload.  34 programs over three
#: repeats give 102 item samples, the fewest that leave ten samples
#: beyond the 90th percentile.
FUZZ_SEEDS = range(34)

GOLDEN = Path(__file__).resolve().parent / "expected" / "fig14_cells.json"


@dataclass
class Item:
    """One measured call and the check of its output."""

    label: str
    run: Callable[[], Any]
    #: Returns a failure message, or ``None`` when the output is right.
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    items: list[Item]
    #: The fig14 workloads' trace cache (``None`` elsewhere).
    cache: TraceCache | None = None


def _subset_kernels() -> list:
    return [
        (bench, get_benchmark(bench, SCALE).kernel(name))
        for bench, name in KERNELS
    ]


def load_golden() -> dict[tuple[str, str, str], tuple[float, bool]]:
    """Golden fig14 cells: (bench, kernel, config) -> (cycles, specialized)."""
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {
        (bench, kernel, config): (cycles, used)
        for bench, kernel, config, cycles, used in doc["rows"]
    }


def fig14_items(
    kernels: list,
    cache: TraceCache,
    predict: bool = False,
    golden: dict | None = None,
) -> list[Item]:
    """One item per (kernel, standard config), in fig14 plot order.

    An item returns ``(cycles, used_specialized, predicted,
    generations)``; ``generations`` counts the functional traces the
    cell generated.  With ``predict`` a cell must carry a prediction
    and generate nothing (the store is warm).
    """
    items = []
    for bench, kernel in kernels:
        for config in standard_configs():
            key = (bench, kernel.name, config.name)

            def run(kernel=kernel, config=config):
                before = cache.stats.generations
                result = run_kernel(kernel, config, cache, predict=predict)
                return (
                    result.cycles,
                    result.used_specialized,
                    result.prediction is not None,
                    cache.stats.generations - before,
                )

            def check(out, key=key):
                cycles, used, predicted, generations = out
                if golden is not None and golden.get(key) != (cycles, used):
                    return (f"cell is ({cycles!r}, {used}), golden "
                            f"table says {golden.get(key)!r}")
                if predict and not predicted:
                    return "no perf-model prediction"
                if predict and generations:
                    return f"{generations} trace generation(s) on a warm store"
                return None

            items.append(Item("/".join(key), run, check))
    return items


def _fig14(store_dir: str, predict: bool) -> Workload:
    cache = TraceCache(store=TraceStore(store_dir))
    items = fig14_items(_subset_kernels(), cache, predict, load_golden())
    return Workload(items, cache)


def certify_items(kernels: list) -> list[Item]:
    """One compile + translation validation per (options, depth)."""
    items = []
    for bench, kernel in kernels:
        for opts_name, options in standard_option_sets():
            for depth in DEPTHS:
                opts = replace(options, pipeline_depth=depth)

                def run(kernel=kernel, opts=opts):
                    _, report = validate_kernel(
                        kernel.program, kernel.launch.num_warps, opts
                    )
                    return report.verdict

                items.append(Item(
                    f"{bench}/{kernel.name}[{opts_name}]@{depth}", run,
                    lambda verdict: (
                        None if verdict == "equivalent"
                        else f"verdict {verdict!r}"
                    ),
                ))
    return items


def fuzz_items(seeds) -> list[Item]:
    """One full differential-oracle run per generated fuzz program."""
    items = []
    for seed in seeds:
        spec = generate_spec(seed)
        items.append(Item(
            f"fuzz/{seed}",
            lambda spec=spec: run_oracle(spec, use_verdict_cache=False),
            lambda report: (
                None if report.passed else
                "; ".join(f.summary() for f in report.failures)
            ),
        ))
    return items


#: The set-up function of each workload: (seed, store directory).
SETUP: dict[str, Callable[[int, str], Workload]] = {
    "fig14-cold": lambda seed, store: _fig14(store, predict=False),
    "fig14-warm-predict": lambda seed, store: _fig14(store, predict=True),
    "certify-deep": lambda seed, store: Workload(
        certify_items(_subset_kernels())
    ),
    "fuzz-oracle": lambda seed, store: Workload(fuzz_items(
        random.Random(seed).sample(FUZZ_SEEDS, len(FUZZ_SEEDS))
    )),
}


def write_golden(path: Path = GOLDEN) -> float:
    """Regenerate the golden table over all registry cells.

    The cells are produced under the reference SM core and must be
    bit-identical under the event core.  Returns the WASP_GPU geomean
    speedup over BASELINE.
    """
    kernels = [
        (name, kernel)
        for name in all_benchmarks()
        for kernel in get_benchmark(name, SCALE).kernels
    ]
    cache = TraceCache()
    saved = os.environ.get("REPRO_SIM_CORE")
    outputs = {}
    try:
        for core in ("reference", "event"):
            os.environ["REPRO_SIM_CORE"] = core
            outputs[core] = [
                (item.label.split("/"), item.run()[:2])
                for item in fig14_items(kernels, cache)
            ]
    finally:
        if saved is None:
            os.environ.pop("REPRO_SIM_CORE", None)
        else:
            os.environ["REPRO_SIM_CORE"] = saved
    if outputs["reference"] != outputs["event"]:
        raise RuntimeError("event core disagrees with the reference core")
    rows = [[*key, cycles, used] for key, (cycles, used) in outputs["event"]]

    names = [c.name for c in standard_configs()]
    weights = {(b, k.name): k.weight for b, k in kernels}
    totals: dict[str, list[float]] = {}
    for bench, kernel, config, cycles, _ in rows:
        per_config = totals.setdefault(bench, [0.0] * len(names))
        per_config[names.index(config)] += weights[bench, kernel] * cycles
    wasp = geomean(t[0] / t[-1] for t in totals.values())
    header = json.dumps(
        {"scale": SCALE, "core": "reference", "wasp_gpu_geomean": wasp}
    )
    body = ",\n".join(f"  {json.dumps(row)}" for row in rows)
    path.write_text(
        f'{header[:-1]}, "rows": [\n{body}\n]}}\n', encoding="utf-8"
    )
    return wasp

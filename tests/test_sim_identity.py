"""Simulation results are pinned bit for bit.

Every digest in ``tests/sim_digests.json`` is the SHA-256 of one
:class:`~repro.sim.results.SimResult` in canonical JSON: cycles, issue
counts by category and stage, queue-overhead instructions, the
``(stage, cause)`` stall mix, stall spans, active warp-cycles, the
utilization timeline, thread blocks completed, memory utilizations and
the L1 hit rate.  Dicts are written as key-sorted pairs, so a core that
builds the same counts in another insertion order keeps its digest.

The two SM cores share ``_execute``, ``_can_issue``, ``_note_stall``
and ``_close_stall``; the core differential compares the cores with
each other, so it cannot see a defect in that shared code.  These pins
compare both cores with the recorded results instead.

A cell is one registry kernel under one standard configuration at one
ring depth, replayed from its plain traces and, when the compiler
specializes it, from its specialized traces (the cells ``repro
corediff --registry`` compares).  The digest file covers every
registry cell at depths 2, 4 and 8 at scale 0.25; tier 1 checks the
toolchain benchmark's 11-kernel subset at depth 2 and three kernels at
depths 4 and 8.  CI checks the whole file::

    python -m tests.test_sim_identity            # check every cell
    python -m tests.test_sim_identity --write    # re-record the file
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.errors import CompilerError, ResourceError
from repro.experiments.configs import standard_configs
from repro.experiments.runner import (
    TraceCache, _compiler_options_for, _gpu_for,
)
from repro.sim.gpu import simulate_kernel
from repro.sim.results import SimResult
from repro.sweeps import Cell, expand_depths, registry_kernels

DIGESTS = Path(__file__).resolve().parent / "sim_digests.json"
SCALE = 0.25
CORES = ("reference", "event")

#: The registry kernels ``tests/test_trace_identity.py`` pins.
DEEP = (
    ("pointnet", "ball_query_gather"),
    ("spgemm1_econ", "spgemm_symbolic"),
    ("flash_attention", "fused_attention"),
)


def sim_digest(result: SimResult) -> str:
    """SHA-256 of ``result``'s canonical JSON."""
    doc = {
        "cycles": result.cycles,
        "issued_total": result.issued_total,
        "issued_by_category": sorted(
            (c.value, n) for c, n in result.issued_by_category.items()
        ),
        "issued_by_stage": sorted(result.issued_by_stage.items()),
        "queue_overhead_instrs": result.queue_overhead_instrs,
        "stall_cycles": sorted(
            (stage, cause.value, cycles)
            for (stage, cause), cycles in result.stall_cycles.items()
        ),
        "stall_spans": result.stall_spans,
        "active_warp_cycles": result.active_warp_cycles,
        "timeline": result.timeline,
        "tbs_completed": result.tbs_completed,
        "l2_utilization": result.l2_utilization,
        "dram_utilization": result.dram_utilization,
        "smem_utilization": result.smem_utilization,
        "l1_hit_rate": result.l1_hit_rate,
    }
    text = json.dumps(doc, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cells(
    kernels: list[tuple[str, object]], depths: tuple[int, ...]
) -> list[tuple[str, list, object]]:
    """``(label, traces, gpu)`` for every cell of ``kernels``."""
    cache = TraceCache()
    axis = expand_depths(standard_configs(), depths, depths_outer=True)
    found = []
    for bench, kernel in kernels:
        for entry, depth, options in axis:
            config = Cell(bench, kernel, entry, depth, options).config()
            gpu = _gpu_for(kernel, config)
            label = f"{bench}/{kernel.name}:{config.name}"
            found.append(
                (f"{label}:plain", cache.original(kernel).traces, gpu)
            )
            compiler = _compiler_options_for(kernel, config)
            if compiler is None:
                continue
            try:
                spec = cache.specialized(kernel, compiler)
            except (CompilerError, ResourceError):
                spec = None
            if spec is not None:
                found.append((f"{label}:specialized", spec.traces, gpu))
    return found


def digest_cells(
    found: list[tuple[str, list, object]], core: str
) -> dict[str, str]:
    return {
        label: sim_digest(simulate_kernel(traces, gpu, core=core))
        for label, traces, gpu in found
    }


def _pinned() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def _kernels(names) -> list[tuple[str, object]]:
    wanted = set(names)
    return [
        (bench, kernel) for bench, kernel in registry_kernels(None, SCALE)
        if (bench, kernel.name) in wanted
    ]


@pytest.fixture(scope="module")
def pinned() -> dict[str, str]:
    return _pinned()


@pytest.fixture(scope="module")
def subset_cells():
    # The toolchain benchmark's fig14 subset: every fifth registry kernel.
    return cells(registry_kernels(None, SCALE)[::5], (2,))


@pytest.fixture(scope="module")
def deep_cells():
    return cells(_kernels(DEEP), (4, 8))


@pytest.mark.parametrize("core", CORES)
def test_benchmark_subset_is_pinned(core, subset_cells, pinned):
    got = digest_cells(subset_cells, core)
    assert sum(label.endswith(":specialized") for label in got) >= 20
    assert got == {label: pinned[label] for label in got}


@pytest.mark.parametrize("core", CORES)
def test_deep_rings_are_pinned(core, deep_cells, pinned):
    got = digest_cells(deep_cells, core)
    assert any("@d8:specialized" in label for label in got)
    assert got == {label: pinned[label] for label in got}


def test_digest_ignores_dict_order():
    from repro.isa.opcodes import InstrCategory
    from repro.sim.occupancy import Occupancy

    def result(categories):
        return SimResult(
            kernel_name="k", cycles=3.0, issued_total=2,
            issued_by_category=categories, issued_by_stage={0: 2},
            queue_overhead_instrs=0, l2_utilization=0.0,
            dram_utilization=0.0, smem_utilization=0.0, l1_hit_rate=0.0,
            occupancy=Occupancy(1, 1, 1, "warps"),
        )

    fp, mem = InstrCategory.COMPUTE, InstrCategory.MEMORY
    assert sim_digest(result({fp: 1, mem: 1})) == sim_digest(
        result({mem: 1, fp: 1})
    )
    assert sim_digest(result({fp: 2})) != sim_digest(
        result({fp: 1, mem: 1})
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.test_sim_identity",
        description="Check (or re-record) the SimResult digest of every "
        "registry cell at ring depths 2, 4 and 8 under both SM cores.",
    )
    parser.add_argument("--write", action="store_true",
                        help="re-record tests/sim_digests.json")
    args = parser.parse_args(argv)
    found = cells(registry_kernels(None, SCALE), (2, 4, 8))
    runs = {core: digest_cells(found, core) for core in CORES}
    if runs["reference"] != runs["event"]:
        print("sim digests: the two cores disagree", file=sys.stderr)
        return 1
    digests = runs["event"]
    if args.write:
        DIGESTS.write_text(
            json.dumps(digests, indent=0, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"sim digests: wrote {len(digests)} cells to {DIGESTS}")
        return 0
    pinned = _pinned()
    bad = sorted(
        label for label in pinned.keys() | digests.keys()
        if pinned.get(label) != digests.get(label)
    )
    for label in bad:
        print(f"MISMATCH {label}", file=sys.stderr)
    print(f"sim digests: {len(digests) - len(bad)}/{len(digests)} "
          f"cells match {DIGESTS.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Perf-model predictions are pinned bit for bit.

Every digest in ``tests/prediction_digests.json`` is the SHA-256 of one
:class:`~repro.analysis.perfmodel.model.Prediction`: its ``to_json()``
document, the full-precision ``repr`` of the predicted cycles and the
sorted raw ``(stage, cause)`` stalls.  ``to_json`` rounds to two
places, so the two extra fields keep drift below that visible.

An entry is one registry kernel under one evaluation configuration,
predicted from its plain traces and, when the compiler specializes it,
from its specialized traces.  The file covers every registry kernel
under the Figure 14 configurations at ring depths 2, 4 and 8 and under
the Figure 15 (progressive hardware feature) configurations at depth
2 — the only set where SMEM queues meet TMA-fed queues.  Tier 1 checks
the toolchain benchmark's 11-kernel subset at depth 2; CI checks the
whole file::

    python -m tests.test_prediction_identity            # check all
    python -m tests.test_prediction_identity --write    # re-record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import pytest

from benchmarks.toolchain.workloads import KERNELS

from repro.analysis.perfmodel.model import Prediction, predict_traces
from repro.errors import CompilerError, ResourceError
from repro.experiments.configs import (
    progressive_feature_configs, standard_configs,
)
from repro.experiments.runner import (
    TraceCache, _compiler_options_for, _gpu_for,
)
from repro.isa.opcodes import Opcode
from repro.sweeps import Cell, expand_depths, registry_kernels

DIGESTS = Path(__file__).resolve().parent / "prediction_digests.json"
SCALE = 0.25

#: (label, traces, GPU, kernel name) of one pinned prediction.
Entry = tuple[str, list, object, str]


def prediction_digest(prediction: Prediction) -> str:
    """SHA-256 of ``prediction``'s JSON plus its unrounded numbers."""
    doc = {
        "json": prediction.to_json(),
        "cycles": repr(prediction.cycles),
        "raw_stalls": sorted(
            (stage, cause.value, repr(cycles))
            for (stage, cause), cycles in prediction.raw_stalls.items()
        ),
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _axis(standard_depths: tuple[int, ...]):
    return [
        *expand_depths(standard_configs(), standard_depths, True),
        *expand_depths(progressive_feature_configs(), (2,), True),
    ]


def entries(kernels, standard_depths: tuple[int, ...]) -> list[Entry]:
    """Every pinned (label, traces, GPU, kernel name) of ``kernels``."""
    cache = TraceCache()
    axis = _axis(standard_depths)
    found: list[Entry] = []
    for bench, kernel in kernels:
        for entry, depth, options in axis:
            config = Cell(bench, kernel, entry, depth, options).config()
            gpu = _gpu_for(kernel, config)
            label = f"{bench}/{kernel.name}:{config.name}"
            found.append((f"{label}:plain", cache.original(kernel).traces,
                          gpu, kernel.name))
            compiler = _compiler_options_for(kernel, config)
            if compiler is None:
                continue
            try:
                spec = cache.specialized(kernel, compiler)
            except (CompilerError, ResourceError):
                spec = None
            if spec is not None:
                found.append((f"{label}:specialized", spec.traces, gpu,
                              kernel.name))
    return found


def digest_entries(found: list[Entry]) -> dict[str, str]:
    """Label -> digest (or the ResourceError raised), one prediction
    per distinct (traces, GPU)."""
    memo: dict[tuple[int, object], str] = {}
    digests = {}
    for label, traces, gpu, name in found:
        key = (id(traces), gpu)
        if key not in memo:
            try:
                memo[key] = prediction_digest(
                    predict_traces(traces, gpu, kernel_name=name)
                )
            except ResourceError as exc:
                memo[key] = f"ResourceError: {exc}"
        digests[label] = memo[key]
    return digests


def tma_fed_queue(traces: list) -> bool:
    """True when some TMA configuration record pushes into a queue."""
    return any(
        record.opcode in (Opcode.TMA_TILE, Opcode.TMA_STREAM,
                          Opcode.TMA_GATHER)
        and record.tma_job is not None
        and record.tma_job.queue is not None
        for trace in traces for warp in trace.warps
        for record in warp.instrs
    )


def _pinned() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def subset_entries() -> list[Entry]:
    wanted = set(KERNELS)
    kernels = [
        (bench, kernel) for bench, kernel in registry_kernels(None, SCALE)
        if (bench, kernel.name) in wanted
    ]
    assert len(kernels) == len(KERNELS)
    return entries(kernels, (2,))


def test_benchmark_subset_is_pinned(subset_entries):
    tma_fed = [
        label for label, traces, gpu, _ in subset_entries
        if label.endswith(":specialized") and gpu.features.wasp_tma
        and tma_fed_queue(traces)
    ]
    assert any(
        label.startswith("lonestar_bfs/frontier_expand:") for label in tma_fed
    )
    got = digest_entries(subset_entries)
    assert got == {label: _pinned()[label] for label in got}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.test_prediction_identity",
        description="Check (or re-record) the Prediction digest of every "
        "registry kernel under the Figure 14 configurations at ring "
        "depths 2, 4 and 8 and the Figure 15 configurations at depth 2.",
    )
    parser.add_argument("--write", action="store_true",
                        help="re-record tests/prediction_digests.json")
    args = parser.parse_args(argv)
    digests = digest_entries(
        entries(registry_kernels(None, SCALE), (2, 4, 8))
    )
    if args.write:
        DIGESTS.write_text(
            json.dumps(digests, indent=0, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"prediction digests: wrote {len(digests)} entries to "
              f"{DIGESTS}")
        return 0
    pinned = _pinned()
    bad = sorted(
        label for label in pinned.keys() | digests.keys()
        if pinned.get(label) != digests.get(label)
    )
    for label in bad:
        print(f"MISMATCH {label}", file=sys.stderr)
    print(f"prediction digests: {len(digests) - len(bad)}/{len(digests)} "
          f"entries match {DIGESTS.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

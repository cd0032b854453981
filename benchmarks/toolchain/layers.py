"""The per-layer ledger of a traced repeat.

A :class:`Tracer` wraps the public entry points of each toolchain
layer from outside the program.  A wrapped function is rebound in
every loaded module that holds it, so ``from X import f`` call sites
are traced too; a method is rebound on its class.  A stack of open
calls gives each layer its self time: its duration minus the time of
the wrapped calls it made.

This module imports nothing from ``repro`` at load time, so the
parent process of a run can read the layer names without importing
the toolchain.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Layer name -> the entry points (``module:qualname``) it covers.
LAYERS: dict[str, tuple[str, ...]] = {
    "experiments.runner": ("repro.experiments.runner:run_kernel",),
    "fuzz.oracle": ("repro.fuzz.oracle:run_oracle",),
    "analysis.lint": ("repro.analysis.lint:validate_kernel",),
    "core.compiler": ("repro.core.compiler.pipeline:WaspCompiler.compile",),
    "analysis.verifier": ("repro.analysis.verifier:verify_program",),
    "analysis.dataflow.hb": ("repro.analysis.dataflow.hb:analyze_hb",),
    "analysis.transval": (
        "repro.analysis.transval.validate:validate_programs",
    ),
    "analysis.perfmodel": ("repro.analysis.perfmodel.model:predict_traces",),
    "fexec.machine": ("repro.fexec.machine:run_kernel",),
    "fexec.trace_store": (
        "repro.fexec.trace_store:TraceStore.load",
        "repro.fexec.trace_store:TraceStore.save",
    ),
    "sim": (
        "repro.sim.sm:SMSimulator.run",
        "repro.sim.sm_event:EventSMSimulator.run",
    ),
}

_ALL = frozenset(LAYERS)
_STATIC = frozenset({
    "core.compiler", "analysis.verifier", "analysis.dataflow.hb",
    "analysis.transval",
})

#: The exact set of layers each workload calls.  A traced repeat fails
#: when a layer outside the set is called or one inside it is not.
CALLED: dict[str, frozenset[str]] = {
    "fig14-cold": _STATIC | {
        "experiments.runner", "fexec.machine", "fexec.trace_store", "sim",
    },
    "fig14-warm-predict": _STATIC | {
        "experiments.runner", "fexec.trace_store", "sim",
        "analysis.perfmodel",
    },
    "certify-deep": _STATIC | {"analysis.lint"},
    "fuzz-oracle": _STATIC | {"fuzz.oracle", "fexec.machine", "sim"},
}

#: Layer -> (end-to-end metrics, workloads) a change to it should move.
#: Every other workload is the control: it should stay put.
MOVES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "fexec.machine": (
        ("work_cu", "item_p90_mcu"), ("fig14-cold", "fuzz-oracle"),
    ),
    "analysis.dataflow.hb": (("work_cu",), ("certify-deep",)),
    "analysis.transval": (("work_cu",), ("certify-deep",)),
    "analysis.verifier": (("work_cu",), ("certify-deep",)),
    "analysis.lint": (("work_cu",), ("certify-deep",)),
    "sim": (("work_cu",), ("fig14-cold", "fig14-warm-predict")),
    "fexec.trace_store": (("work_cu",), ("fig14-warm-predict",)),
    "analysis.perfmodel": (("work_cu",), ("fig14-warm-predict",)),
    "core.compiler": (("work_cu",), ("certify-deep", "fuzz-oracle")),
    "fuzz.oracle": (("work_cu",), ("fuzz-oracle",)),
    "experiments.runner": (
        ("work_cu", "peak_rss_mb"), ("fig14-cold", "fig14-warm-predict"),
    ),
}

#: Derived per-layer metrics beyond ``<layer>.self_cu``/``.calls``.
DERIVED: dict[str, str] = {
    "core.compiler.specialized_ratio": "ratio",
    "analysis.dataflow.hb.per_compile": "solves/compile",
    "analysis.transval.certified_ratio": "ratio",
    "fexec.machine.warp_instrs": "count",
    "fexec.machine.winstr_per_mcu": "instr/mcu",
    "sim.cycles": "cycles",
    "sim.issued": "count",
    "sim.issued_per_mcu": "instr/mcu",
    "fexec.trace_store.bytes_read": "bytes",
    "fexec.trace_store.hit_ratio": "ratio",
    "experiments.runner.trace_generations": "count",
    "trace_overhead": "x",
}

#: Largest gap allowed between the layers' summed self CPU and the
#: measured CPU, as a share of the measured CPU.
MAX_UNTRACED_SHARE = 0.02


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_cu"] = "cu"
        units[f"{layer}.calls"] = "count"
    units.update(DERIVED)
    return units


def _count_compile(counters, result, args) -> None:
    counters["specialized"] += result.specialized


def _count_verdict(counters, result, args) -> None:
    counters["equivalent"] += result.verdict == "equivalent"


def _count_instrs(counters, result, args) -> None:
    counters["warp_instrs"] += sum(
        t.total_instructions() for t in result.traces
    )


def _count_sim(counters, result, args) -> None:
    counters["cycles"] += result.cycles
    counters["issued"] += result.issued_total


def _count_load(counters, result, args) -> None:
    store, key = args[0], args[1]
    counters["loads"] += 1
    if result is not None:
        counters["hits"] += 1
        counters["bytes_read"] += os.path.getsize(store._path(key))


_OBSERVERS = {
    "repro.core.compiler.pipeline:WaspCompiler.compile": _count_compile,
    "repro.analysis.transval.validate:validate_programs": _count_verdict,
    "repro.fexec.machine:run_kernel": _count_instrs,
    "repro.sim.sm:SMSimulator.run": _count_sim,
    "repro.sim.sm_event:EventSMSimulator.run": _count_sim,
    "repro.fexec.trace_store:TraceStore.load": _count_load,
}


@dataclass
class LayerStats:
    calls: int = 0
    self_cpu: float = 0.0
    counters: Counter = field(default_factory=Counter)


class Tracer:
    """Self CPU time and call counts per layer."""

    def __init__(self) -> None:
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self._open: list[float] = []  # child CPU of each open call
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, observe):
        stats = self.stats[layer]
        open_calls = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_calls.append(0.0)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(stats.counters, result, args)
                return result
            finally:
                elapsed = time.process_time() - start
                stats.calls += 1
                stats.self_cpu += elapsed - open_calls.pop()
                if open_calls:
                    open_calls[-1] += elapsed

        return traced

    def _rebind(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    @contextmanager
    def installed(self):
        """Wrap every entry point of :data:`LAYERS` for the block."""
        try:
            for layer, targets in LAYERS.items():
                for target in targets:
                    self._install(layer, target)
            yield self
        finally:
            while self._undo:
                owner, name, value = self._undo.pop()
                setattr(owner, name, value)

    def _install(self, layer: str, target: str) -> None:
        module_name, _, qualname = target.partition(":")
        owner_name, _, name = qualname.rpartition(".")
        owner = importlib.import_module(module_name)
        if owner_name:
            owner = getattr(owner, owner_name, None)
        original = vars(owner).get(name) if owner is not None else None
        if original is None:
            raise LookupError(f"wrapped entry point is missing: {target}")
        wrapper = self._wrap(layer, original, _OBSERVERS.get(target))
        if owner_name:
            self._rebind(owner, name, wrapper)
            return
        for module in list(sys.modules.values()):
            names = getattr(module, "__dict__", {})
            for alias, value in list(names.items()):
                if value is original:
                    self._rebind(module, alias, wrapper)

    def ledger(self, workload: str, record: dict) -> dict[str, float]:
        """Per-layer metrics of a finished repeat, after two checks.

        The set of called layers must equal :data:`CALLED` for the
        workload, and the layers' self CPU must add up to the
        measured CPU within :data:`MAX_UNTRACED_SHARE`.
        """
        called = {name for name, s in self.stats.items() if s.calls}
        if called != CALLED[workload]:
            raise RuntimeError(
                f"{workload}: layers called {sorted(called)}, expected "
                f"{sorted(CALLED[workload])}"
            )
        measured = record["work_cpu_s"]
        traced = sum(s.self_cpu for s in self.stats.values())
        if abs(measured - traced) > MAX_UNTRACED_SHARE * measured:
            raise RuntimeError(
                f"{workload}: layer self CPU sums to {traced:.3f}s but "
                f"{measured:.3f}s was measured"
            )
        cu_per_s = record["work_cu"] / measured
        out: dict[str, float] = {}
        for name, s in self.stats.items():
            out[f"{name}.self_cu"] = s.self_cpu * cu_per_s
            out[f"{name}.calls"] = s.calls

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        compiler = self.stats["core.compiler"]
        machine = self.stats["fexec.machine"]
        sim = self.stats["sim"]
        store = self.stats["fexec.trace_store"].counters
        out.update({
            "core.compiler.specialized_ratio": ratio(
                compiler.counters["specialized"], compiler.calls),
            "analysis.dataflow.hb.per_compile": ratio(
                self.stats["analysis.dataflow.hb"].calls, compiler.calls),
            "analysis.transval.certified_ratio": ratio(
                self.stats["analysis.transval"].counters["equivalent"],
                self.stats["analysis.transval"].calls),
            "fexec.machine.warp_instrs": machine.counters["warp_instrs"],
            "fexec.machine.winstr_per_mcu": ratio(
                machine.counters["warp_instrs"],
                out["fexec.machine.self_cu"] * 1000),
            "sim.cycles": sim.counters["cycles"],
            "sim.issued": sim.counters["issued"],
            "sim.issued_per_mcu": ratio(
                sim.counters["issued"], out["sim.self_cu"] * 1000),
            "fexec.trace_store.bytes_read": store["bytes_read"],
            "fexec.trace_store.hit_ratio": ratio(
                store["hits"], store["loads"]),
            "experiments.runner.trace_generations":
                record["trace_generations"],
        })
        return out

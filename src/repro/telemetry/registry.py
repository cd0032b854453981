"""Process-global metrics registry: counters, gauges, histograms.

Design constraints (DESIGN.md §7):

* **Near-zero overhead when disabled.**  The registry is off by
  default; simulator hot paths never call into it per cycle.  They
  keep raw integer attributes and *harvest* them into the registry
  once per run, guarded by :attr:`MetricsRegistry.enabled`.  Metric
  mutation itself is a plain attribute add — no allocation, no locks
  on the fast path (metric creation is locked; mutation is GIL-atomic
  enough for telemetry).
* **Mergeable.**  Worker processes snapshot their registry per task
  and ship the delta to the parent (the ``CacheStats.since`` idiom),
  so serial and ``--jobs N`` sweeps aggregate to identical invariant
  counters.
* **Fixed exponential buckets.**  Histograms share immutable bucket
  bounds so merges are element-wise adds; associativity is property
  tested.

Naming scheme: ``repro_<subsystem>_<metric>`` with Prometheus
conventions (``_total`` suffix on counters, ``_seconds`` on timing
histograms).  Metrics that are deterministic functions of the
simulated work are registered ``invariant=True``; wall-clock and
cache-locality metrics are ``invariant=False`` and excluded from the
jobs-invariance contract.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = [
    "TELEMETRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "exponential_buckets",
]

LabelsKey = tuple[tuple[str, str], ...]

#: Environment switch: set REPRO_TELEMETRY=1 to enable at import time
#: (CLI ``--metrics-out`` flags enable it programmatically).
_ENV_VAR = "REPRO_TELEMETRY"


def exponential_buckets(
    start: float, factor: float, count: int
) -> tuple[float, ...]:
    """``count`` upper bounds: start, start*factor, ... (``+Inf`` is
    implicit as the overflow bucket)."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    bounds = []
    value = float(start)
    for _ in range(count):
        bounds.append(value)
        value *= factor
    return tuple(bounds)


#: Default bounds for timing histograms: 100us .. ~400s.
SECONDS_BUCKETS = exponential_buckets(1e-4, 4.0, 12)
#: Default bounds for small integer distributions: 1 .. 1024.
DEPTH_BUCKETS = exponential_buckets(1.0, 2.0, 11)
#: Default bounds for large cycle counts: 1 .. ~16.7M.
CYCLES_BUCKETS = exponential_buckets(1.0, 4.0, 13)


def _labels_key(labels: Mapping[str, str] | None) -> LabelsKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic counter.  ``inc`` is a plain attribute add."""

    kind = "counter"
    __slots__ = ("name", "labels", "help", "invariant", "value")

    def __init__(self, name: str, labels: LabelsKey,
                 help: str = "", invariant: bool = True) -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.invariant = invariant
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def entry(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "help": self.help,
            "invariant": self.invariant,
            "value": self.value,
        }


class Gauge:
    """Point-in-time value (wall clock, utilization).  Never part of
    the jobs-invariance contract; merges take the max."""

    kind = "gauge"
    __slots__ = ("name", "labels", "help", "invariant", "value")

    def __init__(self, name: str, labels: LabelsKey,
                 help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.invariant = False
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = float(value)

    def entry(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "help": self.help,
            "invariant": self.invariant,
            "value": self.value,
        }


class Histogram:
    """Fixed-exponential-bucket histogram.

    ``bounds`` are upper bounds (``le`` semantics: a value lands in
    the first bucket whose bound is >= value); the overflow (+Inf)
    bucket is ``counts[-1]``.  Merging histograms with identical
    bounds is an element-wise add, hence associative + commutative.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "help", "invariant", "bounds",
                 "counts", "sum", "count")

    def __init__(self, name: str, labels: LabelsKey,
                 bounds: tuple[float, ...] = SECONDS_BUCKETS,
                 help: str = "", invariant: bool = True) -> None:
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must strictly increase")
        self.name = name
        self.labels = labels
        self.help = help
        self.invariant = invariant
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, value: float, times: int) -> None:
        """Fold ``times`` identical observations in (harvest helper)."""
        if times <= 0:
            return
        self.counts[bisect_left(self.bounds, value)] += times
        self.sum += value * times
        self.count += times

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"histogram {self.name}: bucket bounds differ"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count

    def entry(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "help": self.help,
            "invariant": self.invariant,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


Metric = Counter | Gauge | Histogram

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


@dataclass
class MetricsSnapshot:
    """Picklable point-in-time copy of a registry's contents.

    ``entries`` maps ``(name, labels_key)`` to the metric's
    ``entry()`` dict.  Snapshots support delta (:meth:`since`) and
    accumulation (:meth:`merge`) so per-task worker deltas merge to
    the same totals regardless of scheduling.
    """

    entries: dict[tuple[str, LabelsKey], dict[str, Any]] = field(
        default_factory=dict
    )

    def since(self, before: "MetricsSnapshot") -> "MetricsSnapshot":
        """Counter/histogram deltas vs ``before``; gauges keep their
        current value."""
        out: dict[tuple[str, LabelsKey], dict[str, Any]] = {}
        for key, entry in self.entries.items():
            prev = before.entries.get(key)
            entry = _copy_entry(entry)
            if prev is not None:
                if entry["kind"] == "counter":
                    entry["value"] -= prev["value"]
                elif entry["kind"] == "histogram":
                    entry["counts"] = [
                        c - p for c, p in
                        zip(entry["counts"], prev["counts"])
                    ]
                    entry["sum"] -= prev["sum"]
                    entry["count"] -= prev["count"]
            out[key] = entry
        return MetricsSnapshot(out)

    def merge(self, other: "MetricsSnapshot") -> None:
        for key, entry in other.entries.items():
            mine = self.entries.get(key)
            if mine is None:
                self.entries[key] = _copy_entry(entry)
                continue
            if mine["kind"] != entry["kind"]:
                raise ValueError(
                    f"metric {entry['name']}: kind conflict on merge"
                )
            if entry["kind"] == "counter":
                mine["value"] += entry["value"]
            elif entry["kind"] == "gauge":
                mine["value"] = max(mine["value"], entry["value"])
            else:
                if mine["bounds"] != entry["bounds"]:
                    raise ValueError(
                        f"metric {entry['name']}: bounds conflict"
                    )
                mine["counts"] = [
                    a + b for a, b in
                    zip(mine["counts"], entry["counts"])
                ]
                mine["sum"] += entry["sum"]
                mine["count"] += entry["count"]

    def to_list(self) -> list[dict[str, Any]]:
        """Stable-ordered entry list for the JSON document."""
        return [
            _copy_entry(self.entries[key])
            for key in sorted(self.entries)
        ]

    def invariant_counters(self) -> dict[str, float]:
        """Flat ``name{labels}`` -> value map of the jobs-invariant
        subset (counters and histogram counts, invariant only)."""
        flat: dict[str, float] = {}
        for (name, labels), entry in sorted(self.entries.items()):
            if not entry.get("invariant"):
                continue
            label_s = ",".join(f"{k}={v}" for k, v in labels)
            key = f"{name}{{{label_s}}}" if label_s else name
            if entry["kind"] == "counter":
                flat[key] = entry["value"]
            elif entry["kind"] == "histogram":
                flat[key + ":count"] = entry["count"]
                for bound, c in zip(
                    entry["bounds"] + [float("inf")], entry["counts"]
                ):
                    flat[f"{key}:le:{bound}"] = c
        return flat


def _copy_entry(entry: dict[str, Any]) -> dict[str, Any]:
    out = dict(entry)
    if "counts" in out:
        out["counts"] = list(out["counts"])
        out["bounds"] = list(out["bounds"])
    out["labels"] = dict(out["labels"])
    return out


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Creation is locked; mutation happens on the metric objects
    themselves.  When :attr:`enabled` is False the registry still
    hands out metric objects (callers on cold paths may skip the
    guard), but all harvest sites check ``enabled`` first so the
    disabled simulator pays nothing beyond its raw int counters.
    """

    def __init__(self, enabled: bool = False) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelsKey], Metric] = {}
        self._enabled = enabled

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def _get(self, cls: type, name: str,
             labels: Mapping[str, str] | None,
             **kwargs: Any) -> Any:
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name}: registered as {metric.kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, key[1], **kwargs)
                self._metrics[key] = metric
        return metric

    def counter(self, name: str,
                labels: Mapping[str, str] | None = None,
                help: str = "", invariant: bool = True) -> Counter:
        return self._get(Counter, name, labels, help=help,
                         invariant=invariant)

    def gauge(self, name: str,
              labels: Mapping[str, str] | None = None,
              help: str = "") -> Gauge:
        return self._get(Gauge, name, labels, help=help)

    def histogram(self, name: str,
                  labels: Mapping[str, str] | None = None,
                  bounds: tuple[float, ...] = SECONDS_BUCKETS,
                  help: str = "",
                  invariant: bool = True) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds,
                         help=help, invariant=invariant)

    def metrics(self) -> Iterable[Metric]:
        with self._lock:
            return list(self._metrics.values())

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            {(m.name, m.labels): m.entry() for m in self.metrics()}
        )

    def merge_snapshot(self, snap: MetricsSnapshot) -> None:
        """Fold a (worker-delta) snapshot into the live metrics."""
        for (name, labels), entry in snap.entries.items():
            kind = entry["kind"]
            if kind == "counter":
                self.counter(
                    name, dict(labels), help=entry.get("help", ""),
                    invariant=entry.get("invariant", True),
                ).inc(entry["value"])
            elif kind == "gauge":
                self.gauge(
                    name, dict(labels), help=entry.get("help", "")
                ).set_max(entry["value"])
            else:
                hist = self.histogram(
                    name, dict(labels),
                    bounds=tuple(entry["bounds"]),
                    help=entry.get("help", ""),
                    invariant=entry.get("invariant", True),
                )
                if hist.bounds != tuple(entry["bounds"]):
                    raise ValueError(
                        f"metric {name}: bounds conflict on merge"
                    )
                for i, c in enumerate(entry["counts"]):
                    hist.counts[i] += c
                hist.sum += entry["sum"]
                hist.count += entry["count"]


def _env_enabled() -> bool:
    return os.environ.get(_ENV_VAR, "").strip().lower() in (
        "1", "on", "true", "yes"
    )


#: The process-global registry.  Pool workers inherit the enabled flag
#: from the fan-out's initializer, and each unit's delta is merged back
#: into the parent's registry (repro.experiments.parallel.fan_out).
TELEMETRY = MetricsRegistry(enabled=_env_enabled())

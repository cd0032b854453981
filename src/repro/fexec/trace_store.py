"""Persistent content-addressed store for functional traces.

Functional trace generation dominates the cost of every figure
reproduction, and the traces themselves are pure functions of (program,
launch, initial memory image, compiler options).  This module persists
them on disk under their content hash so they survive across processes:
benchmark files, CI jobs and CLI invocations all reuse one another's
work, and the cache directory can be shipped as a CI artifact.

Layout: one gzip-compressed JSON file per entry,
``<cache_dir>/<digest>.json.gz``, wrapped in a versioned envelope
(``format``, ``key``, ``payload``).  The payload's ``traces`` use trace
format 2 (:func:`~repro.fexec.trace.encode_trace_table`): one table of
the entry's distinct trace records, each encoded once, and one list of
table indices per warp.  Loading decodes each distinct record once, so
the loaded warps share records exactly as the traced run did.  Any
read failure — missing file, corrupt gzip/deflate/JSON, format-version
or key mismatch, a record index outside the table — is treated as a
miss so a bad cache can only cost time, never correctness.  Files are
byte-reproducible: the envelope is compact JSON and the gzip header
carries no timestamp, so the same traces always produce the same file.

Environment knobs:

``REPRO_CACHE_DIR``
    Cache directory (default ``.repro_cache`` in the working directory).
``REPRO_CACHE``
    Set to ``0``/``off``/``false`` to disable persistence entirely.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import tempfile
import time
import zlib
from pathlib import Path
from typing import Any

from repro.fexec.trace import (
    TRACE_FORMAT_VERSION,
    KernelTrace,
    decode_trace_table,
    encode_trace_table,
)
from repro.telemetry.registry import TELEMETRY

DEFAULT_CACHE_DIR = ".repro_cache"
_DISABLE_VALUES = {"0", "off", "false", "no"}


def _tel_io(op: str, outcome: str, nbytes: int, seconds: float) -> None:
    """Fold one store operation into the registry (cold path only).

    Disk locality depends on what other processes wrote, so these are
    ``invariant=False`` — excluded from the jobs-invariance contract.
    """
    labels = {"op": op, "outcome": outcome}
    TELEMETRY.counter(
        "repro_tracestore_ops_total", labels,
        help="TraceStore loads/saves by outcome", invariant=False,
    ).inc()
    TELEMETRY.counter(
        "repro_tracestore_bytes_total", labels,
        help="Compressed bytes moved by the TraceStore",
        invariant=False,
    ).inc(nbytes)
    TELEMETRY.counter(
        "repro_tracestore_io_seconds_total", labels,
        help="Wall-clock seconds in TraceStore I/O", invariant=False,
    ).inc(seconds)


def cache_enabled() -> bool:
    """Whether the persistent cache is enabled by the environment."""
    return os.environ.get("REPRO_CACHE", "1").lower() not in _DISABLE_VALUES


def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


class TraceStore:
    """One directory of content-addressed trace files."""

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()

    @classmethod
    def from_env(cls) -> "TraceStore | None":
        """The environment-configured store, or ``None`` if disabled."""
        if not cache_enabled():
            return None
        return cls(default_cache_dir())

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json.gz"

    # -- read/write ---------------------------------------------------------

    def load(self, key: str) -> dict[str, Any] | None:
        """The stored entry for ``key``, or ``None`` on any failure.

        Returns the payload dict with ``traces`` already decoded to
        :class:`KernelTrace` objects.
        """
        path = self._path(key)
        telemetry = TELEMETRY.enabled
        started = time.perf_counter() if telemetry else 0.0
        try:
            data = path.read_bytes()
            envelope = json.loads(gzip.decompress(data))
            if not isinstance(envelope, dict):
                return None
            if envelope.get("format") != TRACE_FORMAT_VERSION:
                return None
            if envelope.get("key") != key:
                return None
            payload = dict(envelope.get("payload") or {})
            payload["traces"] = decode_trace_table(payload["traces"])
            if telemetry:
                _tel_io("load", "hit", len(data),
                        time.perf_counter() - started)
            return payload
        except (OSError, EOFError, zlib.error, ValueError, KeyError,
                IndexError, TypeError):
            if telemetry:
                _tel_io("load", "miss", 0,
                        time.perf_counter() - started)
            return None

    def save(
        self, key: str, traces: list[KernelTrace], **meta: Any
    ) -> bool:
        """Persist ``traces`` (plus ``meta``) under ``key``.

        The write is atomic (temp file + rename) so concurrent workers
        racing on the same key leave a complete file either way.
        Returns ``False`` if the entry could not be written.
        """
        envelope = {
            "format": TRACE_FORMAT_VERSION,
            "key": key,
            "payload": {"traces": encode_trace_table(traces), **meta},
        }
        telemetry = TELEMETRY.enabled
        started = time.perf_counter() if telemetry else 0.0
        text = json.dumps(envelope, separators=(",", ":"))
        buffer = io.BytesIO()
        with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as gz:
            gz.write(text.encode("utf-8"))
            # The sync flush gzip's text-mode writer issues on close:
            # with it, a file matches one written through
            # ``gzip.open(path, "wt")`` byte for byte, bar the header
            # timestamp, so store sizes stay comparable across versions.
            gz.flush()
        data = buffer.getvalue()
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.cache_dir, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp_name, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            if telemetry:
                _tel_io("save", "written", len(data),
                        time.perf_counter() - started)
            return True
        except OSError:
            if telemetry:
                _tel_io("save", "failed", 0,
                        time.perf_counter() - started)
            return False

    # -- maintenance --------------------------------------------------------

    def contains(self, key: str) -> bool:
        return self._path(key).is_file()

    def entry_count(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*.json.gz"))

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.json.gz"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

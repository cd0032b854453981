"""Content-addressed trace cache: keys, sharing, disk round-trips.

Covers the two-tier :class:`TraceCache`: structurally identical kernels
must share one entry regardless of object identity, any structural
mutation must produce a distinct key, and the persistent
:class:`TraceStore` tier must round-trip traces bit-identically, write
byte-reproducible files, and degrade gracefully (corrupt files, version
mismatches) to plain regeneration.
"""

import gzip
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.configs import baseline_config, wasp_gpu_config
from repro.experiments.runner import TraceCache, run_kernel
from repro.fexec import LaunchConfig, MemoryImage
from repro.fexec import run_kernel as run_functional
from repro.fexec.trace import encode_traces
from repro.fexec.trace_store import TraceStore, cache_enabled
from repro.isa import ProgramBuilder, SpecialReg
from repro.sim.config import baseline_a100
from repro.sim.gpu import simulate_kernel
from repro.workloads import get_benchmark
from repro.workloads.base import Kernel

_DATA_WORDS = 64


def _build_image(value: float) -> MemoryImage:
    img = MemoryImage(1 << 12)
    img.alloc("data", _DATA_WORDS)
    img.write_array("data", np.full(_DATA_WORDS, value))
    return img


def _tiny_kernel(
    name: str = "tiny",
    *,
    value: float = 7.0,
    extra_op: bool = False,
    num_warps: int = 2,
) -> Kernel:
    base = _build_image(value).base("data")
    b = ProgramBuilder(name)
    lane = b.special(SpecialReg.LANE_ID)
    addr = b.iadd(lane, base)
    v = b.ldg(addr)
    v = b.fadd(v, 1.0)
    if extra_op:
        v = b.fmul(v, 2.0)
    b.stg(addr, v)
    b.exit()
    return Kernel(
        name=name,
        program=b.finish(),
        image_factory=lambda: _build_image(value),
        launch=LaunchConfig(num_warps=num_warps, warp_width=4),
    )


# -- content addressing ------------------------------------------------------


def test_identical_kernels_share_cache_entry():
    cache = TraceCache()
    k1 = _tiny_kernel("alpha")
    k2 = _tiny_kernel("beta")  # same structure, different name/objects
    assert cache.key_for(k1, None) == cache.key_for(k2, None)
    cache.original(k1)
    cache.original(k2)
    assert cache.stats.generations == 1
    assert cache.stats.memory_hits == 1


def test_mutated_program_gets_distinct_key():
    cache = TraceCache()
    base = _tiny_kernel()
    mutant = _tiny_kernel(extra_op=True)
    assert cache.key_for(base, None) != cache.key_for(mutant, None)


def test_mutated_inputs_or_launch_get_distinct_keys():
    cache = TraceCache()
    base = _tiny_kernel()
    other_data = _tiny_kernel(value=9.0)
    other_launch = _tiny_kernel(num_warps=4)
    keys = {
        cache.key_for(k, None)
        for k in (base, other_data, other_launch)
    }
    assert len(keys) == 3


def test_options_distinguish_cache_entries():
    cache = TraceCache()
    kernel = _tiny_kernel()
    options = wasp_gpu_config().compiler
    assert cache.key_for(kernel, None) != cache.key_for(kernel, options)


def test_ring_depth_distinguishes_cache_entries():
    # A depth-4 compile is a different program from a depth-2 one, so
    # it must never replay the depth-2 trace.
    cache = TraceCache()
    kernel = _tiny_kernel()
    options = wasp_gpu_config().compiler
    deep = replace(options, pipeline_depth=4)
    assert cache.key_for(kernel, options) != cache.key_for(kernel, deep)
    # The post-pass checks never change the compiled program.
    unchecked = replace(options, verify=False, validate=False)
    assert cache.key_for(kernel, options) == cache.key_for(
        kernel, unchecked
    )


# -- disk round-trip ---------------------------------------------------------


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "cache")


def test_disk_round_trip_bit_identical_simulation(store):
    kernel = _tiny_kernel()
    gpu = baseline_a100()

    warm = TraceCache(store=store)
    reference = simulate_kernel(warm.original(kernel).traces, gpu)
    assert warm.stats.generations == 1
    assert warm.stats.disk_writes == 1

    fresh = TraceCache(store=store)  # fresh memory tier, same disk
    replayed = simulate_kernel(fresh.original(kernel).traces, gpu)
    assert fresh.stats.disk_hits == 1
    assert fresh.stats.generations == 0
    assert replayed.cycles == reference.cycles


def test_specialized_round_trip_through_run_kernel(store):
    kernel = get_benchmark("pointnet", 0.1).kernels[0]
    config = wasp_gpu_config()

    warm = TraceCache(store=store)
    reference = run_kernel(kernel, config, warm)
    assert warm.stats.generations > 0

    fresh = TraceCache(store=store)
    replayed = run_kernel(kernel, config, fresh)
    assert fresh.stats.generations == 0
    assert fresh.stats.disk_hits > 0
    assert replayed.cycles == reference.cycles
    assert replayed.used_specialized == reference.used_specialized


def test_baseline_run_kernel_round_trip(store):
    kernel = get_benchmark("lonestar_bfs", 0.1).kernels[0]
    config = baseline_config()
    reference = run_kernel(kernel, config, TraceCache(store=store))
    replayed = run_kernel(kernel, config, TraceCache(store=store))
    assert replayed.cycles == reference.cycles


# -- graceful degradation ----------------------------------------------------


def _single_entry_path(store):
    paths = list(store.cache_dir.glob("*.json.gz"))
    assert len(paths) == 1
    return paths[0]


def test_corrupted_entry_falls_back_to_regeneration(store):
    kernel = _tiny_kernel()
    warm = TraceCache(store=store)
    reference = warm.original(kernel).traces

    _single_entry_path(store).write_bytes(b"not gzip at all")

    fresh = TraceCache(store=store)
    traces = fresh.original(kernel).traces
    assert fresh.stats.disk_hits == 0
    assert fresh.stats.generations == 1
    gpu = baseline_a100()
    assert (
        simulate_kernel(traces, gpu).cycles
        == simulate_kernel(reference, gpu).cycles
    )


def test_corrupt_deflate_body_is_a_miss(store):
    # A valid gzip header over a damaged deflate stream fails inside
    # zlib, not in the gzip framing; it must still read as a miss.
    kernel = _tiny_kernel()
    TraceCache(store=store).original(kernel)
    path = _single_entry_path(store)
    raw = bytearray(path.read_bytes())
    raw[10:-8] = bytes(b ^ 0xFF for b in raw[10:-8])
    path.write_bytes(bytes(raw))

    assert store.load(path.name.removesuffix(".json.gz")) is None
    fresh = TraceCache(store=store)
    fresh.original(kernel)
    assert fresh.stats.disk_hits == 0
    assert fresh.stats.generations == 1


def test_version_mismatch_falls_back_to_regeneration(store):
    kernel = _tiny_kernel()
    TraceCache(store=store).original(kernel)

    path = _single_entry_path(store)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        envelope = json.load(fh)
    envelope["format"] = envelope["format"] + 1
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(envelope, fh)

    fresh = TraceCache(store=store)
    fresh.original(kernel)
    assert fresh.stats.disk_hits == 0
    assert fresh.stats.generations == 1


def test_key_mismatch_is_a_miss(store):
    kernel = _tiny_kernel()
    TraceCache(store=store).original(kernel)
    path = _single_entry_path(store)
    assert store.load("0" * 64) is None
    # The real key still loads fine.
    key = path.name.removesuffix(".json.gz")
    assert store.load(key) is not None


# -- on-disk bytes -----------------------------------------------------------


def _tiny_traces():
    kernel = _tiny_kernel()
    return run_functional(
        kernel.program, kernel.image_factory(), kernel.launch
    ).traces


def test_store_file_is_compact_format_1_json(store):
    traces = _tiny_traces()
    assert store.save("k" * 64, traces, num_stages=2)
    envelope = {
        "format": 1,
        "key": "k" * 64,
        "payload": {"traces": encode_traces(traces), "num_stages": 2},
    }
    expected = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    assert gzip.decompress(store._path("k" * 64).read_bytes()) == expected


def test_store_files_are_byte_reproducible(tmp_path):
    traces = _tiny_traces()
    first, second = TraceStore(tmp_path / "a"), TraceStore(tmp_path / "b")
    assert first.save("k" * 64, traces)
    assert second.save("k" * 64, traces)
    data = first._path("k" * 64).read_bytes()
    assert data == second._path("k" * 64).read_bytes()
    # A zero header timestamp (RFC 1952 MTIME, bytes 4-7) keeps the
    # bytes equal across saves made at different times.
    assert data[4:8] == b"\0\0\0\0"


def test_entry_from_the_streaming_writer_still_loads(store):
    # Stores written before the one-shot writer streamed json.dump
    # through a gzip text wrapper; their entries stay valid hits.
    traces = _tiny_traces()
    key = "s" * 64
    envelope = {
        "format": 1,
        "key": key,
        "payload": {"traces": encode_traces(traces)},
    }
    raw = io.BytesIO()
    with gzip.open(raw, "wt", encoding="utf-8") as fh:
        json.dump(envelope, fh, separators=(",", ":"))
    streamed = raw.getvalue()
    store.cache_dir.mkdir(parents=True)
    store._path(key).write_bytes(streamed)
    loaded = store.load(key)
    assert loaded is not None
    assert encode_traces(loaded["traces"]) == encode_traces(traces)
    # Rewriting the entry changes only the header's timestamp field.
    assert store.save(key, traces)
    rewritten = store._path(key).read_bytes()
    assert rewritten[:4] + rewritten[8:] == streamed[:4] + streamed[8:]


def test_store_clear_and_count(store):
    TraceCache(store=store).original(_tiny_kernel())
    assert store.entry_count() == 1
    assert store.clear() == 1
    assert store.entry_count() == 0


def test_cache_disabled_by_environment(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert not cache_enabled()
    assert TraceStore.from_env() is None
    monkeypatch.setenv("REPRO_CACHE", "1")
    assert cache_enabled()

"""Content-addressed trace cache: keys, sharing, disk round-trips.

Covers the two-tier :class:`TraceCache`: identical runs must share one
entry regardless of object identity or of the option set that compiled
the program, any change to the executed program must produce a
distinct key, and the persistent
:class:`TraceStore` tier must round-trip traces bit-identically (record
sharing included), write byte-reproducible files, and degrade
gracefully (corrupt files, corrupt record tables, version mismatches)
to plain regeneration.
"""

import gzip
import io
import json
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_trace_identity import _registry_traces

from repro.experiments.configs import (
    baseline_config,
    compiler_all_config,
    compiler_tile_config,
    wasp_gpu_config,
)
from repro.experiments.runner import (
    TraceCache, _compiler_options_for, run_kernel,
)
from repro.fexec import LaunchConfig, MemoryImage
from repro.fexec import run_kernel as run_functional
from repro.fexec.trace import encode_trace_table, encode_traces
from repro.fexec.trace_store import TraceStore, cache_enabled
from repro.fuzz.generator import build_kernel
from repro.fuzz.spec import generate_spec
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
    k2 = _tiny_kernel("alpha")  # same content, different objects
    assert cache.key_for(k1, None) == cache.key_for(k2, None)
    cache.original(k1)
    cache.original(k2)
    assert cache.stats.generations == 1
    assert cache.stats.memory_hits == 1
    # The name is program content: traces (and so every SimResult's
    # kernel_name) carry it.
    renamed = _tiny_kernel("beta")
    assert cache.key_for(renamed, None) != cache.key_for(k1, None)


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
    assert cache.key_for(kernel, options) is not None
    assert cache.key_for(kernel, None) != cache.key_for(kernel, options)


def test_ring_depth_distinguishes_cache_entries():
    # A depth-4 compile of conv_gemm is a different program from its
    # depth-2 one, so it must never replay the depth-2 trace.
    cache = TraceCache()
    kernel = get_benchmark("3d_unet", 0.1).kernel("conv_gemm")
    options = wasp_gpu_config().compiler
    deep = replace(options, pipeline_depth=4)
    assert cache.key_for(kernel, options) != cache.key_for(kernel, deep)
    # The post-pass checks never change the compiled program.
    unchecked = replace(options, verify=False, validate=False)
    assert cache.key_for(kernel, options) == cache.key_for(
        kernel, unchecked
    )
    # Where the depth changes nothing, both depths run one program.
    tiny = _tiny_kernel()
    assert cache.key_for(tiny, options) == cache.key_for(tiny, deep)


def test_option_sets_compiling_to_one_program_share_its_entry(store):
    # WASP_COMPILER_TILE and WASP_COMPILER_ALL compile conv_gemm to one
    # program on one GPU: it is traced, stored and replayed once.
    kernel = get_benchmark("3d_unet", 0.1).kernel("conv_gemm")
    cache = TraceCache(store=store)
    tile, full = (
        run_kernel(kernel, config, cache)
        for config in (compiler_tile_config(), compiler_all_config())
    )
    assert tile.used_specialized and full.used_specialized
    assert tile.compile_result is not full.compile_result
    tile_options, full_options = (
        _compiler_options_for(kernel, config)
        for config in (compiler_tile_config(), compiler_all_config())
    )
    assert tile_options != full_options
    entry = cache.specialized(kernel, tile_options)
    assert entry is cache.specialized(kernel, full_options)
    assert cache.stats.generations == 2  # plain + one specialized
    assert store.entry_count() == 2
    assert len(entry.sims) == 1
    assert full.sim is tile.sim
    assert cache.stats.sim_reuses == 2  # the plain and the specialized


def test_compiler_change_keeping_the_stage_count_regenerates(
    store, monkeypatch
):
    # A store written before a compiler change must not serve the old
    # program's traces, even when the new program has as many stages.
    import repro.core.compiler.pipeline as pipeline

    kernel = get_benchmark("pointnet", 0.1).kernels[0]
    config = wasp_gpu_config()
    before = run_kernel(kernel, config, TraceCache(store=store))
    assert before.compile_result.specialized

    finalize = pipeline.finalize_pipeline

    def padded(*args, **kwargs):
        program = finalize(*args, **kwargs)
        program.smem_words += 64
        return program

    monkeypatch.setattr(pipeline, "finalize_pipeline", padded)
    cache = TraceCache(store=store)
    after = run_kernel(kernel, config, cache)
    compiled = after.compile_result
    assert compiled.num_stages == before.compile_result.num_stages
    assert compiled.program.smem_words == (
        before.compile_result.program.smem_words + 64
    )
    assert cache.stats.disk_hits == 1  # the unchanged plain kernel
    assert cache.stats.generations == 1
    traces = cache.specialized(kernel, _compiler_options_for(kernel, config))
    assert {t.smem_words for t in traces.traces} == {
        compiled.program.smem_words
    }


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


# -- result tier --------------------------------------------------------------


def test_configs_sharing_a_gpu_replay_each_entry_once():
    kernel = get_benchmark("pointnet", 0.1).kernels[0]
    cache = TraceCache()
    base, tile, full = (
        run_kernel(kernel, config, cache)
        for config in (baseline_config(), compiler_tile_config(),
                       compiler_all_config())
    )
    # BASELINE's plain replay is both compiler configs' fallback.
    assert tile.fallback_sim is base.sim
    assert full.fallback_sim is base.sim
    assert cache.stats.sim_reuses == 2

    # WASP_GPU is another GPU, but not to an unspecialized kernel: its
    # hardware acts through the thread-block spec, so the plain replay
    # is BASELINE's.  Its specialized replay still runs.
    config = wasp_gpu_config()
    wasp = run_kernel(kernel, config, cache)
    assert wasp.fallback_sim is base.sim
    assert cache.stats.sim_reuses == 3
    specialized = cache.specialized(
        kernel, _compiler_options_for(kernel, config)
    )
    assert specialized is not None and len(specialized.sims) == 1

    cache.clear_results()
    again = run_kernel(kernel, baseline_config(), cache)
    assert cache.stats.sim_reuses == 3
    assert again.sim is not base.sim
    assert again.cycles == base.cycles


def test_result_tier_keys_on_the_resolved_core(monkeypatch):
    """One cache used under REPRO_SIM_CORE=reference and then =event
    runs both cores; the golden fig14 table's cross-check of the two
    shares one cache this way."""
    import repro.sim.gpu as sim_gpu

    built = []
    real = sim_gpu.make_simulator

    def recording(*args, **kwargs):
        sim = real(*args, **kwargs)
        built.append(type(sim).__name__)
        return sim

    monkeypatch.setattr(sim_gpu, "make_simulator", recording)
    kernel, cache, config = _tiny_kernel(), TraceCache(), baseline_config()
    monkeypatch.setenv("REPRO_SIM_CORE", "reference")
    reference = run_kernel(kernel, config, cache)
    monkeypatch.setenv("REPRO_SIM_CORE", "event")
    event = run_kernel(kernel, config, cache)
    assert built == ["SMSimulator", "EventSMSimulator"]
    assert cache.stats.sim_reuses == 0
    assert event.cycles == reference.cycles

    run_kernel(kernel, config, cache)
    assert len(built) == 2
    assert cache.stats.sim_reuses == 1


# -- format 2 round trip -----------------------------------------------------


def _sharing(traces) -> list[int]:
    """Each record's first position in the flattened traces: equal
    lists mean equal record sharing."""
    first: dict[int, int] = {}
    return [
        first.setdefault(id(i), len(first))
        for t in traces for w in t.warps for i in w.instrs
    ]


def _assert_round_trip(traces) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp)
        assert store.save("r" * 64, traces)
        loaded = store.load("r" * 64)["traces"]
    assert encode_traces(loaded) == encode_traces(traces)
    # Field for field the traced records (format 1 round-tripped to
    # those too), shared as the traced run shared them.
    assert loaded == traces
    assert _sharing(loaded) == _sharing(traces)
    distinct = len({
        id(i) for t in traces for w in t.warps for i in w.instrs
    })
    assert len(encode_trace_table(traces)["records"]) == distinct


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_fuzz_traces_round_trip_through_format_2(seed):
    kernel = build_kernel(generate_spec(seed))
    traces = run_functional(
        kernel.program, kernel.image_factory(), kernel.launch
    ).traces
    _assert_round_trip(traces)


@pytest.mark.parametrize(
    "fixture", ["stream_setup", "gather_setup", "tile_setup"]
)
def test_fixture_traces_round_trip_through_format_2(fixture, request):
    program, image_factory, launch, _ = request.getfixturevalue(fixture)
    _assert_round_trip(run_functional(program, image_factory(), launch).traces)


@pytest.mark.parametrize("depth", [None, 2])
def test_registry_traces_round_trip_through_format_2(depth):
    # A TMA.GATHER ring: records with TMA jobs and queue traffic.
    traces = _registry_traces("pointnet", "ball_query_gather", depth)
    assert len(set(_sharing(traces))) < len(_sharing(traces))
    _assert_round_trip(traces)


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


def test_store_file_is_compact_format_2_json(store):
    traces = _tiny_traces()
    assert store.save("k" * 64, traces, num_stages=2)
    envelope = {
        "format": 2,
        "key": "k" * 64,
        "payload": {
            "traces": encode_trace_table(traces), "num_stages": 2,
        },
    }
    expected = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    assert gzip.decompress(store._path("k" * 64).read_bytes()) == expected
    # One row per distinct record; warps are lists of row indices.
    table = envelope["payload"]["traces"]
    distinct = {
        id(i) for t in traces for w in t.warps for i in w.instrs
    }
    assert len(table["records"]) == len(distinct)
    for kernel in table["kernels"]:
        for warp in kernel["warps"]:
            assert all(isinstance(i, int) for i in warp["instrs"])


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


def _format_1_bytes(key: str, traces, writer: str) -> bytes:
    """An entry as format-1 stores wrote it: every record in full."""
    envelope = {
        "format": 1,
        "key": key,
        "payload": {"traces": encode_traces(traces)},
    }
    raw = io.BytesIO()
    if writer == "streaming":
        with gzip.open(raw, "wt", encoding="utf-8") as fh:
            json.dump(envelope, fh, separators=(",", ":"))
    else:
        text = json.dumps(envelope, separators=(",", ":"))
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(text.encode("utf-8"))
            gz.flush()
    return raw.getvalue()


@pytest.mark.parametrize("writer", ["one-shot", "streaming"])
def test_format_1_entry_is_a_miss_that_regenerates(store, writer):
    # Format-1 entries sit under keys no format-2 cache asks for; even
    # one planted under the current key must read as a miss, be
    # regenerated in format 2, and then hit.
    kernel = _tiny_kernel()
    key = TraceCache().key_for(kernel, None)
    store.cache_dir.mkdir(parents=True)
    store._path(key).write_bytes(
        _format_1_bytes(key, _tiny_traces(), writer)
    )
    assert store.load(key) is None

    cold = TraceCache(store=store)
    traces = cold.original(kernel).traces
    assert cold.stats.disk_hits == 0
    assert cold.stats.generations == 1
    assert cold.stats.disk_writes == 1

    warm = TraceCache(store=store)
    loaded = warm.original(kernel).traces
    assert warm.stats.disk_hits == 1
    assert warm.stats.generations == 0
    assert encode_traces(loaded) == encode_traces(traces)


def _rewrite_table(store, key, edit) -> None:
    path = store._path(key)
    envelope = json.loads(gzip.decompress(path.read_bytes()))
    edit(envelope["payload"]["traces"])
    path.write_bytes(gzip.compress(json.dumps(envelope).encode("utf-8")))


def _index_past_table(table):
    table["kernels"][0]["warps"][0]["instrs"][0] = len(table["records"])


def _negative_index(table):
    table["kernels"][0]["warps"][0]["instrs"][0] = -1


def _truncated_table(table):
    del table["records"][-1]


def _index_list_not_a_list(table):
    table["kernels"][0]["warps"][0]["instrs"] = 3


def _index_list_is_a_string(table):
    table["kernels"][0]["warps"][0]["instrs"] = "012"


@pytest.mark.parametrize("edit", [
    _index_past_table, _negative_index, _truncated_table,
    _index_list_not_a_list, _index_list_is_a_string,
])
def test_corrupt_record_table_is_a_miss(store, edit):
    key = "c" * 64
    assert store.save(key, _tiny_traces())
    _rewrite_table(store, key, edit)
    assert store.load(key) is None


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

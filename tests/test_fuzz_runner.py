"""The fuzz fan-out: jobs-determinism, REPRO_JOBS, verdict caching,
time budget, and the ``repro fuzz`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.experiments.runner import GLOBAL_CACHE
from repro.fexec.trace_store import TraceStore
from repro.fuzz.oracle import run_oracle
from repro.fuzz.runner import FuzzReport, run_fuzz

SEEDS = 8


@pytest.fixture
def tmp_cache(tmp_path):
    saved = GLOBAL_CACHE.store
    GLOBAL_CACHE.store = TraceStore(str(tmp_path / "cache"))
    try:
        yield GLOBAL_CACHE.store
    finally:
        GLOBAL_CACHE.store = saved


@pytest.fixture
def no_cache():
    saved = GLOBAL_CACHE.store
    GLOBAL_CACHE.store = None
    try:
        yield
    finally:
        GLOBAL_CACHE.store = saved


def _comparable(report: FuzzReport) -> dict:
    doc = report.to_json()
    # Timing, parallelism, and cache warmth legitimately vary between
    # otherwise-identical runs; everything else must match exactly.
    del doc["wall_seconds"]
    del doc["jobs"]
    del doc["verdict_cache_hits"]
    return doc


def test_jobs_one_and_many_agree(no_cache):
    serial = run_fuzz(seeds=SEEDS, jobs=1, shrink=False,
                      metamorphic=False)
    parallel = run_fuzz(seeds=SEEDS, jobs=3, shrink=False,
                        metamorphic=False)
    assert serial.seeds_run == parallel.seeds_run == SEEDS
    assert _comparable(serial) == _comparable(parallel)


def test_jobs_agree_on_injected_failures(no_cache):
    serial = run_fuzz(seeds=4, jobs=1, shrink=False, inject="drop-push",
                      metamorphic=False)
    parallel = run_fuzz(seeds=4, jobs=2, shrink=False, inject="drop-push",
                        metamorphic=False)
    assert serial.failures and _comparable(serial) == _comparable(parallel)


def test_repro_jobs_env_is_honored(no_cache, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    report = run_fuzz(seeds=2, shrink=False, metamorphic=False)
    assert report.jobs == 2


def test_identical_reruns_hit_the_verdict_cache(tmp_cache):
    cold = run_fuzz(seeds=SEEDS, jobs=1, shrink=False)
    assert cold.verdict_cache_hits == 0 and cold.passed
    warm = run_fuzz(seeds=SEEDS, jobs=1, shrink=False)
    assert warm.verdict_cache_hits == SEEDS and warm.passed
    assert _comparable(cold) == _comparable(warm)


def test_verdict_cache_shared_across_jobs(tmp_cache):
    run_fuzz(seeds=SEEDS, jobs=2, shrink=False)
    warm = run_fuzz(seeds=SEEDS, jobs=2, shrink=False)
    assert warm.verdict_cache_hits == SEEDS


def test_time_budget_stops_early(no_cache):
    report = run_fuzz(seeds=50, jobs=1, shrink=False, metamorphic=False,
                      time_budget=0.0)
    assert report.budget_exhausted
    assert report.seeds_run < 50


def test_time_budget_counts_every_started_seed(no_cache, monkeypatch,
                                              tmp_path):
    """When the budget runs out with seeds in flight, those seeds still
    finish and count: the counted seeds are exactly the started ones, a
    prefix, and their injected failures are all reported — the same
    failures an unbudgeted serial run over that prefix reports."""
    from repro.fuzz import runner

    def marking_oracle(spec, **kwargs):
        (tmp_path / str(spec.seed)).touch()
        return run_oracle(spec, **kwargs)

    monkeypatch.setattr(runner, "run_oracle", marking_oracle)
    report = run_fuzz(seeds=40, jobs=2, shrink=False, inject="drop-push",
                      metamorphic=False, time_budget=0.3)
    started = sorted(int(p.name) for p in tmp_path.iterdir())
    assert report.budget_exhausted
    assert 0 < report.seeds_run < 40
    assert started == list(range(report.seeds_run))
    reference = run_fuzz(seeds=report.seeds_run, jobs=1, shrink=False,
                         inject="drop-push", metamorphic=False)
    assert report.failures
    assert [f.to_json() for f in report.failures] == [
        f.to_json() for f in reference.failures
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_seed_is_named(no_cache, monkeypatch, jobs):
    from repro.fuzz import runner

    real = runner.run_oracle

    def run_oracle(spec, **kwargs):
        if spec.seed == 2:
            raise RuntimeError("injected")
        return real(spec, **kwargs)

    monkeypatch.setattr(runner, "run_oracle", run_oracle)
    with pytest.raises(ReproError, match="seed 2: RuntimeError") as info:
        run_fuzz(seeds=4, jobs=jobs, shrink=False, metamorphic=False)
    assert isinstance(info.value.__cause__, RuntimeError)


def test_failures_can_persist_to_corpus(no_cache, tmp_path):
    report = run_fuzz(
        seeds=1, jobs=1, shrink=False, inject="drop-push",
        metamorphic=False, save_corpus=True, corpus_dir=tmp_path,
    )
    assert report.failures
    assert report.corpus_paths
    assert list(tmp_path.glob("*.json"))


def test_report_json_shape(no_cache):
    doc = run_fuzz(seeds=2, jobs=1, shrink=False,
                   metamorphic=False).to_json()
    assert doc["seeds_requested"] == 2
    assert doc["passed"] is True
    assert set(doc["skeleton_counts"]) <= {
        "streaming", "gather", "tiled", "reduction", "mixed"
    }
    json.dumps(doc)  # must be JSON-clean


def test_summary_lines_mention_failures(no_cache):
    report = run_fuzz(seeds=1, jobs=1, shrink=False, inject="drop-push",
                      metamorphic=False)
    text = "\n".join(report.summary_lines())
    assert "FAILURES" in text


class TestCli:
    def test_fuzz_clean_run_exits_zero(self, no_cache, capsys):
        rc = main(["fuzz", "--seeds", "2", "--no-metamorphic",
                   "--no-cache"])
        assert rc == 0
        assert "no failures" in capsys.readouterr().out

    def test_fuzz_inject_expect_failures(self, no_cache, capsys):
        rc = main(["fuzz", "--seeds", "2", "--no-metamorphic",
                   "--no-shrink", "--inject", "drop-push",
                   "--expect-failures", "--no-cache"])
        assert rc == 0
        assert "caught the injected bug" in capsys.readouterr().out

    def test_fuzz_inject_without_expect_exits_nonzero(self, no_cache):
        rc = main(["fuzz", "--seeds", "2", "--no-metamorphic",
                   "--no-shrink", "--inject", "drop-push", "--no-cache"])
        assert rc == 1

    def test_fuzz_unknown_mutation_rejected(self, no_cache):
        with pytest.raises(SystemExit):
            main(["fuzz", "--seeds", "1", "--inject", "nope",
                  "--no-cache"])

    def test_fuzz_json_out(self, no_cache, tmp_path):
        out = tmp_path / "fuzz.json"
        rc = main(["fuzz", "--seeds", "2", "--no-metamorphic",
                   "--json-out", str(out), "--no-cache"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["seeds_run"] == 2

    def test_fuzz_corpus_replay(self, no_cache, capsys):
        rc = main(["fuzz", "--corpus", "--no-cache"])
        assert rc == 0
        assert "entries hold" in capsys.readouterr().out

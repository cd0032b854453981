"""Command-line interface: regenerate any paper artifact from the shell.

Examples::

    python -m repro list
    python -m repro fig14 --scale 0.5 --jobs 4
    python -m repro table2 --benchmarks pointnet lonestar_bfs
    python -m repro fig18 --scale 0.25 --no-cache
    python -m repro profile gemm --trace-out trace.json
    python -m repro fig14 --profile --trace-out fig14.json
    python -m repro lint --all --json-out lint.json
    python -m repro lint pointnet bert
    python -m repro validate --all --options standard --depths 2,4,8
    python -m repro validate --corpus
    python -m repro fuzz --seeds 200 --jobs 4
    python -m repro fuzz --seeds 50 --inject drop-push --expect-failures
    python -m repro fuzz --corpus
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from repro.sweeps import check_benchmarks, parse_depths, run_sweep, write_json

_ARTIFACTS = {
    "table2": "Table II — median/max kernel speedups",
    "fig3": "Figure 3 — pointnet utilization timeline",
    "fig14": "Figure 14 — overall speedup (4 configurations)",
    "fig15": "Figure 15 — progressive WASP hardware features",
    "fig16": "Figure 16 — register footprint",
    "fig17": "Figure 17 — scheduling policies",
    "fig18": "Figure 18 — RFQ size sweep",
    "fig19": "Figure 19 — dynamic instruction breakdown",
    "fig20": "Figure 20 — bandwidth sensitivity",
    "fig21": "Figure 21 — L2 utilization",
    "table4": "Table IV — WASP area overhead",
}


def _flag(parser: argparse.ArgumentParser, name: str, help: str) -> None:
    """A boolean ``--name`` switch."""
    parser.add_argument(name, action="store_true", help=help)


def _path(
    parser: argparse.ArgumentParser, name: str, help: str,
    metavar: str = "PATH",
) -> None:
    """An optional ``--name PATH`` file or directory."""
    parser.add_argument(name, default=None, metavar=metavar, help=help)


def _add_run_flags(
    parser: argparse.ArgumentParser, metrics: bool = True
) -> None:
    """Telemetry-snapshot and trace-cache flags of commands that run
    kernels."""
    if metrics:
        _path(parser, "--metrics-out", "enable telemetry and write a "
              "repro-metrics-v1 JSON snapshot of the run")
        _path(parser, "--metrics-prom", "also write the metrics snapshot "
              "in Prometheus text exposition format")
    _path(parser, "--cache-dir", "trace cache directory (default: "
          "REPRO_CACHE_DIR or .repro_cache)", metavar="DIR")
    _flag(parser, "--no-cache", "disable the persistent on-disk trace "
          "cache")
    _flag(parser, "--clear-cache", "delete all persisted trace cache "
          "entries before running")


def _write_metrics(
    command: str, json_out: str | None, prom_out: str | None
) -> dict:
    """Snapshot the telemetry registry and write it as repro-metrics-v1
    JSON and/or Prometheus text."""
    from repro.telemetry.registry import TELEMETRY
    from repro.telemetry.snapshot import (
        build_metrics_document,
        write_metrics_outputs,
    )
    from repro.telemetry.spans import SPANS

    doc = build_metrics_document(
        TELEMETRY.snapshot(), command=command, spans=SPANS
    )
    write_metrics_outputs(doc, json_out, prom_out)
    if json_out:
        print(f"[wrote {len(doc['metrics'])} metric series to {json_out}]")
    if prom_out:
        print(f"[wrote Prometheus metrics to {prom_out}]")
    return doc


def _add_scale(
    parser: argparse.ArgumentParser, default: float = 0.25, why: str = ""
) -> None:
    parser.add_argument(
        "--scale", type=float, default=default,
        help=f"workload scale factor (default {default}{why})",
    )


def _add_jobs(parser: argparse.ArgumentParser, why: str) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None,
        help=f"worker processes (default: REPRO_JOBS or 1){why}",
    )


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", default="WASP_GPU",
        help="evaluation configuration name (default: WASP_GPU)",
    )


def _add_corpus(parser: argparse.ArgumentParser, what: str) -> None:
    _flag(parser, "--corpus", what)
    _path(parser, "--corpus-dir", "corpus directory (default: "
          "tests/corpus/)", metavar="DIR")


def _add_seeds(
    parser: argparse.ArgumentParser, default: int, what: str
) -> None:
    parser.add_argument(
        "--seeds", type=int, default=default, metavar="N", help=what,
    )
    parser.add_argument(
        "--seed-base", type=int, default=0, metavar="B",
        help="first seed (default 0); the run covers B .. B+N-1",
    )


def _add_depths(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--depths", type=parse_depths, default="2", metavar="D[,D...]",
        help="comma-separated circular-buffer ring depths (default 2); "
             "depth D recompiles every compiler-enabled cell with "
             "pipeline_depth=D",
    )


def _add_check_flags(
    parser: argparse.ArgumentParser, verb: str, report: str, verbose: str
) -> None:
    """Benchmark names, ``--all``, ``--json-out``, ``--sarif`` and
    ``--verbose``: the flags lint and validate share."""
    parser.add_argument(
        "benchmarks", nargs="*",
        help=f"benchmark names to {verb} (default with --all or no "
             "names: every registered benchmark)",
    )
    _flag(parser, "--all", f"{verb} every registered benchmark (explicit "
          "form of the no-argument default, for scripts)")
    _path(parser, "--json-out", f"write the full {report} report as JSON "
          "(CI archives this as an artifact)")
    _path(parser, "--sarif", "also write the findings as a SARIF 2.1.0 "
          "log (GitHub code scanning / IDE SARIF viewers)")
    _flag(parser, "--verbose", verbose)


def _add_differential_flags(parser: argparse.ArgumentParser) -> None:
    """The corediff/racediff flag set: sources, registry scale, depths."""
    _add_corpus(parser, "diff the committed fuzz corpus specs (default: "
                "corpus and registry when no source flag is given)")
    _flag(parser, "--registry", "diff every registry kernel under the "
          "standard evaluation configs")
    _add_seeds(parser, 0, "additionally diff N freshly generated fuzz "
                          "specs")
    _add_scale(parser, why="; the registry sweep's problem size")
    _add_depths(parser)
    _path(parser, "--json-out", "write the per-comparison report as JSON")
    _add_run_flags(parser)


def _command(
    commands, name: str, summary: str, run, description: str | None = None
) -> argparse.ArgumentParser:
    """Register one subcommand; ``repro list`` prints its summary."""
    parser = commands.add_parser(
        name, help=summary, description=description or summary
    )
    parser.set_defaults(run=run, summary=summary)
    return parser


def _sweep(module: str, declaration: str):
    """Handler running the :class:`repro.sweeps.Sweep` declared as
    ``module.declaration`` (imported on first use)."""
    def run(args: argparse.Namespace) -> int:
        sweep = getattr(importlib.import_module(module), declaration)
        return run_sweep(sweep, args)

    return run


def build_parser() -> argparse.ArgumentParser:
    """The whole CLI: one subcommand per artifact and per tool."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WASP (HPCA 2024) reproduction: regenerate paper "
                    "tables and figures, and run the toolchain's "
                    "checks.",
    )
    commands = parser.add_subparsers(
        dest="command", metavar="COMMAND", required=True
    )
    artifacts = {
        **_ARTIFACTS,
        "list": "Describe every artifact and subcommand",
        "all": "Regenerate every artifact in turn",
    }
    for name, summary in artifacts.items():
        sub = _command(commands, name, summary, _run_artifacts)
        sub.set_defaults(artifact=name)
        _add_scale(sub, 0.5, "; 1.0 = full size")
        sub.add_argument(
            "--benchmarks", nargs="*", default=None,
            help="benchmark subset (default: every registered benchmark)",
        )
        _add_jobs(sub, " for the sweep")
        _flag(sub, "--profile", "print the sweep's aggregate stall-cause "
              "breakdown")
        _path(sub, "--profile-json", "write the sweep's stall/cache "
              "statistics as JSON")
        _path(sub, "--trace-out", "write a Chrome trace of a "
              "representative workload (the sweep's first benchmark "
              "under WASP_GPU) for Perfetto")
        _add_run_flags(sub)
    commands.choices["list"].set_defaults(run=lambda args: _list(commands))

    sub = _command(
        commands, "profile", "Pipeline profiler", run_profile,
        "Profile one workload's pipeline: stall-cause attribution, queue "
        "occupancy, and an optional Chrome trace for Perfetto.",
    )
    sub.add_argument(
        "benchmark",
        help="registered benchmark name (see 'repro list' artifacts, "
             "e.g. pointnet, gemm, spmv1_g3)",
    )
    sub.add_argument(
        "--kernel", default=None,
        help="kernel within the benchmark (default: every kernel)",
    )
    _add_config(sub)
    _add_scale(sub, why="; profiling favours small runs")
    _path(sub, "--trace-out", "write a Chrome trace_event JSON loadable "
          "in https://ui.perfetto.dev")
    _path(sub, "--json-out", "write the stall/queue profile as "
          "machine-readable JSON")
    sub.add_argument(
        "--trace-capacity", type=int, default=None,
        help="event ring-buffer size (oldest events drop beyond this)",
    )
    _flag(sub, "--sanitize", "also run the vector-clock SMEM race "
          "sanitizer over each kernel's functional execution and report "
          "observed races")
    _add_run_flags(sub)

    sub = _command(
        commands, "lint", "Static pipeline verifier", _run_lint,
        "Static pipeline verification: compile each kernel and run the "
        "queue-protocol, deadlock, SMEM-race and resource passes without "
        "executing anything.  Exits non-zero when any error-severity "
        "diagnostic fires.",
    )
    _add_check_flags(sub, "lint", "diagnostic",
                     "also list kernels that verified clean")
    _add_scale(sub, why="; findings are scale-independent for all "
                        "current workloads")
    _flag(sub, "--strict", "exit non-zero on warnings too, not only on "
          "errors")
    _flag(sub, "--validate", "also run the translation validator on each "
          "compile and merge its WASP-T findings into the report")
    _add_corpus(sub, "lint the committed fuzz-corpus kernels "
                     "(tests/corpus/) instead of the benchmark registry")
    _flag(sub, "--list-rules", "print the WASP-C/Q/D/S/R/T rule catalogue "
          "(id, severity, description) and exit without linting anything")

    sub = _command(
        commands, "validate", "Translation validation certificates",
        _sweep("repro.analysis.lint", "VALIDATE"),
        "Translation validation: prove each WASP compile equivalent to "
        "its source kernel without executing either — symbolic effect "
        "summaries, ring-slot residue matching, and queue value "
        "threading.  Exits non-zero on any not-equivalent verdict OR any "
        "abstention (an uncertified compile is a finding, never a "
        "silent pass).",
    )
    _add_check_flags(sub, "validate", "validation",
                     "also list compiles that certified equivalent")
    _add_scale(sub, why="; verdicts are scale-independent for all "
                        "current workloads")
    _add_depths(sub)
    sub.add_argument(
        "--options", default="full", metavar="SET[,SET…]",
        help="comma-separated compiler option sets to cross with "
             "--depths: sw-queues, full, two-stage, tiny-queues, or "
             "'standard' for all four (default: full)",
    )
    _add_corpus(sub, "validate the committed fuzz corpus (tests/corpus/) "
                     "instead of the registry; injected-corruption "
                     "entries must be statically flagged not-equivalent")

    sub = _command(
        commands, "fuzz", "Differential fuzzing harness", run_fuzz_cli,
        "Differential fuzzing: random pipeline kernels run unspecialized "
        "and after WaspCompiler stage-splitting must produce "
        "bit-identical memory, consistent instruction accounting, and "
        "obey the simulator's metamorphic timing invariants.  Failing "
        "seeds are shrunk to minimal repros.  Exits non-zero on any "
        "failure (inverted by --expect-failures).",
    )
    _add_seeds(sub, 100, "number of seeds to fuzz (default 100)")
    _add_jobs(sub, "; results are identical for any value")
    _flag(sub, "--no-shrink", "report failures without minimizing them "
          "first")
    _flag(sub, "--no-metamorphic", "skip the simulator timing invariants "
          "(differential functional oracle only)")
    _path(sub, "--inject", "corrupt every specialized program with a "
          "named mutation (drop-pop, drop-push, arrive-to-wait) — the "
          "oracle self-test; combine with --expect-failures",
          metavar="MUTATION")
    _flag(sub, "--expect-failures", "invert the exit code: succeed only "
          "when failures were caught (CI uses this to prove the oracle "
          "detects injected bugs)")
    sub.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop dispatching new seeds after this much wall-clock "
             "time (the nightly CI budget)",
    )
    _add_corpus(sub, "replay every committed corpus entry instead of "
                     "fuzzing fresh seeds")
    _flag(sub, "--save-corpus", "persist (minimized) failures as corpus "
          "entries")
    _path(sub, "--json-out", "write the fuzz report as machine-readable "
          "JSON")
    _add_run_flags(sub)

    sub = _command(
        commands, "advise", "Analytical pipeline advisor", run_advise,
        "Analytical pipeline advisor: predict each kernel's cycles with "
        "the static performance model, enumerate candidate "
        "configurations (queue depths, stage splits, TMA on/off), and "
        "suggest an options delta only when the predicted gain clears "
        "the margin.  No candidate is simulated; one simulation of the "
        "default configuration calibrates each row.",
    )
    sub.add_argument(
        "benchmarks", nargs="+",
        help="registered benchmark name(s) to advise on",
    )
    _add_config(sub)
    _add_scale(sub)
    sub.add_argument(
        "--margin", type=float, default=None,
        help="minimum predicted relative gain before suggesting a "
             "non-default configuration (default: the calibrated "
             "SUGGESTION_MARGIN)",
    )
    _flag(sub, "--no-simulate", "skip the per-kernel calibration "
          "simulation (pure static mode; rows carry no "
          "predicted-vs-simulated error)")
    _path(sub, "--json-out", "write the advise report as JSON (schema "
          "repro-advise-report-v1)")
    _add_run_flags(sub)

    sub = _command(
        commands, "corediff", "Reference-vs-event core differential",
        _sweep("repro.sim.differential", "COREDIFF"),
        "Reference-vs-event SM core differential: replay the fuzz corpus "
        "and/or the kernel registry through both simulator cores and "
        "demand bit-identical results (CI's core-differential gate).",
    )
    _add_differential_flags(sub)

    sub = _command(
        commands, "racediff", "Sanitizer-vs-static race differential",
        _sweep("repro.analysis.racediff", "RACEDIFF"),
        "Static-vs-dynamic race differential: run the fuzz corpus and/or "
        "the kernel registry with the vector-clock SMEM sanitizer "
        "attached and require every observed race to be flagged by the "
        "static happens-before engine (CI's race-analysis trust gate, "
        "the analysis counterpart of corediff).",
    )
    _add_differential_flags(sub)

    sub = _command(
        commands, "metrics", "Telemetry snapshot smoke run", run_metrics,
        "Telemetry smoke run: execute a small sweep with the metrics "
        "registry enabled and emit the repro-metrics-v1 snapshot (JSON "
        "and/or Prometheus text format).  Covers the event core, cache, "
        "process-pool and pass-timing metric families.",
    )
    sub.add_argument(
        "--benchmarks", nargs="*", default=["pointnet"],
        help="benchmarks to sweep for the snapshot (default: pointnet)",
    )
    _add_scale(sub)
    _add_jobs(sub, "; invariant counters are identical for any value")
    _path(sub, "--json-out", "write the repro-metrics-v1 JSON snapshot "
          "here")
    _path(sub, "--prom-out", "write the Prometheus text exposition here")
    _add_run_flags(sub, metrics=False)

    bench = _command(commands, "bench", "Perf-trajectory dashboard", None)
    sub = bench.add_subparsers(
        dest="bench_command", metavar="report", required=True
    ).add_parser(
        "report",
        description="Perf-trajectory dashboard: read every committed "
                    "BENCH_*.json (plus an optional freshly measured "
                    "run) and render a per-benchmark regression table "
                    "on calibration-normalized wall-clock.",
    )
    sub.set_defaults(run=run_bench_report)
    sub.add_argument(
        "--dir", default=".", metavar="DIR",
        help="directory holding the BENCH_*.json files (default: .)",
    )
    _path(sub, "--current", "a freshly measured perf-harness document to "
          "diff against the committed baseline (write one with "
          "'python -m benchmarks.perf.run --output PATH')")
    sub.add_argument(
        "--baseline", default="BENCH_core", metavar="STEM",
        help="committed file to diff against (default: BENCH_core)",
    )
    sub.add_argument(
        "--tolerance", type=float, default=0.2,
        help="normalized regression threshold (default 0.2 = 20%%)",
    )
    _path(sub, "--json-out", "write the repro-bench-report-v1 document as "
          "JSON")
    return parser


def _list(commands) -> int:
    """``repro list``: the artifacts, then every other subcommand."""
    width = max(len(k) for k in _ARTIFACTS)
    for key in sorted(_ARTIFACTS):
        print(f"  {key.ljust(width)}  {_ARTIFACTS[key]}")
    print()
    for name, sub in commands.choices.items():
        if name not in _ARTIFACTS and name not in ("list", "all"):
            print(f"  {name.ljust(8)}  {sub.get_default('summary')} "
                  f"({sub.prog} --help)")
    return 0


def run_advise(args: argparse.Namespace) -> int:
    """``repro advise <workload>``: analytical configuration advice."""
    from repro.analysis.perfmodel import SUGGESTION_MARGIN, advise_workload

    check_benchmarks(args.benchmarks)
    config = _named_config(args.config)
    margin = args.margin if args.margin is not None else SUGGESTION_MARGIN

    start = time.time()
    reports = []
    for name in args.benchmarks:
        report = advise_workload(
            name,
            config,
            scale=args.scale,
            margin=margin,
            simulate=not args.no_simulate,
        )
        reports.append(report)
        print(_advise_text(report))
    if args.json_out:
        doc = (
            reports[0].to_json()
            if len(reports) == 1
            else {
                "schema": "repro-advise-report-v1",
                "reports": [r.to_json() for r in reports],
            }
        )
        write_json(args.json_out, doc, "advise JSON")
    total = sum(len(r.kernels) for r in reports)
    print(f"[advised {total} kernel(s) in {time.time() - start:.1f}s]")
    return 0


def _advise_text(report) -> str:
    """Human-readable rendering of one workload's advice."""
    from repro.core.compiler.pipeline import options_delta

    lines = [f"advise: {report.workload} [{report.config_name}]"]
    for advice in report.kernels:
        lines.append(f"  {advice.kernel_name}:")
        lines.append(
            f"    predicted {advice.default_cycles:.0f} cycles; "
            f"bottleneck stage "
            f"{advice.default_prediction.bottleneck_stage} "
            f"({advice.default_prediction.bottleneck_cause or 'none'})"
        )
        if advice.simulated_cycles is not None:
            error = advice.predicted_error
            lines.append(
                f"    simulated {advice.simulated_cycles:.0f} cycles "
                f"(model error {error:.1%})"
            )
        for line in advice.default_prediction.explanation:
            lines.append(f"      {line}")
        if advice.suggestion is None:
            lines.append("    suggestion: keep the default options")
            if advice.rejected_suggestion is not None:
                delta = options_delta(
                    advice.default_options,
                    advice.rejected_suggestion.options,
                )
                lines.append(
                    f"      (withheld {delta}: predicted faster but "
                    f"simulated {advice.simulated_suggested_cycles:.0f} "
                    f"cycles, slower than the default)"
                )
        else:
            delta = options_delta(
                advice.default_options, advice.suggestion.options
            )
            lines.append(
                f"    suggestion: {delta} "
                f"(predicted {advice.predicted_gain:.1%} faster)"
            )
            if advice.simulated_suggested_cycles is not None:
                lines.append(
                    f"      verified: simulated "
                    f"{advice.simulated_suggested_cycles:.0f} cycles "
                    f"under the suggestion"
                )
    return "\n".join(lines)


def run_fuzz_cli(args: argparse.Namespace) -> int:
    """``repro fuzz``: the differential fuzzing harness."""
    from pathlib import Path

    from repro.fuzz import run_fuzz
    from repro.fuzz.mutate import MUTATIONS

    if args.inject is not None and args.inject not in MUTATIONS:
        raise SystemExit(
            f"unknown mutation {args.inject!r}; choose from: "
            + ", ".join(sorted(MUTATIONS))
        )
    corpus_dir = Path(args.corpus_dir) if args.corpus_dir else None

    if args.corpus:
        return _replay_corpus(corpus_dir, args.json_out)

    report = run_fuzz(
        seeds=args.seeds,
        seed_base=args.seed_base,
        jobs=args.jobs,
        shrink=not args.no_shrink,
        inject=args.inject,
        metamorphic=not args.no_metamorphic,
        time_budget=args.time_budget,
        save_corpus=args.save_corpus,
        corpus_dir=corpus_dir,
    )
    print("\n".join(report.summary_lines()))
    for path in report.corpus_paths:
        print(f"[saved corpus entry {path}]")
    if args.json_out:
        write_json(args.json_out, report.to_json(), "fuzz JSON")
    failed = bool(report.failures) or report.seeds_run == 0
    if args.expect_failures:
        if failed:
            print("[expected failures: oracle caught the injected bug]")
            return 0
        print("[expected failures but every seed passed — the oracle "
              "missed the injected bug]")
        return 1
    return 1 if failed else 0


def _replay_corpus(corpus_dir, json_out: str | None) -> int:
    """Replay every committed corpus entry against its expectation."""
    from repro.fuzz.corpus import load_corpus, replay_entry

    entries = load_corpus(corpus_dir)
    if not entries:
        print("corpus: no entries found")
        return 0
    bad = 0
    docs = []
    start = time.time()
    for entry in entries:
        failures = replay_entry(entry)
        if entry.expect == "pass":
            ok = not failures
            detail = "; ".join(f.summary() for f in failures)
        else:
            want = entry.expect.split(":", 1)[1]
            ok = any(f.check == want for f in failures)
            detail = f"expected a {want} failure, got " + (
                ", ".join(sorted({f.check for f in failures})) or "a pass"
            )
        status = "ok" if ok else "VIOLATED"
        print(f"  {entry.name}: {status}" + ("" if ok else f" ({detail})"))
        docs.append({"entry": entry.name, "ok": ok,
                     "failures": [f.to_json() for f in failures]})
        bad += 0 if ok else 1
    print(f"corpus: {len(entries) - bad}/{len(entries)} entries hold "
          f"({time.time() - start:.1f}s)")
    if json_out:
        write_json(json_out, {"entries": docs}, "corpus JSON")
    return 1 if bad else 0


def run_metrics(args: argparse.Namespace) -> int:
    """``repro metrics``: telemetry-enabled smoke sweep + snapshot."""
    from repro.experiments.configs import standard_configs
    from repro.experiments.parallel import run_sweep
    from repro.telemetry.registry import TELEMETRY
    from repro.telemetry.snapshot import (
        missing_families,
        render_prometheus,
        validate_metrics_document,
    )

    check_benchmarks(args.benchmarks)
    TELEMETRY.enable()
    start = time.time()
    configs = [
        c for c in standard_configs()
        if c.name in ("BASELINE", "WASP_GPU")
    ] or standard_configs()[:1]
    run_sweep(args.benchmarks, args.scale, configs, jobs=args.jobs)

    doc = _write_metrics("metrics", args.json_out, args.prom_out)
    problems = validate_metrics_document(doc) + [
        f"missing required metric family {prefix}*"
        for prefix in missing_families(doc)
    ]
    if not args.json_out and not args.prom_out:
        print(render_prometheus(doc), end="")
    print(
        f"metrics: {len(doc['metrics'])} series, "
        f"{doc['spans']['count']} spans across "
        f"{len(doc['spans']['subsystems'])} subsystems "
        f"({time.time() - start:.1f}s)"
    )
    for problem in problems:
        print(f"INVALID: {problem}")
    return 1 if problems else 0


def run_bench_report(args: argparse.Namespace) -> int:
    """``repro bench report``: the perf-trajectory dashboard."""
    from repro.telemetry.trajectory import (
        build_bench_report,
        render_bench_report,
    )

    current = None
    if args.current:
        with open(args.current, "r", encoding="utf-8") as handle:
            current = json.load(handle)
    report = build_bench_report(
        directory=args.dir,
        current=current,
        baseline_name=args.baseline,
        tolerance=args.tolerance,
    )
    if not report["rows"]:
        print(f"bench report: no BENCH_*.json files under {args.dir}")
        return 1
    print(render_bench_report(report))
    if args.json_out:
        write_json(args.json_out, report, "bench report JSON")
    return 1 if report["summary"]["regressions"] else 0


def _run_lint(args: argparse.Namespace) -> int:
    """``repro lint [benchmarks…]``: registry-wide static verification."""
    if args.list_rules:
        from repro.analysis.diagnostics import rules_table_lines

        print("\n".join(rules_table_lines()))
        return 0
    return _sweep("repro.analysis.lint", "LINT")(args)


def _configure_cache(args: argparse.Namespace) -> None:
    from repro.experiments.runner import configure_global_cache
    from repro.fexec.trace_store import TraceStore

    if args.clear_cache:
        store = TraceStore(args.cache_dir)
        removed = store.clear()
        print(
            f"[cleared {removed} cached trace entries from "
            f"{store.cache_dir}]"
        )
    configure_global_cache(
        cache_dir=args.cache_dir, enabled=not args.no_cache
    )


def _named_config(name: str):
    from repro.experiments.configs import standard_configs

    for config in standard_configs():
        if config.name == name:
            return config
    names = ", ".join(c.name for c in standard_configs())
    raise SystemExit(f"unknown config {name!r}; choose from: {names}")


def run_profile(args: argparse.Namespace) -> int:
    """``repro profile <benchmark>``: per-kernel pipeline profiles."""
    from repro.experiments.runner import GLOBAL_CACHE, profile_kernel
    from repro.profiling import report as profreport
    from repro.profiling.chrometrace import write_chrome_trace
    from repro.telemetry.spans import SPANS
    from repro.workloads import get_benchmark

    check_benchmarks([args.benchmark])
    config = _named_config(args.config)
    bench = get_benchmark(args.benchmark, args.scale)
    kernels = bench.kernels
    if args.kernel is not None:
        kernels = [bench.kernel(args.kernel)]

    before = GLOBAL_CACHE.stats.snapshot()
    sections = []
    docs = []
    start = time.time()
    for kernel in kernels:
        result, profiler = profile_kernel(
            kernel, config, trace_capacity=args.trace_capacity
        )
        label = f"{bench.name}/{kernel.name}"
        title = (
            f"Stall breakdown: {label} [{config.name}]"
            + (" (specialized)" if result.used_specialized else "")
        )
        print(profreport.profile_text(result.sim, title=title))
        print(_verifier_summary(result, kernel))
        if args.sanitize:
            print(_sanitize_summary(kernel, config))
        if profiler.dropped_events:
            print(
                f"note: ring buffer dropped {profiler.dropped_events} "
                f"of {profiler.events_recorded} trace events "
                f"(raise --trace-capacity to keep more)"
            )
        print()
        sections.append((label, profiler))
        docs.append(
            profreport.profile_json(result.sim, config_name=config.name)
        )

    cache_delta = GLOBAL_CACHE.stats.since(before)
    if args.trace_out:
        trace = write_chrome_trace(
            args.trace_out, sections,
            metadata={"benchmark": bench.name, "config": config.name,
                      "scale": args.scale},
            spans=SPANS,
        )
        print(
            f"[wrote {len(trace['traceEvents'])} trace events to "
            f"{args.trace_out}; open in https://ui.perfetto.dev]"
        )
    if args.json_out:
        doc = {
            "schema": "repro-profile-report-v1",
            "benchmark": bench.name,
            "config": config.name,
            "scale": args.scale,
            "kernels": docs,
            "trace_cache": profreport.cache_stats_json(cache_delta),
        }
        write_json(args.json_out, doc, "profile JSON")
    print(f"[profiled {len(kernels)} kernel(s) in "
          f"{time.time() - start:.1f}s]")
    return 0


def _sanitize_summary(kernel, config) -> str:
    """Dynamic SMEM-race report for one profiled kernel.

    Re-runs the kernel functionally with the vector-clock sanitizer
    attached (the cached traces were generated without it), preferring
    the specialized program when the config's compiler produces one.
    """
    from dataclasses import replace

    from repro.errors import ReproError
    from repro.experiments.runner import WaspCompiler, _compiler_options_for
    from repro.fexec.machine import run_kernel

    program, launch = kernel.program, kernel.launch
    options = _compiler_options_for(kernel, config)
    if options is not None:
        try:
            compiled = WaspCompiler(options).compile(
                kernel.program, num_warps=kernel.launch.num_warps
            )
        except ReproError:
            compiled = None
        if compiled is not None and compiled.specialized:
            program = compiled.program
            launch = replace(
                launch,
                num_warps=launch.num_warps * compiled.num_stages,
            )
    try:
        result = run_kernel(
            program, kernel.image_factory(), launch,
            collect_trace=False, sanitize=True,
        )
    except ReproError as exc:
        return f"sanitizer: run failed ({type(exc).__name__}: {exc})"
    if not result.races:
        return "sanitizer: no SMEM races observed"
    lines = [f"sanitizer: {len(result.races)} race(s) observed"]
    lines.extend(f"  {race.format()}" for race in result.races)
    return "\n".join(lines)


def _verifier_summary(result, kernel) -> str:
    """One-line static-verifier status for a profiled kernel.

    The compiler already verified (and would have raised) during
    compilation, so a specialized kernel reads the compile's shared
    report; kernels that fell back to the original program are
    verified here.
    """
    from repro.analysis.facts import PipelineFacts

    compile_result = getattr(result, "compile_result", None)
    facts = getattr(compile_result, "facts", None) or PipelineFacts(
        kernel.program if compile_result is None
        else compile_result.program
    )
    return facts.report.summary_line()


def _run_one(artifact: str, args: argparse.Namespace) -> None:
    from repro.experiments.parallel import last_report
    from repro.experiments.reporting import format_cache_report

    module = importlib.import_module(f"repro.experiments.{artifact}")
    start = time.time()
    if artifact == "table4":
        result = module.run()
    elif artifact == "fig3":
        result = module.run(scale=args.scale, jobs=args.jobs)
    else:
        result = module.run(
            scale=args.scale, benchmarks=args.benchmarks, jobs=args.jobs
        )
    print(result.to_text())
    print(f"\n[{artifact} regenerated in {time.time() - start:.1f}s]")
    if artifact != "table4":
        from repro.analysis.lint import lint_benchmarks

        lint = lint_benchmarks(args.benchmarks, scale=args.scale)
        line = lint.summary_line()
        if not lint.clean:
            line += "  (details: python -m repro lint)"
        print(line)
    report = last_report()
    if report is not None:
        print(format_cache_report(report))
        if getattr(args, "profile", False):
            from repro.profiling.report import sweep_stalls_text

            print(sweep_stalls_text(report))
        if getattr(args, "profile_json", None):
            from repro.profiling.report import sweep_stalls_json

            doc = sweep_stalls_json(report)
            doc["artifact"] = artifact
            write_json(args.profile_json, doc, "sweep profile JSON")
    if getattr(args, "trace_out", None):
        _write_representative_trace(args)


def _write_representative_trace(args: argparse.Namespace) -> None:
    """``--trace-out`` on an artifact command: trace one workload.

    Sweeps time dozens of kernel×config pairs unprofiled; a full trace
    of all of them would be unreadable, so this profiles the sweep's
    first benchmark (default: pointnet, the paper's Figure 3 subject)
    under WASP_GPU at the same scale and writes that.
    """
    from repro.experiments.runner import profile_kernel
    from repro.profiling.chrometrace import write_chrome_trace
    from repro.workloads import get_benchmark

    name = args.benchmarks[0] if args.benchmarks else "pointnet"
    bench = get_benchmark(name, args.scale)
    config = _named_config("WASP_GPU")
    sections = []
    for kernel in bench.kernels:
        _result, profiler = profile_kernel(kernel, config)
        sections.append((f"{bench.name}/{kernel.name}", profiler))
    trace = write_chrome_trace(
        args.trace_out, sections,
        metadata={"benchmark": bench.name, "config": config.name,
                  "scale": args.scale},
    )
    print(
        f"[wrote {len(trace['traceEvents'])} trace events for "
        f"{bench.name} to {args.trace_out}]"
    )


def _run_artifacts(args: argparse.Namespace) -> int:
    """``repro <artifact>`` and ``repro all``."""
    every = args.artifact == "all"
    for key in sorted(_ARTIFACTS) if every else [args.artifact]:
        _run_one(key, args)
        if every:
            print()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if "cache_dir" in args:
        _configure_cache(args)
    metrics_out = getattr(args, "metrics_out", None)
    metrics_prom = getattr(args, "metrics_prom", None)
    if metrics_out or metrics_prom:
        from repro.telemetry.registry import TELEMETRY

        TELEMETRY.enable()
    code = args.run(args)
    if metrics_out or metrics_prom:
        _write_metrics(args.command, metrics_out, metrics_prom)
    return code


if __name__ == "__main__":
    sys.exit(main())

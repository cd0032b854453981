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


def _add_metrics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable telemetry and write a repro-metrics-v1 JSON "
             "snapshot of the run",
    )
    parser.add_argument(
        "--metrics-prom", default=None, metavar="PATH",
        help="also write the metrics snapshot in Prometheus text "
             "exposition format",
    )


def _metrics_requested(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "metrics_out", None)
        or getattr(args, "metrics_prom", None)
    )


def _enable_metrics(args: argparse.Namespace) -> None:
    """Turn the registry on before any instrumented work runs."""
    if _metrics_requested(args):
        from repro.telemetry.registry import TELEMETRY

        TELEMETRY.enable()


def _write_metrics(args: argparse.Namespace, command: str) -> None:
    """Emit the end-of-run snapshot for ``--metrics-out`` flags."""
    if not _metrics_requested(args):
        return
    from repro.telemetry.registry import TELEMETRY
    from repro.telemetry.snapshot import (
        build_metrics_document,
        write_metrics_outputs,
    )
    from repro.telemetry.spans import SPANS

    doc = build_metrics_document(
        TELEMETRY.snapshot(), command=command, spans=SPANS
    )
    write_metrics_outputs(
        doc, getattr(args, "metrics_out", None),
        getattr(args, "metrics_prom", None),
    )
    if getattr(args, "metrics_out", None):
        print(f"[wrote {len(doc['metrics'])} metric series to "
              f"{args.metrics_out}]")
    if getattr(args, "metrics_prom", None):
        print(f"[wrote Prometheus metrics to {args.metrics_prom}]")


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None,
        help="trace cache directory (default: REPRO_CACHE_DIR or "
             ".repro_cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent on-disk trace cache",
    )
    parser.add_argument(
        "--clear-cache", action="store_true",
        help="delete all persisted trace cache entries before running",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WASP (HPCA 2024) reproduction: regenerate paper "
                    "tables and figures.",
    )
    parser.add_argument(
        "artifact",
        choices=sorted(_ARTIFACTS) + ["list", "all"],
        help="which artifact to regenerate ('list' shows descriptions; "
             "see also the 'profile' subcommand)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.5,
        help="workload scale factor (1.0 = full size; default 0.5)",
    )
    parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        help="benchmark subset (default: all twenty)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the sweep (default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the sweep's aggregate stall-cause breakdown",
    )
    parser.add_argument(
        "--profile-json", default=None, metavar="PATH",
        help="write the sweep's stall/cache statistics as JSON",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace of a representative workload (the "
             "sweep's first benchmark under WASP_GPU) for Perfetto",
    )
    _add_metrics_flags(parser)
    _add_cache_flags(parser)
    return parser


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Profile one workload's pipeline: stall-cause "
                    "attribution, queue occupancy, and an optional "
                    "Chrome trace for Perfetto.",
    )
    parser.add_argument(
        "benchmark",
        help="registered benchmark name (see 'repro list' artifacts, "
             "e.g. pointnet, gemm, spmv1_g3)",
    )
    parser.add_argument(
        "--kernel", default=None,
        help="kernel within the benchmark (default: every kernel)",
    )
    parser.add_argument(
        "--config", default="WASP_GPU",
        help="evaluation configuration name (default: WASP_GPU)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="workload scale factor (default 0.25: profiling favours "
             "small runs)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace_event JSON loadable in "
             "https://ui.perfetto.dev",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the stall/queue profile as machine-readable JSON",
    )
    parser.add_argument(
        "--trace-capacity", type=int, default=None,
        help="event ring-buffer size (oldest events drop beyond this)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="also run the vector-clock SMEM race sanitizer over each "
             "kernel's functional execution and report observed races",
    )
    _add_metrics_flags(parser)
    _add_cache_flags(parser)
    return parser


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Static pipeline verification: compile each kernel "
                    "and run the queue-protocol, deadlock, SMEM-race and "
                    "resource passes without executing anything.  Exits "
                    "non-zero when any error-severity diagnostic fires.",
    )
    parser.add_argument(
        "benchmarks", nargs="*",
        help="benchmark names to lint (default with --all or no names: "
             "every registered benchmark)",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="lint every registered benchmark (explicit form of the "
             "no-argument default, for scripts)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="workload scale factor (default 0.25; findings are "
             "scale-independent for all current workloads)",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the full diagnostic report as JSON (CI archives "
             "this as an artifact)",
    )
    parser.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="also write the findings as a SARIF 2.1.0 log (GitHub "
             "code scanning / IDE SARIF viewers)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings too, not only on errors",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="also list kernels that verified clean",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="also run the translation validator on each compile and "
             "merge its WASP-T findings into the report",
    )
    parser.add_argument(
        "--corpus", action="store_true",
        help="lint the committed fuzz-corpus kernels (tests/corpus/) "
             "instead of the benchmark registry",
    )
    parser.add_argument(
        "--corpus-dir", default=None, metavar="DIR",
        help="corpus directory (default: tests/corpus/)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the WASP-C/Q/D/S/R/T rule catalogue (id, severity, "
             "description) and exit without linting anything",
    )
    return parser


def build_validate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro validate",
        description="Translation validation: prove each WASP compile "
                    "equivalent to its source kernel without executing "
                    "either — symbolic effect summaries, ring-slot "
                    "residue matching, and queue value threading.  "
                    "Exits non-zero on any not-equivalent verdict OR "
                    "any abstention (an uncertified compile is a "
                    "finding, never a silent pass).",
    )
    parser.add_argument(
        "benchmarks", nargs="*",
        help="benchmark names to validate (default with --all or no "
             "names: every registered benchmark)",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="validate every registered benchmark (explicit form of "
             "the no-argument default, for scripts)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="workload scale factor (default 0.25; verdicts are "
             "scale-independent for all current workloads)",
    )
    parser.add_argument(
        "--depths", default="2", metavar="D[,D…]",
        help="comma-separated circular-buffer ring depths to validate "
             "at (default: 2; CI sweeps 2,4,8)",
    )
    parser.add_argument(
        "--options", default="full", metavar="SET[,SET…]",
        help="comma-separated compiler option sets to cross with "
             "--depths: sw-queues, full, two-stage, tiny-queues, or "
             "'standard' for all four (default: full)",
    )
    parser.add_argument(
        "--corpus", action="store_true",
        help="validate the committed fuzz corpus (tests/corpus/) "
             "instead of the registry; injected-corruption entries "
             "must be statically flagged not-equivalent",
    )
    parser.add_argument(
        "--corpus-dir", default=None, metavar="DIR",
        help="corpus directory (default: tests/corpus/)",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the full validation report as JSON (CI archives "
             "this as an artifact)",
    )
    parser.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="also write the findings as a SARIF 2.1.0 log",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="also list compiles that certified equivalent",
    )
    return parser


def build_advise_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro advise",
        description="Analytical pipeline advisor: predict each kernel's "
                    "cycles with the static performance model, enumerate "
                    "candidate configurations (queue depths, stage "
                    "splits, TMA on/off), and suggest an options delta "
                    "only when the predicted gain clears the margin.  "
                    "No candidate is simulated; one simulation of the "
                    "default configuration calibrates each row.",
    )
    parser.add_argument(
        "benchmarks", nargs="+",
        help="registered benchmark name(s) to advise on",
    )
    parser.add_argument(
        "--config", default="WASP_GPU",
        help="evaluation configuration name (default: WASP_GPU)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="workload scale factor (default 0.25)",
    )
    parser.add_argument(
        "--margin", type=float, default=None,
        help="minimum predicted relative gain before suggesting a "
             "non-default configuration (default: the calibrated "
             "SUGGESTION_MARGIN)",
    )
    parser.add_argument(
        "--no-simulate", action="store_true",
        help="skip the per-kernel calibration simulation (pure static "
             "mode; rows carry no predicted-vs-simulated error)",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the advise report as JSON "
             "(schema repro-advise-report-v1)",
    )
    _add_metrics_flags(parser)
    _add_cache_flags(parser)
    return parser


def run_advise(argv: list[str]) -> int:
    """``repro advise <workload>``: analytical configuration advice."""
    args = build_advise_parser().parse_args(argv)
    _configure_cache(args)
    _enable_metrics(args)

    from repro.analysis.perfmodel import SUGGESTION_MARGIN, advise_workload
    from repro.workloads.registry import all_benchmarks

    known = set(all_benchmarks())
    unknown = [n for n in args.benchmarks if n not in known]
    if unknown:
        raise SystemExit(
            f"unknown benchmark(s) {unknown}; choose from: "
            + ", ".join(sorted(known))
        )
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
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
        print(f"[wrote advise JSON to {args.json_out}]")
    total = sum(len(r.kernels) for r in reports)
    print(f"[advised {total} kernel(s) in {time.time() - start:.1f}s]")
    _write_metrics(args, "advise")
    return 0


def _advise_text(report) -> str:
    """Human-readable rendering of one workload's advice."""
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
                from repro.core.compiler.pipeline import options_delta

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
            from repro.core.compiler.pipeline import options_delta

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


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="Differential fuzzing: random pipeline kernels run "
                    "unspecialized and after WaspCompiler stage-splitting "
                    "must produce bit-identical memory, consistent "
                    "instruction accounting, and obey the simulator's "
                    "metamorphic timing invariants.  Failing seeds are "
                    "shrunk to minimal repros.  Exits non-zero on any "
                    "failure (inverted by --expect-failures).",
    )
    parser.add_argument(
        "--seeds", type=int, default=100,
        help="number of seeds to fuzz (default 100)",
    )
    parser.add_argument(
        "--seed-base", type=int, default=0,
        help="first seed; the run covers seed-base .. seed-base+seeds-1",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS or 1); results are "
             "identical for any value",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without minimizing them first",
    )
    parser.add_argument(
        "--no-metamorphic", action="store_true",
        help="skip the simulator timing invariants (differential "
             "functional oracle only)",
    )
    parser.add_argument(
        "--inject", default=None, metavar="MUTATION",
        help="corrupt every specialized program with a named mutation "
             "(drop-pop, drop-push, arrive-to-wait) — the oracle "
             "self-test; combine with --expect-failures",
    )
    parser.add_argument(
        "--expect-failures", action="store_true",
        help="invert the exit code: succeed only when failures were "
             "caught (CI uses this to prove the oracle detects "
             "injected bugs)",
    )
    parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop dispatching new seeds after this much wall-clock "
             "time (the nightly CI budget)",
    )
    parser.add_argument(
        "--corpus", action="store_true",
        help="replay every committed corpus entry instead of fuzzing "
             "fresh seeds",
    )
    parser.add_argument(
        "--save-corpus", action="store_true",
        help="persist (minimized) failures as corpus entries",
    )
    parser.add_argument(
        "--corpus-dir", default=None, metavar="DIR",
        help="corpus directory (default: tests/corpus/)",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the fuzz report as machine-readable JSON",
    )
    _add_metrics_flags(parser)
    _add_cache_flags(parser)
    return parser


def run_fuzz_cli(argv: list[str]) -> int:
    """``repro fuzz``: the differential fuzzing harness."""
    args = build_fuzz_parser().parse_args(argv)
    _configure_cache(args)
    _enable_metrics(args)

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
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2)
        print(f"[wrote fuzz JSON to {args.json_out}]")
    _write_metrics(args, "fuzz")
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
        with open(json_out, "w", encoding="utf-8") as handle:
            json.dump({"entries": docs}, handle, indent=2)
        print(f"[wrote corpus JSON to {json_out}]")
    return 1 if bad else 0


def build_corediff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro corediff",
        description="Reference-vs-event SM core differential: replay "
                    "the fuzz corpus and/or the kernel registry through "
                    "both simulator cores and demand bit-identical "
                    "results (CI's core-differential gate).",
    )
    parser.add_argument(
        "--corpus", action="store_true",
        help="diff the committed fuzz corpus specs (default: corpus "
             "and registry when neither flag is given)",
    )
    parser.add_argument(
        "--registry", action="store_true",
        help="diff every registry kernel under the standard "
             "evaluation configs",
    )
    parser.add_argument(
        "--seeds", type=int, default=0, metavar="N",
        help="additionally diff N freshly generated fuzz specs",
    )
    parser.add_argument(
        "--seed-base", type=int, default=0, metavar="B",
        help="first seed for --seeds (default 0)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="registry problem-size scale (default 0.25)",
    )
    parser.add_argument(
        "--corpus-dir", default=None, metavar="DIR",
        help="corpus directory (default: tests/corpus/)",
    )
    _add_depths_flag(parser)
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the per-comparison report as JSON",
    )
    _add_metrics_flags(parser)
    _add_cache_flags(parser)
    return parser


def _add_depths_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--depths", default="2", metavar="N[,N...]",
        help="circular-buffer pipeline depths for the registry sweep "
             "(comma-separated, default 2; deeper rings re-derive "
             "every compiler-enabled config)",
    )


def _depth_configs(configs: list, depths: list[int]) -> list:
    """Expand evaluation configs across circular-buffer depths.

    Depth 2 keeps the configs verbatim (the historical sweep); deeper
    rings re-derive each compiler-enabled config with
    ``pipeline_depth=d``.  Baseline-style configs have no compiler to
    deepen and only appear at depth 2.
    """
    from dataclasses import replace

    out = []
    for depth in depths:
        for config in configs:
            if depth == 2:
                out.append(config)
            elif config.compiler is not None:
                out.append(replace(
                    config,
                    name=f"{config.name}@d{depth}",
                    compiler=replace(
                        config.compiler, pipeline_depth=depth
                    ),
                ))
    return out


def run_corediff(argv: list[str]) -> int:
    """``repro corediff``: the event-core exactness gate."""
    args = build_corediff_parser().parse_args(argv)
    _configure_cache(args)
    _enable_metrics(args)

    from pathlib import Path

    from repro.fuzz.spec import generate_spec
    from repro.sim.differential import diff_registry_kernel, diff_spec

    do_corpus = args.corpus or not (args.corpus or args.registry
                                    or args.seeds)
    do_registry = args.registry or not (args.corpus or args.registry
                                        or args.seeds)
    start = time.time()
    diffs = []

    if do_corpus:
        from repro.fuzz.corpus import load_corpus

        corpus_dir = Path(args.corpus_dir) if args.corpus_dir else None
        entries = load_corpus(corpus_dir)
        for entry in entries:
            diffs.extend(diff_spec(entry.spec))
        print(f"[corpus: {len(entries)} entries diffed]")

    for seed in range(args.seed_base, args.seed_base + args.seeds):
        diffs.extend(diff_spec(generate_spec(seed)))
    if args.seeds:
        print(f"[seeds: {args.seeds} specs diffed]")

    if do_registry:
        from repro.experiments.configs import standard_configs
        from repro.workloads.registry import all_benchmarks, get_benchmark

        configs = _depth_configs(
            standard_configs(),
            [int(d) for d in args.depths.split(",")],
        )
        count = 0
        for name in all_benchmarks():
            bench = get_benchmark(name, scale=args.scale)
            for kernel in bench.kernels:
                for config in configs:
                    diffs.extend(diff_registry_kernel(kernel, config))
                    count += 1
        print(f"[registry: {count} kernel/config pairs diffed]")

    bad = [d for d in diffs if not d.ok]
    for diff in bad:
        print(f"MISMATCH {diff.label}")
        for line in diff.mismatches:
            print(f"  {line}")
    ref_wall = sum(d.ref_wall_s for d in diffs)
    event_wall = sum(d.event_wall_s for d in diffs)
    print(_corediff_perf_text(diffs))
    print(
        f"corediff: {len(diffs) - len(bad)}/{len(diffs)} comparisons "
        f"bit-identical ({time.time() - start:.1f}s; reference "
        f"{ref_wall:.2f}s vs event {event_wall:.2f}s"
        + (f", event {ref_wall / event_wall:.2f}x faster overall)"
           if event_wall > 0 else ")")
    )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "comparisons": [d.to_json() for d in diffs],
                    "ref_wall_s": round(ref_wall, 4),
                    "event_wall_s": round(event_wall, 4),
                    "overall_speedup": round(
                        ref_wall / event_wall, 3
                    ) if event_wall > 0 else 0.0,
                },
                handle, indent=2,
            )
        print(f"[wrote corediff JSON to {args.json_out}]")
    _write_metrics(args, "corediff")
    return 1 if bad or not diffs else 0


def _corediff_perf_text(diffs) -> str:
    """Per-kernel wall-time table: the slowest event-core comparisons
    with the per-comparison speedup over the reference core."""
    from repro.experiments.reporting import format_table

    slowest = sorted(
        diffs, key=lambda d: d.event_wall_s, reverse=True
    )[:10]
    rows = [
        [
            d.label,
            f"{d.ref_wall_s * 1e3:.1f}",
            f"{d.event_wall_s * 1e3:.1f}",
            f"{d.speedup:.2f}x",
            d.event_issued,
            d.event_events,
        ]
        for d in slowest
    ]
    return format_table(
        ["comparison", "ref ms", "event ms", "speedup", "issued",
         "events"],
        rows,
        title="Per-core wall time (slowest 10 comparisons)",
    )


def build_racediff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro racediff",
        description="Static-vs-dynamic race differential: run the fuzz "
                    "corpus and/or the kernel registry with the "
                    "vector-clock SMEM sanitizer attached and require "
                    "every observed race to be flagged by the static "
                    "happens-before engine (CI's race-analysis trust "
                    "gate, the analysis counterpart of corediff).",
    )
    parser.add_argument(
        "--corpus", action="store_true",
        help="diff the committed fuzz corpus specs (default: corpus "
             "and registry when neither flag is given)",
    )
    parser.add_argument(
        "--registry", action="store_true",
        help="diff every registry kernel under the standard "
             "evaluation configs",
    )
    parser.add_argument(
        "--seeds", type=int, default=0, metavar="N",
        help="additionally diff N freshly generated fuzz specs",
    )
    parser.add_argument(
        "--seed-base", type=int, default=0, metavar="B",
        help="first seed for --seeds (default 0)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="registry problem-size scale (default 0.25)",
    )
    parser.add_argument(
        "--corpus-dir", default=None, metavar="DIR",
        help="corpus directory (default: tests/corpus/)",
    )
    _add_depths_flag(parser)
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the per-comparison report as JSON",
    )
    _add_metrics_flags(parser)
    _add_cache_flags(parser)
    return parser


def run_racediff(argv: list[str]) -> int:
    """``repro racediff``: the sanitizer-vs-static race gate."""
    args = build_racediff_parser().parse_args(argv)
    _configure_cache(args)
    _enable_metrics(args)

    from pathlib import Path

    from repro.analysis.racediff import (
        RACEDIFF_SCHEMA,
        racediff_registry_kernel,
        racediff_spec,
    )
    from repro.fuzz.spec import generate_spec

    do_corpus = args.corpus or not (args.corpus or args.registry
                                    or args.seeds)
    do_registry = args.registry or not (args.corpus or args.registry
                                        or args.seeds)
    start = time.time()
    diffs = []

    if do_corpus:
        from repro.fuzz.corpus import load_corpus

        corpus_dir = Path(args.corpus_dir) if args.corpus_dir else None
        entries = load_corpus(corpus_dir)
        # Injected-corruption entries replay a deliberately broken
        # program; the fuzz oracle owns those expectations.
        specs = [e.spec for e in entries if e.inject is None]
        for spec in specs:
            diffs.extend(racediff_spec(spec))
        print(f"[corpus: {len(specs)} specs diffed]")

    for seed in range(args.seed_base, args.seed_base + args.seeds):
        diffs.extend(racediff_spec(generate_spec(seed)))
    if args.seeds:
        print(f"[seeds: {args.seeds} specs diffed]")

    if do_registry:
        from repro.experiments.configs import standard_configs
        from repro.workloads.registry import all_benchmarks, get_benchmark

        configs = _depth_configs(
            standard_configs(),
            [int(d) for d in args.depths.split(",")],
        )
        count = 0
        for name in all_benchmarks():
            bench = get_benchmark(name, scale=args.scale)
            for kernel in bench.kernels:
                for config in configs:
                    diffs.extend(
                        racediff_registry_kernel(kernel, config)
                    )
                    count += 1
        print(f"[registry: {count} kernel/config pairs diffed]")

    bad = [d for d in diffs if not d.ok]
    for diff in bad:
        print(f"STATIC FALSE NEGATIVE {diff.label}")
        for line in diff.missing:
            print(f"  {line}")
    skipped = sum(1 for d in diffs if d.skipped)
    dynamic = sum(d.num_dynamic for d in diffs)
    print(
        f"racediff: {len(diffs) - len(bad)}/{len(diffs)} comparisons "
        f"agree ({dynamic} dynamic race(s) observed, {skipped} "
        f"skipped; {time.time() - start:.1f}s)"
    )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "schema": RACEDIFF_SCHEMA,
                    "comparisons": [d.to_json() for d in diffs],
                },
                handle, indent=2,
            )
        print(f"[wrote racediff JSON to {args.json_out}]")
    _write_metrics(args, "racediff")
    return 1 if bad or not diffs else 0


def build_metrics_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="Telemetry smoke run: execute a small sweep with "
                    "the metrics registry enabled and emit the "
                    "repro-metrics-v1 snapshot (JSON and/or Prometheus "
                    "text format).  Covers the event core, cache, "
                    "process-pool and pass-timing metric families.",
    )
    parser.add_argument(
        "--benchmarks", nargs="*", default=["pointnet"],
        help="benchmarks to sweep for the snapshot (default: pointnet)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="workload scale factor (default 0.25)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS or 1); invariant "
             "counters are identical for any value",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the repro-metrics-v1 JSON snapshot here",
    )
    parser.add_argument(
        "--prom-out", default=None, metavar="PATH",
        help="write the Prometheus text exposition here",
    )
    _add_cache_flags(parser)
    return parser


def run_metrics(argv: list[str]) -> int:
    """``repro metrics``: telemetry-enabled smoke sweep + snapshot."""
    args = build_metrics_parser().parse_args(argv)
    _configure_cache(args)

    from repro.experiments.configs import standard_configs
    from repro.experiments.parallel import run_sweep
    from repro.telemetry.registry import TELEMETRY
    from repro.telemetry.snapshot import (
        build_metrics_document,
        missing_families,
        render_prometheus,
        validate_metrics_document,
        write_metrics_outputs,
    )
    from repro.telemetry.spans import SPANS
    from repro.workloads.registry import all_benchmarks

    known = set(all_benchmarks())
    unknown = [n for n in args.benchmarks if n not in known]
    if unknown:
        raise SystemExit(
            f"unknown benchmark(s) {unknown}; choose from: "
            + ", ".join(sorted(known))
        )

    TELEMETRY.enable()
    start = time.time()
    configs = [
        c for c in standard_configs()
        if c.name in ("BASELINE", "WASP_GPU")
    ] or standard_configs()[:1]
    run_sweep(args.benchmarks, args.scale, configs, jobs=args.jobs)

    doc = build_metrics_document(
        TELEMETRY.snapshot(), command="metrics", spans=SPANS
    )
    problems = validate_metrics_document(doc)
    problems += [
        f"missing required metric family {prefix}*"
        for prefix in missing_families(doc)
    ]
    write_metrics_outputs(doc, args.json_out, args.prom_out)
    if args.json_out:
        print(f"[wrote metrics JSON to {args.json_out}]")
    if args.prom_out:
        print(f"[wrote Prometheus metrics to {args.prom_out}]")
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


def build_bench_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench report",
        description="Perf-trajectory dashboard: read every committed "
                    "BENCH_*.json (plus an optional freshly measured "
                    "run) and render a per-benchmark regression table "
                    "on calibration-normalized wall-clock.",
    )
    parser.add_argument(
        "--dir", default=".", metavar="DIR",
        help="directory holding the BENCH_*.json files (default: .)",
    )
    parser.add_argument(
        "--current", default=None, metavar="PATH",
        help="a freshly measured perf-harness document to diff "
             "against the committed baseline (write one with "
             "'python -m benchmarks.perf.run --output PATH')",
    )
    parser.add_argument(
        "--baseline", default="BENCH_core", metavar="STEM",
        help="committed file to diff against (default: BENCH_core)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.2,
        help="normalized regression threshold (default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the repro-bench-report-v1 document as JSON",
    )
    return parser


def run_bench_report(argv: list[str]) -> int:
    """``repro bench report``: the perf-trajectory dashboard."""
    args = build_bench_report_parser().parse_args(argv)

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
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"[wrote bench report JSON to {args.json_out}]")
    return 1 if report["summary"]["regressions"] else 0


def run_lint(argv: list[str]) -> int:
    """``repro lint [benchmarks…]``: registry-wide static verification."""
    args = build_lint_parser().parse_args(argv)

    if args.list_rules:
        from repro.analysis.diagnostics import rules_table_lines

        print("\n".join(rules_table_lines()))
        return 0

    start = time.time()
    if args.corpus:
        from pathlib import Path

        from repro.analysis.lint import lint_corpus

        corpus_dir = Path(args.corpus_dir) if args.corpus_dir else None
        result = lint_corpus(corpus_dir, validate=args.validate)
    else:
        from repro.analysis.lint import lint_benchmarks
        from repro.workloads.registry import all_benchmarks

        known = set(all_benchmarks())
        names = (
            None if args.all or not args.benchmarks else args.benchmarks
        )
        if names:
            unknown = [n for n in names if n not in known]
            if unknown:
                raise SystemExit(
                    f"unknown benchmark(s) {unknown}; choose from: "
                    + ", ".join(sorted(known))
                )
        result = lint_benchmarks(
            names, scale=args.scale, validate=args.validate
        )
    print(result.to_text(verbose=args.verbose))
    print(f"[linted {len(result.kernels)} kernel(s) in "
          f"{time.time() - start:.1f}s]")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(result.to_json(), handle, indent=2)
        print(f"[wrote lint JSON to {args.json_out}]")
    if args.sarif:
        from repro.analysis.sarif import sarif_from_lint

        with open(args.sarif, "w", encoding="utf-8") as handle:
            json.dump(sarif_from_lint(result), handle, indent=2)
        print(f"[wrote SARIF log to {args.sarif}]")
    if not result.clean:
        return 1
    if args.strict and result.num_warnings:
        return 1
    return 0


def run_validate(argv: list[str]) -> int:
    """``repro validate``: execution-free equivalence certificates."""
    args = build_validate_parser().parse_args(argv)

    start = time.time()
    if args.corpus:
        from pathlib import Path

        from repro.analysis.lint import validate_corpus

        corpus_dir = Path(args.corpus_dir) if args.corpus_dir else None
        result = validate_corpus(corpus_dir)
    else:
        from repro.analysis.lint import (
            standard_option_sets,
            validate_benchmarks,
        )
        from repro.workloads.registry import all_benchmarks

        known = set(all_benchmarks())
        names = (
            None if args.all or not args.benchmarks else args.benchmarks
        )
        if names:
            unknown = [n for n in names if n not in known]
            if unknown:
                raise SystemExit(
                    f"unknown benchmark(s) {unknown}; choose from: "
                    + ", ".join(sorted(known))
                )
        try:
            depths = tuple(
                int(d) for d in args.depths.split(",") if d
            )
        except ValueError:
            raise SystemExit(f"bad --depths value {args.depths!r}")
        standard = dict(standard_option_sets())
        wanted = args.options.split(",")
        if "standard" in wanted:
            wanted = list(standard)
        unknown_sets = [w for w in wanted if w not in standard]
        if unknown_sets:
            raise SystemExit(
                f"unknown option set(s) {unknown_sets}; choose from: "
                + ", ".join([*standard, "standard"])
            )
        result = validate_benchmarks(
            names,
            scale=args.scale,
            option_sets=[(w, standard[w]) for w in wanted],
            depths=depths,
        )
    print(result.to_text(verbose=args.verbose))
    print(f"[validated {len(result.kernels)} compile(s) in "
          f"{time.time() - start:.1f}s]")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(result.to_json(), handle, indent=2)
        print(f"[wrote validation JSON to {args.json_out}]")
    if args.sarif:
        from repro.analysis.sarif import sarif_from_validate

        with open(args.sarif, "w", encoding="utf-8") as handle:
            json.dump(sarif_from_validate(result), handle, indent=2)
        print(f"[wrote SARIF log to {args.sarif}]")
    return 0 if result.clean else 1


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


def run_profile(argv: list[str]) -> int:
    """``repro profile <benchmark>``: per-kernel pipeline profiles."""
    args = build_profile_parser().parse_args(argv)
    _configure_cache(args)
    _enable_metrics(args)

    from repro.experiments.runner import GLOBAL_CACHE, profile_kernel
    from repro.profiling import report as profreport
    from repro.profiling.chrometrace import write_chrome_trace
    from repro.telemetry.spans import SPANS
    from repro.workloads import get_benchmark

    config = _named_config(args.config)
    try:
        bench = get_benchmark(args.benchmark, args.scale)
    except KeyError:
        raise SystemExit(f"unknown benchmark {args.benchmark!r}")
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
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
        print(f"[wrote profile JSON to {args.json_out}]")
    print(f"[profiled {len(kernels)} kernel(s) in "
          f"{time.time() - start:.1f}s]")
    _write_metrics(args, "profile")
    return 0


def _sanitize_summary(kernel, config) -> str:
    """Dynamic SMEM-race report for one profiled kernel.

    Re-runs the kernel functionally with the vector-clock sanitizer
    attached (the cached traces were generated without it), preferring
    the specialized program when the config's compiler produces one.
    """
    from dataclasses import replace

    from repro.errors import ReproError
    from repro.experiments.runner import (
        WaspCompiler,
        _compiler_options_for,
    )
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
            with open(args.profile_json, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, indent=2)
            print(f"[wrote sweep profile JSON to {args.profile_json}]")
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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "profile":
        return run_profile(argv[1:])
    if argv and argv[0] == "lint":
        return run_lint(argv[1:])
    if argv and argv[0] == "validate":
        return run_validate(argv[1:])
    if argv and argv[0] == "fuzz":
        return run_fuzz_cli(argv[1:])
    if argv and argv[0] == "advise":
        return run_advise(argv[1:])
    if argv and argv[0] == "corediff":
        return run_corediff(argv[1:])
    if argv and argv[0] == "racediff":
        return run_racediff(argv[1:])
    if argv and argv[0] == "metrics":
        return run_metrics(argv[1:])
    if argv and argv[0] == "bench":
        if argv[1:2] == ["report"]:
            return run_bench_report(argv[2:])
        raise SystemExit("usage: repro bench report [--help]")
    args = build_parser().parse_args(argv)
    if args.artifact == "list":
        width = max(len(k) for k in _ARTIFACTS)
        for key in sorted(_ARTIFACTS):
            print(f"  {key.ljust(width)}  {_ARTIFACTS[key]}")
        print("\n  profile   Pipeline profiler "
              "(repro profile --help)")
        print("  lint      Static pipeline verifier "
              "(repro lint --help)")
        print("  validate  Translation validation certificates "
              "(repro validate --help)")
        print("  fuzz      Differential fuzzing harness "
              "(repro fuzz --help)")
        print("  advise    Analytical pipeline advisor "
              "(repro advise --help)")
        print("  corediff  Reference-vs-event core differential "
              "(repro corediff --help)")
        print("  racediff  Sanitizer-vs-static race differential "
              "(repro racediff --help)")
        print("  metrics   Telemetry snapshot smoke run "
              "(repro metrics --help)")
        print("  bench     Perf-trajectory dashboard "
              "(repro bench report --help)")
        return 0

    _configure_cache(args)
    _enable_metrics(args)

    if args.artifact == "all":
        for key in sorted(_ARTIFACTS):
            _run_one(key, args)
            print()
        _write_metrics(args, "all")
        return 0
    _run_one(args.artifact, args)
    _write_metrics(args, args.artifact)
    return 0


if __name__ == "__main__":
    sys.exit(main())

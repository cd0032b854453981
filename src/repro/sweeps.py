"""The sweep driver behind ``repro corediff``, ``racediff``, ``lint``
and ``validate``.

Each command is a :class:`Sweep` declaration kept next to its checks;
:func:`run_sweep` is the one loop.  It owns the rules the commands
share: kernels come from the source flags given (``--corpus``,
``--seeds``, ``--registry``), else the declaration's default sources;
each registry kernel is crossed with the declaration's option axis at
every ``--depths`` entry; the report is printed and written as JSON
(and SARIF); and the exit code is non-zero when the sweep checked
nothing, when any result failed, or (``--strict``) when any warning
fired.  Nothing here imports the registry, compiler or simulator at
load time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generic,
    Protocol,
    Sequence,
    TypeVar,
)

if TYPE_CHECKING:
    import argparse

    from repro.core.compiler.pipeline import WaspCompilerOptions
    from repro.experiments.configs import EvalConfig
    from repro.fuzz.corpus import CorpusEntry
    from repro.workloads.base import Kernel

#: The depth axis entries are declared at; other depths tag cells @dD.
DEFAULT_DEPTH = 2


class AxisEntry(Protocol):
    """An option-axis entry: an evaluation config or a named option set."""

    @property
    def name(self) -> str: ...

    @property
    def compiler(self) -> WaspCompilerOptions | None: ...


class SweepReport(Protocol):
    """What a command's summary type provides to the driver."""

    @property
    def clean(self) -> bool: ...

    @property
    def num_warnings(self) -> int: ...

    def to_text(self, verbose: bool = False) -> str: ...

    def to_json(self) -> dict[str, Any]: ...


R = TypeVar("R")
S = TypeVar("S", bound=SweepReport)

#: A per-source check: one unit (a corpus entry, a generated fuzz spec
#: or a registry :class:`Cell`) and the parsed flags, to results.
Check = Callable[[Any, "argparse.Namespace"], list[R]]


@dataclass(frozen=True)
class Cell:
    """One registry kernel under one axis entry at one ring depth."""

    benchmark: str
    kernel: Kernel
    entry: Any
    depth: int
    #: ``entry.compiler`` recompiled at ``depth`` (``None``: no compiler).
    options: WaspCompilerOptions | None

    @property
    def name(self) -> str:
        """The entry's name, tagged ``@dD`` off the default depth."""
        name: str = self.entry.name
        if self.depth == DEFAULT_DEPTH:
            return name
        return f"{name}@d{self.depth}"

    def config(self) -> EvalConfig:
        """An evaluation-config cell's config, recompiled at its depth."""
        config: EvalConfig = replace(
            self.entry, name=self.name, compiler=self.options
        )
        return config


@dataclass(frozen=True)
class Sweep(Generic[R, S]):
    """One command's declaration: sources, axis, checks and report."""

    #: Names the JSON document: ``[wrote <label> JSON to PATH]``.
    label: str
    #: The check of each source the command sweeps, keyed by source.
    checks: dict[str, Check[R]]
    #: Sources swept when no source flag is given.
    default_sources: tuple[str, ...]
    #: Summary type, built from the sweep's scale and its results.
    report: Callable[[float, list[R]], S]
    #: Line printed after the report text, given the elapsed seconds.
    footer: Callable[[S, float], str]
    #: The option axis registry kernels are crossed with.
    axis: Callable[[argparse.Namespace], Sequence[AxisEntry]]
    #: Nest the depths outside the axis entries (``True``) or inside.
    depths_outer: bool = True
    #: Which corpus entries the corpus check takes.
    keep: Callable[[CorpusEntry], bool] = lambda entry: True
    #: What the corpus yields, for ``[corpus: N <noun> diffed]`` tally
    #: lines after each source (``None``: no tallies).
    tally: str | None = None
    #: The report as a SARIF 2.1.0 log, for ``--sarif``.
    sarif: Callable[[S], dict[str, Any]] | None = None


def check_benchmarks(names: Sequence[str]) -> None:
    """Exit listing the known names when any of ``names`` is unknown."""
    from repro.workloads.registry import all_benchmarks

    known = set(all_benchmarks())
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(
            f"unknown benchmark(s) {unknown}; choose from: "
            + ", ".join(sorted(known))
        )


def registry_kernels(
    names: Sequence[str] | None, scale: float
) -> list[tuple[str, Kernel]]:
    """``(benchmark, kernel)`` for the named benchmarks (default: all)."""
    from repro.workloads.registry import all_benchmarks, get_benchmark

    benches = [get_benchmark(n, scale) for n in names or all_benchmarks()]
    return [(b.name, kernel) for b in benches for kernel in b.kernels]


def expand_depths(
    axis: Sequence[AxisEntry], depths: Sequence[int], depths_outer: bool
) -> list[tuple[AxisEntry, int, WaspCompilerOptions | None]]:
    """Cross axis entries with ring depths.

    Depth ``d`` recompiles an entry with ``pipeline_depth=d``; an entry
    with no compiler has nothing to deepen and exists only at the
    default depth.
    """
    pairs = (
        [(entry, d) for d in depths for entry in axis] if depths_outer
        else [(entry, d) for entry in axis for d in depths]
    )
    return [
        (entry, depth, None if entry.compiler is None
         else replace(entry.compiler, pipeline_depth=depth))
        for entry, depth in pairs
        if entry.compiler is not None or depth == DEFAULT_DEPTH
    ]


def standard_configs_axis(args: argparse.Namespace) -> Sequence[AxisEntry]:
    """The corediff and racediff axis: the four Figure 14 configs."""
    from repro.experiments.configs import standard_configs

    return standard_configs()


def parse_depths(text: str) -> tuple[int, ...]:
    """``--depths`` type: comma-separated ring depths in
    ``[2, MAX_PIPELINE_DEPTH]``."""
    from argparse import ArgumentTypeError

    from repro.core.compiler.pipeline import MAX_PIPELINE_DEPTH

    try:
        depths = tuple(int(d) for d in text.split(",") if d)
    except ValueError:
        depths = ()
    if not depths or not all(2 <= d <= MAX_PIPELINE_DEPTH for d in depths):
        raise ArgumentTypeError(
            f"expected comma-separated integers in "
            f"[2, {MAX_PIPELINE_DEPTH}], got {text!r}"
        )
    return depths


def _units(
    source: str, sweep: Sweep[Any, Any], args: argparse.Namespace
) -> list[Any]:
    """One source's units: corpus entries, fuzz specs or registry cells."""
    if source == "corpus":
        from repro.fuzz.corpus import load_corpus

        corpus_dir = Path(args.corpus_dir) if args.corpus_dir else None
        return [e for e in load_corpus(corpus_dir) if sweep.keep(e)]
    if source == "seeds":
        from repro.fuzz.spec import generate_spec

        first = args.seed_base
        return [generate_spec(s) for s in range(first, first + args.seeds)]
    names = None if getattr(args, "all", False) else (
        getattr(args, "benchmarks", None)
    )
    check_benchmarks(names or [])
    variants = expand_depths(
        sweep.axis(args), getattr(args, "depths", (DEFAULT_DEPTH,)),
        sweep.depths_outer,
    )
    return [
        Cell(bench, kernel, entry, depth, options)
        for bench, kernel in registry_kernels(names, args.scale)
        for entry, depth, options in variants
    ]


def write_json(path: str, doc: Any, what: str) -> None:
    """Write ``doc`` as indented JSON and report ``[wrote <what> to …]``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
    print(f"[wrote {what} to {path}]")


def run_sweep(sweep: Sweep[R, S], args: argparse.Namespace) -> int:
    """Run one command's sweep; print, write and gate its report."""
    start = time.time()
    sources = [
        s for s in ("corpus", "seeds", "registry") if getattr(args, s, None)
    ] or list(sweep.default_sources)
    results: list[R] = []
    for source in sources:
        units = _units(source, sweep, args)
        for unit in units:
            results.extend(sweep.checks[source](unit, args))
        if sweep.tally:
            noun = {"corpus": sweep.tally, "seeds": "specs"}.get(
                source, "kernel/config pairs"
            )
            print(f"[{source}: {len(units)} {noun} diffed]")

    report = sweep.report(
        args.scale if "registry" in sources else 1.0, results
    )
    text = report.to_text(verbose=getattr(args, "verbose", False))
    if text:
        print(text)
    print(sweep.footer(report, time.time() - start))
    if args.json_out:
        write_json(args.json_out, report.to_json(), f"{sweep.label} JSON")
    if getattr(args, "sarif", None) and sweep.sarif is not None:
        write_json(args.sarif, sweep.sarif(report), "SARIF log")

    if not results:
        print("[empty sweep: nothing was checked]")
        return 1
    strict = getattr(args, "strict", False)
    return int(not report.clean or (strict and report.num_warnings > 0))

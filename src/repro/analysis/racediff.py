"""Sanitizer-vs-static race differential (``repro racediff``).

The trust chain for the happens-before engine mirrors the one
``repro corediff`` builds for the event-driven core: run the same
program through two independent implementations and require agreement.
Here the two implementations are

* the **static** engine (:mod:`repro.analysis.dataflow.hb`), which
  classifies every cross-stage SMEM access pair from the event graph
  alone, and
* the **dynamic** vector-clock sanitizer
  (:mod:`repro.fexec.sanitizer`), which observes one concrete
  execution with real addresses.

The checked direction is *no static false negatives*: every race the
sanitizer observes must be statically flagged — either as a WASP-S
race on the same buffer group and stage pair, or excused because the
static pass already reported it could not resolve an access in one of
the stages involved (WASP-S003).  The static engine is allowed to be
more conservative than one execution (races need not manifest
dynamically), so the reverse direction is not checked.

:data:`RACEDIFF` declares the ``repro racediff`` sweep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Any

from repro.analysis.facts import PipelineFacts
from repro.errors import ReproError
from repro.fexec.machine import run_kernel
from repro.fexec.sanitizer import SanitizerRace
from repro.sweeps import Sweep, standard_configs_axis

RACEDIFF_SCHEMA = "repro-racediff-report-v1"

_COPY_SUFFIX = re.compile(r"__db\d*$")


def _canon_group(group: str) -> str:
    """Collapse a circular-buffer ring copy onto its base buffer group."""
    return _COPY_SUFFIX.sub("", group)


@dataclass
class RaceDiff:
    """Static-vs-sanitizer agreement for one program variant."""

    label: str
    num_static: int = 0
    num_dynamic: int = 0
    excused_stages: tuple[int, ...] = ()
    missing: list[str] = field(default_factory=list)
    skipped: str | None = None

    @property
    def ok(self) -> bool:
        return not self.missing

    def to_json(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "num_static": self.num_static,
            "num_dynamic": self.num_dynamic,
            "excused_stages": list(self.excused_stages),
            "missing": list(self.missing),
            "skipped": self.skipped,
            "ok": self.ok,
        }


@dataclass
class RaceDiffReport:
    """Every comparison of one ``repro racediff`` run."""

    comparisons: list[RaceDiff]
    num_warnings = 0

    @property
    def clean(self) -> bool:
        return all(d.ok for d in self.comparisons)

    def to_text(self, verbose: bool = False) -> str:
        lines: list[str] = []
        for diff in self.comparisons:
            if not diff.ok:
                lines.append(f"STATIC FALSE NEGATIVE {diff.label}")
                lines.extend(f"  {line}" for line in diff.missing)
        return "\n".join(lines)

    def summary_line(self, elapsed: float) -> str:
        diffs = self.comparisons
        ok = sum(1 for d in diffs if d.ok)
        skipped = sum(1 for d in diffs if d.skipped)
        dynamic = sum(d.num_dynamic for d in diffs)
        return (
            f"racediff: {ok}/{len(diffs)} comparisons agree ({dynamic} "
            f"dynamic race(s) observed, {skipped} skipped; "
            f"{elapsed:.1f}s)"
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": RACEDIFF_SCHEMA,
            "comparisons": [d.to_json() for d in self.comparisons],
        }


def diff_races(
    label: str, facts: PipelineFacts, image: Any, launch: Any
) -> RaceDiff:
    """Compare sanitizer-observed races against ``facts.hb``."""
    analysis = facts.hb
    static_pairs = {
        (_canon_group(group), pair)
        for group, pair in analysis.racy_stage_pairs()
    }
    excused = tuple(sorted(
        {stage for _, stage in analysis.skipped_stage_groups()}
    ))
    diff = RaceDiff(
        label=label,
        num_static=len(static_pairs),
        excused_stages=excused,
    )
    try:
        result = run_kernel(
            facts.program, image, launch, collect_trace=False, sanitize=True
        )
    except ReproError as exc:
        # Deadlocks and runtime faults are the fuzz oracle's domain;
        # without a completed execution there is nothing to compare.
        diff.skipped = f"{type(exc).__name__}: {exc}"
        return diff
    diff.num_dynamic = len(result.races)
    for race in result.races:
        if _is_covered(race, static_pairs, excused):
            continue
        diff.missing.append(race.format())
    return diff


def _is_covered(
    race: SanitizerRace,
    static_pairs: set[tuple[str, frozenset[int]]],
    excused_stages: tuple[int, ...],
) -> bool:
    if (_canon_group(race.group), race.stage_pair) in static_pairs:
        return True
    # S003: the static pass declared an access in this stage
    # unresolvable, so races involving it are already surfaced.
    return (
        race.first_stage in excused_stages
        or race.second_stage in excused_stages
    )


def racediff_spec(spec: Any) -> list[RaceDiff]:
    """Race differential for every specializing OPTION_SETS variant of
    one fuzz spec."""
    from repro.fuzz.generator import build_kernel
    from repro.fuzz.oracle import OPTION_SETS

    kernel = build_kernel(spec)
    return [
        diff
        for name, options in OPTION_SETS
        for diff in _diff_compile(
            f"seed{spec.seed}:{name}", kernel, options, (ReproError,)
        )
    ]


def racediff_registry_kernel(kernel: Any, eval_config: Any) -> list[RaceDiff]:
    """Race differential for one registry kernel under one sweep config."""
    from repro.errors import CompilerError, ResourceError
    from repro.experiments.runner import _compiler_options_for

    options = _compiler_options_for(kernel, eval_config)
    if options is None:
        return []
    return _diff_compile(
        f"{kernel.name}:{eval_config.name}", kernel, options,
        (CompilerError, ResourceError),
    )


def _diff_compile(
    label: str,
    kernel: Any,
    options: Any,
    skip: tuple[type[ReproError], ...],
) -> list[RaceDiff]:
    """Compile ``kernel`` and diff its output when it specializes;
    compiles raising one of ``skip`` are left out."""
    from repro.core.compiler import WaspCompiler

    try:
        compiled = WaspCompiler(options).compile(
            kernel.program, num_warps=kernel.launch.num_warps
        )
    except skip:
        return []
    if compiled.facts is None:
        return []  # not specialized
    launch = replace(
        kernel.launch,
        num_warps=kernel.launch.num_warps * compiled.num_stages,
    )
    return [diff_races(label, compiled.facts, kernel.image_factory(), launch)]


#: ``repro racediff``: corpus specs (injected corruptions belong to the
#: fuzz oracle), fresh seeds, and registry kernels under the standard
#: configs at each ring depth.
RACEDIFF: Sweep[RaceDiff, RaceDiffReport] = Sweep(
    label="racediff",
    checks={
        "corpus": lambda entry, args: racediff_spec(entry.spec),
        "seeds": lambda spec, args: racediff_spec(spec),
        "registry": lambda cell, args: racediff_registry_kernel(
            cell.kernel, cell.config()
        ),
    },
    default_sources=("corpus", "registry"),
    report=lambda scale, diffs: RaceDiffReport(diffs),
    footer=RaceDiffReport.summary_line,
    axis=standard_configs_axis,
    keep=lambda entry: entry.inject is None,
    tally="specs",
)

"""One program's static facts, built once and shared by every analysis.

The verifier, translation validation, racediff and the fuzz oracle all
ask the same questions of a compiled program: its digest, its
stage-partitioned view, the queue/barrier/SMEM site index, the
thread-block spec, each stage's loop nest, the happens-before solve and
the default verifier report.  :class:`PipelineFacts` answers each
question the first time it is asked and keeps the answer, so one
compile solves happens-before once however many analyses read the
result.

Facts describe one :class:`~repro.isa.program.Program` object that is
no longer being rewritten; a rewritten program (a fuzz mutation, say)
is a new object and gets its own facts.  A compile's facts are shared
by every compile of the same source that finalizes the same program
(the compiler's per-source slot, :mod:`repro.core.compiler.memo`), so
neither they nor their program may be mutated.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from repro.analysis.cfg import (
    NaturalLoop,
    ProgramView,
    build_view,
    section_loops,
)
from repro.analysis.dataflow.hb import HBAnalysis, analyze_hb
from repro.analysis.sites import PipelineSites, collect_sites
from repro.core.specs import ThreadBlockSpec
from repro.isa import serialize
from repro.isa.program import Program

if TYPE_CHECKING:
    from repro.analysis.diagnostics import DiagnosticReport


class PipelineFacts:
    """Lazily built, never rebuilt static facts of one program."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._loops: dict[int, list[NaturalLoop]] = {}

    @cached_property
    def program_digest(self) -> str:
        """:func:`~repro.isa.serialize.program_digest` of the program:
        the key of the compiler's per-source slot, transval's
        certificates, the fuzz oracle's dynamic-outcome memo and the
        trace cache."""
        return serialize.program_digest(self.program)

    @cached_property
    def view(self) -> ProgramView:
        return build_view(self.program)

    @cached_property
    def sites(self) -> PipelineSites:
        return collect_sites(self.view)

    @cached_property
    def spec(self) -> ThreadBlockSpec | None:
        spec = self.program.tb_spec
        return spec if isinstance(spec, ThreadBlockSpec) else None

    def loops(self, stage: int) -> list[NaturalLoop]:
        """The stage section's layout loops, outer and inner alike."""
        if stage not in self._loops:
            self._loops[stage] = section_loops(self.view, stage)
        return self._loops[stage]

    def innermost_loops(self, stage: int) -> list[NaturalLoop]:
        """Loops whose body properly contains no other loop's body."""
        loops = self.loops(stage)
        return [
            loop for loop in loops
            if not any(set(o.body) < set(loop.body) for o in loops)
        ]

    def outermost_loops(self, stage: int) -> list[NaturalLoop]:
        """Loops whose body no other loop's body properly contains."""
        loops = self.loops(stage)
        return [
            loop for loop in loops
            if not any(set(loop.body) < set(o.body) for o in loops)
        ]

    def nested_blocks(self, stage: int) -> set[str]:
        """Blocks of the loops that sit inside another loop."""
        outer = self.outermost_loops(stage)
        return {
            label
            for loop in self.loops(stage) if loop not in outer
            for label in loop.body
        }

    @cached_property
    def hb(self) -> HBAnalysis:
        return analyze_hb(self)

    @cached_property
    def report(self) -> DiagnosticReport:
        """The verifier's report under default limits; do not mutate."""
        from repro.analysis import verifier

        return verifier.verify_program(self.program, facts=self)

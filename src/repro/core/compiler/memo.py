"""The per-source slot: each distinct compile, program and certificate once.

Many compiles of one source coincide.  ``repro validate`` crosses every
kernel with four option sets and three ring depths, and a ring depth
often rings nothing; the fuzz oracle compiles each spec under five
option sets.  On the toolchain benchmark's certify subset, 132 compiles
are 52 distinct compiles and 29 distinct programs.  The slot holds one
source's work, looked up twice inside :meth:`WaspCompiler.compile` and
once more by translation validation:

* **Compile key.**  ``num_warps`` plus every compiler option except
  ``verify`` and ``validate`` (the post-passes run on every call, hit
  or miss), with ``pipeline_depth`` dropped when circular buffering
  ringed nothing.  The compiler looks it up after the cheap pre-passes
  (clone, LDGSTS fusion, sync tagging, circular buffering); a hit skips
  stage split, the PDG rebuilds, TMA offload and finalize.  Dropping
  the depth is exact: only :func:`apply_circular_buffering` reads it,
  and that function returns before its first write whenever it declines
  a loop, so a compile whose buffering returned ``[]`` leaves the
  working program the same at every depth
  (``tests/test_compile_memo.py`` pins this over the registry).
* **Program key.**  On a compile miss, the finalized program's
  :func:`~repro.isa.serialize.program_digest`, taken once.  A program
  the slot already holds answers with that entry's ``Program`` and
  :class:`~repro.analysis.facts.PipelineFacts`, so the verifier, HB
  and translation validation run once per distinct program, and every
  later reader of the digest (certificates, the fuzz oracle's dynamic
  memo, the trace key) gets the cached ``facts.program_digest``.
* **Certificates.**  Translation validation's verdicts per program
  digest, and the source's effect summary
  (:mod:`repro.analysis.transval.validate`).  ``validate_programs``
  takes the source digest from the slot when it is handed the source
  object the slot last selected, instead of hashing it again.

**Why one slot is enough.**  Every caller compiles and validates one
source's variants back to back: ``repro validate`` and fig14 run
kernel-outer cells, the fuzz oracle compiles one spec under each option
set, the advisor compiles its candidates.  The slot holds the current
source's digest and its entries; another source clears it, so memory
stays bounded with no size knob.

**Read-only contract.**  A :class:`CompileResult`'s ``program`` and
``facts`` are shared with the slot and with every later compile that
hits it, never copied.  Nothing may rewrite them in place: a caller
that rewrites a compiled program clones it first, as
:func:`repro.fuzz.mutate.apply_mutation` does.  The slot answers by
content, so a rewrite would be served to the next compile under the
old digest.

Exceptions are never stored (a raising compile stores nothing, and a
hit re-runs the post-passes, which raise again), and nothing is written
to disk; :func:`clear_source_slot` empties the slot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.telemetry.registry import TELEMETRY

if TYPE_CHECKING:
    from repro.analysis.facts import PipelineFacts
    from repro.core.compiler.pipeline import (
        CompileResult,
        WaspCompilerOptions,
    )
    from repro.isa.program import Program

__all__ = ["SOURCE_SLOT", "SourceSlot", "clear_source_slot", "compile_key"]


class SourceSlot:
    """One source's compiles, programs and certificates."""

    #: The source object last selected, and its digest.
    source: Program | None
    source_digest: str | None
    #: Compile key -> the compile's result before its post-passes.
    compiles: dict[tuple, CompileResult]
    #: Program digest -> the shared facts (``facts.program`` is the
    #: shared program).
    programs: dict[str, PipelineFacts]
    #: Program digest -> translation validation's certificate.
    certificates: dict[str, Any]
    #: Translation validation's effect summary of the source.
    source_summary: Any

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.source = None
        self.source_digest = None
        self.compiles = {}
        self.programs = {}
        self.certificates = {}
        self.source_summary = None

    def select(self, source: Program, digest: str | None = None) -> None:
        """Point the slot at ``source``, clearing it on a new digest.

        Without ``digest``, the source object the slot last selected
        keeps its digest; any other object is hashed.
        """
        if digest is None:
            if source is self.source:
                return
            from repro.isa.serialize import program_digest

            digest = program_digest(source)
        if digest != self.source_digest:
            self.clear()
            self.source_digest = digest
        self.source = source

    def share(self, facts: PipelineFacts) -> PipelineFacts:
        """The slot's facts for ``facts.program``'s digest, stored
        first if the slot has none yet."""
        shared = self.programs.setdefault(facts.program_digest, facts)
        if shared is not facts:
            count_reuse(
                "repro_compile_program_shares_total",
                "Compiles whose finalized program an earlier compile of "
                "the same source already produced.",
            )
        return shared


SOURCE_SLOT = SourceSlot()


def clear_source_slot() -> None:
    """Forget every stored compile, program and certificate."""
    SOURCE_SLOT.clear()


def compile_key(
    options: WaspCompilerOptions, num_warps: int, ringed: bool
) -> tuple:
    """The compile key: ``num_warps`` and every option the passes read.

    ``verify`` and ``validate`` are post-passes, run on every call.
    ``pipeline_depth`` is dropped unless circular buffering ringed a
    loop (module docstring).
    """
    fields = options.to_json()
    del fields["verify"], fields["validate"]
    if not ringed:
        del fields["pipeline_depth"]
    return (num_warps, *fields.items())


def count_reuse(name: str, help: str) -> None:
    # Whether a compile repeats an earlier one depends on what the
    # process compiled before (in-memory compile caches skip repeats
    # entirely), so like the certificate reuses these series are
    # ``invariant=False``.
    if TELEMETRY.enabled:
        TELEMETRY.counter(name, help=help, invariant=False).inc()

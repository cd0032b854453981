"""The per-source slot: each distinct compile, program and certificate once.

Many compiles of one source coincide.  ``repro validate`` crosses every
kernel with four option sets and three ring depths, and a ring depth
often rings nothing; the fuzz oracle compiles each spec under five
option sets.  On the toolchain benchmark's certify subset, 132 compiles
are 52 distinct option keys, 32 distinct pipelines and 29 distinct
programs.  The slot holds one source's work, looked up at up to three
points inside :meth:`WaspCompiler.compile`, once more on a program, and
once more by translation validation:

* **Compile key** (:class:`CompileKeys`).  ``num_warps`` plus every
  compiler option except ``verify`` and ``validate`` (the post-passes
  run on every call, hit or miss).  An option leaves the key once the
  pass that reads it has not acted on it, and the compiler looks the
  key up at each such point:

  - ``options``, after the cheap pre-passes (clone, LDGSTS fusion, sync
    tagging, circular buffering), ``pipeline_depth`` dropped when
    buffering ringed nothing;
  - ``plan``, after :func:`plan_extraction`, ``max_stages`` dropped
    when no planning round put a load over the stage budget and
    ``enable_streaming`` when it filtered out no candidate load;
  - ``offload``, after TMA offload, ``enable_tma_offload`` dropped
    when offload converted no stream and fused no gather.

  Each drop is exact: the option's only reader provably left its input
  to the later passes unchanged, so every compile that reaches the same
  reduced key runs the same passes from there on
  (``tests/test_compile_memo.py`` pins each rule over the registry at
  depths 2/4/8, the corpus and 20 fuzz seeds).  A compile stores its
  result under every key it looked up, so a later compile hits at the
  earliest point it can; an ``options`` hit skips everything but the
  pre-passes, a ``plan`` hit also skips stage split, offload and
  finalize, and an ``offload`` hit skips finalize and the program
  digest, keeping the caller's own offload report.
* **Program key.**  When every lookup point misses, the finalized
  program's :func:`~repro.isa.serialize.program_digest`, taken once.
  A program the slot already holds answers with that entry's
  ``Program`` and :class:`~repro.analysis.facts.PipelineFacts`, so the
  verifier, HB and translation validation run once per distinct
  program, and every later reader of the digest (certificates, the
  fuzz oracle's dynamic memo, the trace key) gets the cached
  ``facts.program_digest``.
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

__all__ = ["SOURCE_SLOT", "CompileKeys", "SourceSlot", "clear_source_slot"]


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


class CompileKeys:
    """One compile's walk through its compile keys.

    The key starts as ``num_warps`` plus every option the passes read
    (``verify`` and ``validate`` are post-passes, run on every call).
    :meth:`drop` removes an option once the pass that reads it has not
    acted on it, and :meth:`lookup` probes the slot under the key as it
    then stands (module docstring).
    """

    def __init__(self, options: WaspCompilerOptions, num_warps: int) -> None:
        self._fields = options.to_json()
        del self._fields["verify"], self._fields["validate"]
        self._num_warps = num_warps
        #: Every key looked up so far, most specific first.
        self.looked_up: list[tuple] = []
        #: The lookup point that answered the compile, if one did.
        self.hit_at: str | None = None

    def drop(self, name: str) -> None:
        del self._fields[name]

    def lookup(self, at: str) -> CompileResult | None:
        """The slot's result under the current key, if it holds one."""
        key = (self._num_warps, *self._fields.items())
        if self.looked_up and key == self.looked_up[-1]:
            return None  # nothing dropped since the last miss
        self.looked_up.append(key)
        stored = SOURCE_SLOT.compiles.get(key)
        if stored is not None:
            self.hit_at = at
            count_reuse(
                "repro_compile_reuses_total",
                "Compiles answered by an earlier compile of the same "
                "source, by the lookup point that answered.",
                at=at,
            )
        return stored

    def store(self, result: CompileResult) -> CompileResult:
        """Store ``result`` under every key looked up; returns it."""
        for key in self.looked_up:
            SOURCE_SLOT.compiles[key] = result
        return result


def count_reuse(name: str, help: str, **labels: str) -> None:
    # Whether a compile repeats an earlier one depends on what the
    # process compiled before (in-memory compile caches skip repeats
    # entirely), so like the certificate reuses these series are
    # ``invariant=False``.
    if TELEMETRY.enabled:
        TELEMETRY.counter(
            name, labels=labels, help=help, invariant=False
        ).inc()

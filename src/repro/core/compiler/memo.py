"""The per-source slot: each distinct compile, program and certificate once.

Many compiles of one source coincide.  ``repro validate`` crosses every
kernel with four option sets and three ring depths, and a ring depth
often rings nothing; the fuzz oracle compiles each spec under five
option sets.  On the toolchain benchmark's certify subset, 132 compiles
are 33 distinct pre-pass inputs, 52 distinct option keys, 32 distinct
pipelines and 29 distinct programs.  The slot holds one source's work:
its pre-pass outputs, then up to three lookup points inside
:meth:`WaspCompiler.compile`, once more on a program, and once more by
translation validation:

* **Source rule** (:meth:`SourceSlot.select`).  The compiler and
  translation validation both select the slot with the source object
  they were handed.  The slot keeps a
  :func:`~repro.isa.serialize.program_snapshot` of the source it
  selected last: a value copy of every field
  :func:`~repro.isa.serialize.program_digest` covers (name,
  ``smem_words``, ``num_registers``, ``smem_buffers``, ``tb_spec``,
  the blocks' labels and order, and each instruction's opcode,
  operands, guard, ``guard_negated``, target, ``barrier_id``, category
  and attrs).  The same object with an equal snapshot keeps its digest
  and its earlier structural validation; anything else, a new object
  or one edited in place since, is validated and digested again, and a
  new digest clears the slot.  A snapshot of a 32-instruction certify
  source takes about 20 us, its digest 160-280 us.
* **Pre-pass key.**  ``(enable_tile, double_buffering,
  pipeline_depth, smem_capacity_words)``: the only options that clone,
  LDGSTS fusion, sync tagging, circular buffering and the ``key``
  stamping (:func:`~repro.core.compiler.stagesplit.tag_keys`) read.
  Their output (:class:`PrePass`: the working program, its dependence
  graph, ``fused`` and ``double_buffered``) is a function of the
  source's content and these four options, so a later compile with the
  same four skips them all.  The working program's graph is the one
  fusion built when nothing rewrote the program; otherwise the first
  compile that plans from it builds it once and stores it.
* **Compile key** (:class:`CompileKeys`).  ``num_warps`` plus every
  compiler option except ``verify`` and ``validate`` (the post-passes
  run on every call, hit or miss).  An option leaves the key once the
  pass that reads it has not acted on it, and the compiler looks the
  key up at each such point:

  - ``options``, after the pre-passes, ``pipeline_depth`` dropped when
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
  earliest point it can; an ``options`` hit skips everything after the
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
  (:mod:`repro.analysis.transval.validate`), under the source rule
  above like every other entry.

**Why one slot is enough.**  Every caller compiles and validates one
source's variants back to back: ``repro validate`` and fig14 run
kernel-outer cells, the fuzz oracle compiles one spec under each option
set, the advisor compiles its candidates.  The slot holds the current
source's digest and its entries; another source clears it, so memory
stays bounded with no size knob.

**Read-only contract.**  A :class:`PrePass`'s working program and
dependence graph, and a :class:`CompileResult`'s ``program`` and
``facts``, are shared with the slot and with every later compile that
reads them, never copied.  Nothing may rewrite them in place once
stored: every pass after the pre-passes reads the working program and
writes only clones of it (stage splitting clones it per stage), and a
caller that rewrites a compiled program clones it first, as
:func:`repro.fuzz.mutate.apply_mutation` does.  The slot answers by
content, so a rewrite would be served to the next compile under the
old digest.  The source itself is the caller's and may change between
calls; the source rule catches that.

Exceptions are never stored (a raising compile stores nothing, and a
hit re-runs the post-passes, which raise again), and nothing is written
to disk; :func:`clear_source_slot` empties the slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.telemetry.registry import TELEMETRY

if TYPE_CHECKING:
    from repro.analysis.facts import PipelineFacts
    from repro.core.compiler.pdg import PDG
    from repro.core.compiler.pipeline import (
        CompileResult,
        WaspCompilerOptions,
    )
    from repro.isa.program import Program

__all__ = [
    "SOURCE_SLOT",
    "CompileKeys",
    "PrePass",
    "SourceSlot",
    "clear_source_slot",
]


@dataclass
class PrePass:
    """The pre-passes' output for one source and pre-pass key.

    ``work`` and ``pdg`` are shared by every compile with that key:
    read-only (module docstring).
    """

    #: The source's clone after LDGSTS fusion, sync tagging, circular
    #: buffering and ``key`` stamping.
    work: Program
    #: ``work``'s dependence graph: the pre-passes' own when they did
    #: not rewrite the program, else built once by the first compile
    #: that plans from it.
    pdg: PDG | None
    fused: int
    double_buffered: list[str]


class SourceSlot:
    """One source's pre-passes, compiles, programs and certificates."""

    #: The source object last selected, its snapshot and its digest.
    source: Program | None
    snapshot: tuple | None
    source_digest: str | None
    #: Pre-pass key -> the pre-passes' output.
    prepasses: dict[tuple, PrePass]
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
        self.snapshot = None
        self.source_digest = None
        self.prepasses = {}
        self.compiles = {}
        self.programs = {}
        self.certificates = {}
        self.source_summary = None

    def select(self, source: Program) -> None:
        """Point the slot at ``source`` under the source rule: unless it
        is the object last selected and unchanged since, validate it
        (raising :class:`~repro.errors.ValidationError`) and digest it,
        clearing the slot on a new digest."""
        # Imported lazily: the serializer imports this package.
        from repro.isa.serialize import program_digest, program_snapshot

        snapshot = program_snapshot(source)
        if source is self.source and snapshot == self.snapshot:
            return
        source.validate()
        digest = program_digest(source)
        _count(
            "repro_compile_source_digests_total",
            "Source digests taken: a source the slot had not selected, "
            "or one edited since.",
        )
        if digest != self.source_digest:
            self.clear()
            self.source_digest = digest
        self.source = source
        self.snapshot = snapshot

    def prepass(self, key: tuple) -> PrePass | None:
        """The stored pre-pass output under ``key``, if any."""
        stored = self.prepasses.get(key)
        if stored is not None:
            _count(
                "repro_compile_prepass_reuses_total",
                "Compiles whose pre-passes an earlier compile of the same "
                "source already ran.",
            )
        return stored

    def share(self, facts: PipelineFacts) -> PipelineFacts:
        """The slot's facts for ``facts.program``'s digest, stored
        first if the slot has none yet."""
        shared = self.programs.setdefault(facts.program_digest, facts)
        if shared is not facts:
            _count(
                "repro_compile_program_shares_total",
                "Compiles whose finalized program an earlier compile of "
                "the same source already produced.",
            )
        return shared


SOURCE_SLOT = SourceSlot()


def clear_source_slot() -> None:
    """Forget every stored pre-pass, compile, program and certificate."""
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
            _count(
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


def _count(name: str, help: str, **labels: str) -> None:
    # Whether a compile repeats an earlier one depends on what the
    # process compiled before (in-memory compile caches skip repeats
    # entirely), so like the certificate reuses these series are
    # ``invariant=False``.
    if TELEMETRY.enabled:
        TELEMETRY.counter(
            name, labels=labels, help=help, invariant=False
        ).inc()

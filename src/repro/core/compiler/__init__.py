"""The WASP automatic warp-specialization compiler (paper Section IV).

The compiler is a binary-recompilation analogue: it consumes a program in
the SASS-like IR, builds a program dependence graph, extracts pipeline
stages at global-load/use boundaries, and emits a warp-specialized
program plus the thread-block specification that the WASP hardware
consumes.

Pipeline (``WaspCompiler.compile``):

1. :mod:`repro.core.compiler.buffering` — LDGSTS fusion, sync-pair
   tagging and N-slot circular buffering (Figure 10).
2. :mod:`repro.core.compiler.pdg` — reaching-definition data dependences
   over the CFG, built at most once per program version.
3. :mod:`repro.core.compiler.backslice` — backward slices, terminated at
   upstream global loads.
4. :mod:`repro.core.compiler.eligibility` — the paper's eligibility
   rules (no LDS in the backslice, no self-dependence cycle, plus the
   reproduction's single-consumer-stage rule).
5. :mod:`repro.core.compiler.extraction` — two-phase stage extraction
   and indirection-depth analysis (Section IV-A, Figure 9).
6. :mod:`repro.core.compiler.merging` — merge stages with equal memory
   indirection to fit the SM's stage limit (Section IV-B).
7. :mod:`repro.core.compiler.stagesplit` — per-stage program
   construction with queue rewiring and the replicated control skeleton.
8. :mod:`repro.core.compiler.tma_offload` — affine-loop detection and
   WASP-TMA configuration-instruction substitution (Section III-E).
9. :mod:`repro.core.compiler.regalloc` — per-stage register compaction.
10. :mod:`repro.core.compiler.finalize` — jump table, combined program,
    thread-block specification (Table I).
"""

from repro.core.compiler.pipeline import (
    CompileResult,
    WaspCompiler,
    WaspCompilerOptions,
)

__all__ = ["CompileResult", "WaspCompiler", "WaspCompilerOptions"]

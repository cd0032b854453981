"""Translation validation: execution-free equivalence certificates.

Given the pre-compile kernel and the WaspCompiler output, this package
builds symbolic memory-effect summaries of both sides, threads
queue-carried values through the pipeline's FIFO edges, and checks a
cutpoint simulation relation: every global store of the specialized
program must match a source store 1:1 in address, value and guard —
across every circular-buffer slot residue, for any pipeline depth,
without executing or unrolling anything.

Findings are the ``WASP-T`` diagnostic family; the verdict is
three-valued (``equivalent`` / ``not-equivalent`` / ``abstain``), and
abstention is always explicit — never a silent pass.  Each distinct
(source, compiled program) pair is certified once per process, in the
compiler's per-source slot (:mod:`repro.core.compiler.memo`).
"""

from repro.analysis.transval.effects import Summary, summarize_program
from repro.analysis.transval.validate import (
    ABSTAIN,
    EQUIVALENT,
    NOT_EQUIVALENT,
    ValidationReport,
    validate_or_raise,
    validate_programs,
)

__all__ = [
    "ABSTAIN",
    "EQUIVALENT",
    "NOT_EQUIVALENT",
    "Summary",
    "ValidationReport",
    "summarize_program",
    "validate_or_raise",
    "validate_programs",
]

"""Static pipeline verification for warp-specialized programs.

Three passes over a :class:`~repro.isa.program.Program` (no execution):

* queue/barrier protocol (``WASP-Q*``, ``WASP-D*``) — single
  producer/consumer, per-iteration push/pop balance, credit
  feasibility, stage/queue wait-for cycles, arrive/wait pairing,
  barrier metadata;
* SMEM races (``WASP-S*``) — cross-stage buffer access without an
  ordering barrier, double-buffer aware;
* resources (``WASP-R*``/``WASP-C*``) — register budgets vs. the RF,
  use-before-def, SMEM capacity, CFG hygiene.

The diagnostics submodule is imported eagerly because the ISA layer
reports its structural findings through it; everything that depends on
the ISA (the passes themselves) loads lazily to keep the import graph
acyclic.
"""

from typing import Any

from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    DiagnosticReport,
    Severity,
)

__all__ = [
    "RULES",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "VerifyLimits",
    "verify_program",
    "verify_or_raise",
]


def __getattr__(name: str) -> Any:
    if name in ("verify_program", "verify_or_raise"):
        from repro.analysis import verifier

        return getattr(verifier, name)
    if name == "VerifyLimits":
        from repro.analysis.resources import VerifyLimits

        return VerifyLimits
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Generic dataflow analyses over the verifier's CFG/event graphs.

``framework`` is the reusable core: lattices, transfer functions and a
worklist solver, direction-agnostic and checked under strict mypy.
``hb`` is the happens-before ordering engine: an iteration-shift
event graph whose min-plus shortest shifts (``MinShiftLattice``
arithmetic, solved by a dedicated relaxation) classify every
cross-stage SMEM access pair as ordered, racy or phase-disjoint.
"""

from repro.analysis.dataflow.framework import (
    DataflowProblem,
    Direction,
    MeetSetLattice,
    MinShiftLattice,
    dominators,
    solve,
)
from repro.analysis.dataflow.hb import (
    AccessInfo,
    HBAnalysis,
    PairVerdict,
    analyze_hb,
)

__all__ = [
    "AccessInfo",
    "DataflowProblem",
    "Direction",
    "HBAnalysis",
    "MeetSetLattice",
    "MinShiftLattice",
    "PairVerdict",
    "analyze_hb",
    "dominators",
    "solve",
]

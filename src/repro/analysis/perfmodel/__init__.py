"""Static, execution-free performance model (``repro advise``).

Predicts per-kernel cycles, the bottleneck pipeline stage with an
explanation chain, a stall mix comparable to the PR 2 profiler's
taxonomy, and the WASP-vs-baseline speedup — all without running the
cycle-level simulator.  Layers:

* :mod:`repro.analysis.perfmodel.dataflow` — the timing engine: a
  heap-scheduled dependence-order walk of the functional traces that
  replays memory through the simulator's own caches and token-bucket
  bandwidth servers.
* :mod:`repro.analysis.perfmodel.bounds` — closed-form lower bounds
  (issue roofline, per-server bandwidth rooflines, Little's-law queue
  coupling) derived from the shared
  :class:`repro.sim.config.ServiceRates`; these explain the walk's
  prediction rather than replace it.
* :mod:`repro.analysis.perfmodel.model` — the public prediction API.
* :mod:`repro.analysis.perfmodel.advisor` — candidate enumeration and
  the gated configuration suggestion behind ``repro advise``.
* :mod:`repro.analysis.perfmodel.calibration` — predicted-vs-simulated
  rows; the test suite holds the model to its stated tolerances.

Assumptions and blind spots are documented in DESIGN.md §6d.
"""

from repro.analysis.perfmodel.advisor import (
    ADVICE_SCHEMA,
    AdviceReport,
    Candidate,
    KernelAdvice,
    QUEUE_DEPTHS,
    STAGE_SPLITS,
    SUGGESTION_MARGIN,
    advise_kernel,
    advise_workload,
    apply_suggestion,
    enumerate_candidates,
)
from repro.analysis.perfmodel.bounds import (
    Bound,
    BoundReport,
    MemoryLevelMix,
    StageBounds,
    StageWork,
    compute_bounds,
    queue_digraph,
)
from repro.analysis.perfmodel.calibration import (
    AGREEMENT_FLOOR,
    CYCLE_TOLERANCE,
    CalibrationReport,
    CalibrationRow,
    calibrate_fuzz_seed,
    calibrate_kernel,
    calibrate_registry,
)
from repro.analysis.perfmodel.dataflow import ChannelTraffic, DataflowWalk
from repro.analysis.perfmodel.model import (
    KernelPrediction,
    PREDICTION_SCHEMA,
    Prediction,
    predict_kernel,
    predict_traces,
)

__all__ = [
    "ADVICE_SCHEMA",
    "AGREEMENT_FLOOR",
    "AdviceReport",
    "Bound",
    "BoundReport",
    "CYCLE_TOLERANCE",
    "CalibrationReport",
    "CalibrationRow",
    "Candidate",
    "ChannelTraffic",
    "DataflowWalk",
    "KernelAdvice",
    "KernelPrediction",
    "MemoryLevelMix",
    "PREDICTION_SCHEMA",
    "Prediction",
    "QUEUE_DEPTHS",
    "STAGE_SPLITS",
    "SUGGESTION_MARGIN",
    "StageBounds",
    "StageWork",
    "advise_kernel",
    "advise_workload",
    "apply_suggestion",
    "calibrate_fuzz_seed",
    "calibrate_kernel",
    "calibrate_registry",
    "compute_bounds",
    "enumerate_candidates",
    "predict_kernel",
    "predict_traces",
    "queue_digraph",
]

"""Metamorphic timing invariants on the simulator.

Bit-exact differential checking does not apply to the timing model (it
has no reference implementation), so we check *relations between runs*
that must hold for any workload:

* **stall accounting** — ``sum(stall_cycles) + issued_total`` equals
  ``active_warp_cycles`` exactly (PR 2's invariant), on every
  simulation this module performs;
* **bandwidth busy-time conservation** — the bandwidth servers are
  deterministic queues, so DRAM/L2 busy time times the scale factor is
  an exact invariant of the ladder (``total_work / base_rate``);
* **bandwidth monotonicity** — scaling DRAM/L2 bandwidth down never
  decreases total cycles, up to a scheduling-jitter guard band;
* **latency monotonicity** — raising DRAM latency never decreases
  total cycles, up to the same guard band;
* **RFQ monotonicity (occupancy-pinned)** — enlarging the register
  file queue never increases cycles *at fixed occupancy*.  Unpinned,
  the relation is genuinely false: RFQ entries live in the register
  file, so a larger RFQ can displace a whole thread block and slow the
  kernel down.  That displacement is intended behaviour (the paper's
  Fig. 18 trade-off), not a bug, so the invariant pins occupancy to
  isolate the queueing effect.  On the baseline traces this module
  replays (no thread-block spec, so no queues) ``rfq_size`` reaches
  nothing, and the relation is vacuous: every rung replays ``base``.
* **determinism** — simulating the same traces twice gives identical
  cycle counts and stall attribution.

The monotonicity relations carry a multiplicative guard band
(:data:`JITTER_TOL`).  The original greedy round-robin arbiter was not
work-conserving (issue slots idled while eligible warps existed —
permanently, when the warp count did not divide the processing-block
count, and transiently whenever one block's warps all stalled
together), which produced up to ~21% jitter and forced a 25% band.
With balanced thread-block placement and idle-slot stealing in the SM
core the arbiter is work-conserving and the band is 12%: the residual
jitter is cache-hit *reassignment* — L1 lines are owned by whichever
warp touches the sector first, so a different interleaving can move a
DRAM miss onto the critical warp's path even though total traffic and
hit counts are identical (a 300-seed sweep shows zero jitter on 298
seeds and ~10-11% on two such cache-luck outliers, pinned by the
committed corpus).  The band tolerates that while still catching sign
errors and order-of-magnitude regressions; the exact conservation law
keeps the bandwidth ladder sharp.

Replays are memoized within one call on the GPU's
:func:`~repro.sim.gpu.replay_key` and the occupancy the replay runs at,
so a rung the traces cannot tell apart from an earlier one reads that
rung's result: on baseline traces the x1.0 bandwidth rung, the
400-cycle latency rung and all three RFQ rungs are ``base``.  The
determinism check's second run of ``base`` is always a fresh replay.

Each violated relation is reported as a :class:`FuzzFailure` with
check ``timing-*``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.fexec.trace import KernelTrace
from repro.fuzz.spec import FuzzSpec
from repro.sim.config import GPUConfig, wasp_gpu
from repro.sim.gpu import replay_key, simulate_kernel
from repro.sim.occupancy import trace_occupancy
from repro.sim.results import SimResult
from repro.workloads.base import Kernel

#: Tolerance for exact relations (determinism, conservation): the
#: simulator is deterministic, so these hold up to float accumulation.
_EPS = 1e-6

#: Guard band for cycle-count monotonicity.  Issue is work-conserving,
#: but cache-hit reassignment under a different interleaving can still
#: move a DRAM miss onto the critical warp (worst observed: ~11% over
#: 300 fuzz seeds; corpus seeds 129/163/198 pin the band).  Genuine
#: regressions (sign errors, inverted scale factors) overshoot this
#: band by integer factors.
JITTER_TOL = 0.12

#: RFQ sizes for the occupancy-pinned monotonicity ladder.
RFQ_LADDER = (4, 16, 64)

#: Bandwidth scale factors, strongest first; cycles must be
#: non-increasing along this ladder.
BANDWIDTH_LADDER = (0.25, 0.5, 1.0)

#: DRAM latency ladder; cycles must be non-decreasing along it.
LATENCY_LADDER = (200, 400, 800)


def assert_stall_accounting(sim: SimResult, context: str = "") -> None:
    """The standing PR 2 invariant; raises ``AssertionError``."""
    total = sim.stall_total + sim.issued_total
    if abs(total - sim.active_warp_cycles) > max(
        _EPS, _EPS * sim.active_warp_cycles
    ):
        raise AssertionError(
            f"stall accounting broken{' (' + context + ')' if context else ''}: "
            f"stalls {sim.stall_total} + issued {sim.issued_total} "
            f"!= active {sim.active_warp_cycles}"
        )


def check_timing_invariants(
    spec: FuzzSpec,
    kernel: Kernel,
    traces: list[KernelTrace],
):
    """All metamorphic relations for one kernel's traces.

    Returns a list of :class:`repro.fuzz.oracle.FuzzFailure`; empty
    means every relation held.  ``traces`` are the baseline functional
    traces (the relations are about the timing model, so whether the
    trace came from the specialized or baseline program is irrelevant —
    using the baseline keeps this independent of compiler behaviour).
    """
    from repro.fuzz.oracle import FuzzFailure, count_reuse

    failures: list[FuzzFailure] = []
    replays: dict[tuple, SimResult] = {}

    def fail(check: str, message: str) -> None:
        failures.append(FuzzFailure(
            seed=spec.seed, spec=spec, check=check, message=message,
        ))

    def fresh(gpu: GPUConfig, occupancy=None) -> SimResult:
        sim = simulate_kernel(traces, gpu, occupancy=occupancy)
        assert_stall_accounting(sim, context=kernel.name)
        return sim

    def timed(gpu: GPUConfig, occupancy=None) -> SimResult:
        key = (
            replay_key(gpu, traces),
            occupancy or trace_occupancy(gpu, traces),
        )
        sim = replays.get(key)
        if sim is None:
            sim = replays[key] = fresh(gpu, occupancy)
        else:
            count_reuse("replay")
        return sim

    try:
        base_gpu = wasp_gpu()
        base = timed(base_gpu)

        again = fresh(base_gpu)
        if (again.cycles != base.cycles
                or again.stall_cycles != base.stall_cycles):
            fail(
                "timing-nondeterminism",
                f"same traces, two runs: {base.cycles} vs {again.cycles} "
                "cycles (or stall attribution differs)",
            )

        ladder = [
            (factor, timed(base_gpu.scale_bandwidth(factor)))
            for factor in BANDWIDTH_LADDER
        ]
        for (f_lo, lo), (f_hi, hi) in zip(ladder, ladder[1:]):
            # Less bandwidth must not make the kernel faster — modulo
            # scheduler jitter (see module docstring).
            if lo.cycles < hi.cycles * (1.0 - JITTER_TOL):
                fail(
                    "timing-bandwidth-monotone",
                    f"bandwidth x{f_lo} ran faster than x{f_hi}: "
                    f"{lo.cycles} vs {hi.cycles} cycles",
                )
        _check_busy_conservation(ladder, fail)

        prev_cycles = None
        for latency in LATENCY_LADDER:
            cycles = timed(replace(base_gpu, dram_latency=latency)).cycles
            if (prev_cycles is not None
                    and cycles < prev_cycles * (1.0 - JITTER_TOL)):
                fail(
                    "timing-latency-monotone",
                    f"dram_latency={latency} made the kernel faster: "
                    f"{prev_cycles} -> {cycles} cycles",
                )
            prev_cycles = cycles

        # Pin occupancy at the smallest-RFQ configuration so the ladder
        # isolates queue capacity from register-file displacement.
        pinned = trace_occupancy(wasp_gpu(rfq_size=RFQ_LADDER[0]), traces)
        prev_cycles = None
        for rfq in RFQ_LADDER:
            cycles = timed(
                wasp_gpu(rfq_size=rfq), occupancy=pinned
            ).cycles
            if (prev_cycles is not None
                    and cycles > prev_cycles * (1.0 + JITTER_TOL)):
                fail(
                    "timing-rfq-monotone",
                    f"rfq_size={rfq} at pinned occupancy made the kernel "
                    f"slower: {prev_cycles} -> {cycles} cycles",
                )
            prev_cycles = cycles
    except AssertionError as exc:
        fail("timing-stall-accounting", str(exc))

    return failures


def _check_busy_conservation(ladder, fail) -> None:
    """``busy_time * factor`` is constant along the bandwidth ladder.

    The bandwidth servers are deterministic queues, so at scale factor
    ``f`` the DRAM busy time is exactly ``total_sectors / (rate * f)``
    — *provided* the traffic itself did not change.  Scheduling order
    can in principle perturb cache hit patterns (and hence DRAM
    traffic), so the check is gated on the L1 hit rate staying fixed
    across the ladder; when it moved, the relation is vacuous and we
    skip rather than misreport.
    """
    if len({round(sim.l1_hit_rate, 9) for _f, sim in ladder}) != 1:
        return
    products = []
    for factor, sim in ladder:
        util = sim.dram_utilization
        if util <= 0.0 or util >= 0.999:  # idle or clamped: no signal
            return
        products.append((factor, util * max(1.0, sim.cycles) * factor))
    baseline = products[-1][1]
    for factor, product in products:
        if abs(product - baseline) > max(_EPS, 1e-3 * baseline):
            fail(
                "timing-bandwidth-conservation",
                "DRAM busy time does not scale inversely with "
                f"bandwidth: busy*factor is {product:.3f} at x{factor} "
                f"vs {baseline:.3f} at x{products[-1][0]}",
            )
            return

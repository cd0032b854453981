"""Reference-vs-event core differential: the exactness contract.

Tier-1 coverage for :mod:`repro.sim.differential` — small canonical
kernels, a fuzz-spec sample, a registry sample, and failure parity.
CI's ``core-differential`` job runs the full corpus + registry via
``repro corediff``; these tests keep the contract enforced on every
push without that job's runtime.
"""

from __future__ import annotations

import pytest

from repro.fexec import run_kernel
from repro.fuzz.spec import generate_spec
from repro.sim.differential import (
    diff_registry_kernel,
    diff_spec,
    diff_traces,
    differential_gpus,
)
from repro.sim.config import baseline_a100, wasp_gpu


def _traces(program, image_factory, launch):
    return run_kernel(program, image_factory(), launch).traces


def _assert_all_ok(diffs):
    bad = [d for d in diffs if not d.ok]
    assert not bad, "\n".join(
        line for d in bad for line in d.mismatches
    )
    assert diffs, "differential compared nothing"


@pytest.mark.parametrize("setup_name", [
    "stream_setup", "gather_setup", "tile_setup",
])
def test_canonical_kernels_bit_identical(setup_name, request):
    program, image_factory, launch, _ = request.getfixturevalue(setup_name)
    traces = _traces(program, image_factory, launch)
    diffs = [
        diff_traces(traces, gpu, f"{setup_name}:{i}")
        for i, gpu in enumerate(differential_gpus())
    ]
    _assert_all_ok(diffs)
    # The comparison is non-vacuous: real cycles were simulated.
    assert all(d.ref_cycles > 0 for d in diffs)


def test_fuzz_spec_sample_bit_identical():
    """Two specs x (plain + specializations) x the GPU matrix."""
    for seed in (0, 7):
        _assert_all_ok(diff_spec(generate_spec(seed)))


def test_registry_sample_bit_identical():
    from repro.experiments.configs import standard_configs
    from repro.workloads.registry import get_benchmark

    bench = get_benchmark("pointnet", scale=0.125)
    config = next(
        c for c in standard_configs() if c.name == "WASP_GPU"
    )
    diffs = []
    for kernel in bench.kernels:
        diffs.extend(diff_registry_kernel(kernel, config))
    _assert_all_ok(diffs)


def test_deadlock_parity_counts_as_ok():
    """Both cores must fail identically — and that parity is ok=True."""
    from repro.fexec.trace import DynamicInstr, KernelTrace, WarpTrace
    from repro.isa.opcodes import FuncUnit, InstrCategory, Opcode

    pop = DynamicInstr(
        opcode=Opcode.MOV, unit=FuncUnit.INT,
        category=InstrCategory.QUEUE, dst_regs=(0,), queue_pop=0,
    )
    trace = KernelTrace(
        kernel_name="dead", num_warps=1, warp_width=8,
        warps=[WarpTrace(warp_id=0, pipe_stage_id=0, instrs=[pop])],
    )
    for gpu in (baseline_a100(), wasp_gpu()):
        diff = diff_traces([trace], gpu, "deadlock")
        assert diff.ok, diff.mismatches
        # Neither core produced cycles: both raised.
        assert diff.ref_cycles == 0.0 and diff.event_cycles == 0.0


def test_mismatch_is_reported_not_swallowed(monkeypatch, stream_setup):
    """A doctored event core must produce a labelled mismatch."""
    import repro.sim.gpu as gpu_mod
    from repro.sim.sm_event import EventSMSimulator

    class _BrokenEventCore(EventSMSimulator):
        def run(self):
            stats = super().run()
            stats.cycles += 1.0  # the kind of drift the gate exists for
            return stats

    monkeypatch.setitem(gpu_mod._CORES, "event", _BrokenEventCore)
    program, image_factory, launch, _ = stream_setup
    traces = _traces(program, image_factory, launch)
    diff = diff_traces(traces, wasp_gpu(), "doctored")
    assert not diff.ok
    assert any("cycles" in line for line in diff.mismatches)


def test_cycle_sequence_is_compared(monkeypatch, stream_setup):
    """The event core claims the reference's cycle sequence, not just
    its final count: a core that processed one more cycle and jumped
    once less, ending on the same cycle, must be flagged."""
    import repro.sim.gpu as gpu_mod
    from repro.sim.gpu import make_simulator
    from repro.sim.sm_event import EventSMSimulator

    program, image_factory, launch, _ = stream_setup
    traces = _traces(program, image_factory, launch)
    gpu = wasp_gpu().scale_bandwidth(0.25)
    ref = make_simulator(gpu, traces, core="reference")
    ref.run()
    assert ref._tel_jumps > 0 and ref._tel_skipped > 0  # non-vacuous
    assert diff_traces(traces, gpu, "clean").ok

    class _OneMoreCycle(EventSMSimulator):
        def run(self):
            stats = super().run()
            self._tel_cycles += 1
            self._tel_jumps -= 1
            self._tel_skipped -= 1.0
            return stats

    monkeypatch.setitem(gpu_mod._CORES, "event", _OneMoreCycle)
    diff = diff_traces(traces, gpu, "doctored")
    assert {line.split(": ")[1] for line in diff.mismatches} == {
        "processed_cycles", "clock_jumps", "skipped_cycles",
    }

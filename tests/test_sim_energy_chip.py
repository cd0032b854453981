"""Energy proxy."""

import pytest

from repro.core.compiler import WaspCompiler, WaspCompilerOptions
from repro.fexec import run_kernel
from repro.sim.config import baseline_a100, wasp_gpu
from repro.sim.energy import EnergyModel, estimate_energy, simulate_with_energy


def _traces(program, image_factory, launch):
    return run_kernel(program, image_factory(), launch).traces


def test_energy_breakdown_positive_and_consistent(stream_setup):
    program, image_factory, launch, _ = stream_setup
    traces = _traces(program, image_factory, launch)
    result, energy = simulate_with_energy(traces, baseline_a100())
    assert energy.total > 0
    parts = energy.as_dict()
    assert parts["total"] == pytest.approx(
        sum(v for k, v in parts.items() if k != "total")
    )
    assert energy.dram > 0  # cold misses hit DRAM
    assert energy.issue == result.issued_total * EnergyModel().issue_pj


def test_tma_offload_reduces_issue_energy(stream_setup):
    """The Section III-E efficiency claim, quantified."""
    from dataclasses import replace

    program, image_factory, launch, _ = stream_setup
    no_tma = WaspCompiler(
        WaspCompilerOptions(enable_tma_offload=False)
    ).compile(program, num_warps=launch.num_warps)
    with_tma = WaspCompiler().compile(program, num_warps=launch.num_warps)

    def energy_of(compiled):
        spec_launch = replace(
            launch, num_warps=launch.num_warps * compiled.num_stages
        )
        traces = _traces(compiled.program, image_factory, spec_launch)
        _, energy = simulate_with_energy(traces, wasp_gpu())
        return energy

    e_soft = energy_of(no_tma)
    e_tma = energy_of(with_tma)
    assert e_tma.issue < e_soft.issue
    assert e_tma.register_file < e_soft.register_file
    # DRAM traffic is the same data either way.
    assert e_tma.dram == pytest.approx(e_soft.dram, rel=0.1)


def test_estimate_energy_scales_with_model():
    from repro.sim.gpu import SimResult
    from repro.sim.occupancy import Occupancy
    from repro.isa.opcodes import InstrCategory

    result = SimResult(
        kernel_name="k", cycles=100, issued_total=10,
        issued_by_category={InstrCategory.COMPUTE: 4},
        issued_by_stage={}, queue_overhead_instrs=0,
        l2_utilization=0, dram_utilization=0, smem_utilization=0,
        l1_hit_rate=0,
        occupancy=Occupancy(1, 1, 0, "warp_slots"),
    )
    small = estimate_energy(result, 5, 2, 10, model=EnergyModel())
    double = estimate_energy(
        result, 5, 2, 10,
        model=EnergyModel(dram_sector_pj=600.0),
    )
    assert double.dram == pytest.approx(2 * small.dram)


"""HPC benchmarks (Table II): hpcg, hpgmg, lulesh, snap."""

from __future__ import annotations

from repro.workloads.base import Benchmark, scaled_count
from repro.workloads.kernels import (
    csr_spmv_kernel,
    ell_graph_kernel,
    stencil_kernel,
    streaming_kernel,
    tile_reduce_kernel,
)
from repro.workloads.registry import register
from repro.workloads.sparse import banded_csr


@register("hpcg")
def build_hpcg(scale: float = 1.0) -> Benchmark:
    """Multigrid conjugate gradient: 27-point SpMV + vector updates."""
    rows = max(32, int(384 * scale) // 32 * 32)
    matrix = banded_csr(rows, nnz_per_row=12, bandwidth=32, seed=80)
    return Benchmark(
        name="hpcg",
        category="HPC",
        description="Multigrid conjugate gradient",
        kernels=[
            csr_spmv_kernel("spmv_27pt", matrix,
                            rows_per_tb=rows // 4, num_tbs=4, seed=81),
            streaming_kernel(
                "waxpby", elems_per_tb=scaled_count(scale, 2048),
                num_inputs=2, fp_ops=1, num_tbs=4, seed=82,
            ),
        ],
    )


@register("hpgmg")
def build_hpgmg(scale: float = 1.0) -> Benchmark:
    """Geometric multigrid: smoother stencils at two levels + residual."""
    return Benchmark(
        name="hpgmg",
        category="HPC",
        description="Geometric multigrid linear solver",
        kernels=[
            stencil_kernel(
                "smooth_fine", elems_per_tb=scaled_count(scale, 2048),
                offsets=(-64, -8, -1, 0, 1, 8, 64), fp_ops=2,
                num_tbs=4, seed=83,
            ),
            stencil_kernel(
                "smooth_coarse", elems_per_tb=scaled_count(scale, 1024),
                offsets=(-32, -4, -1, 0, 1, 4, 32), fp_ops=2,
                num_warps=2, num_tbs=2, seed=84,
            ),
            streaming_kernel(
                "restrict", elems_per_tb=scaled_count(scale, 1024),
                num_inputs=2, fp_ops=1, num_tbs=4, seed=85,
            ),
            tile_reduce_kernel(
                "residual_norm", tiles=max(4, int(10 * scale)),
                tile_elems=256, num_tbs=2, fp_ops=1, seed=97,
            ),
        ],
    )


@register("lulesh")
def build_lulesh(scale: float = 1.0) -> Benchmark:
    """Unstructured hydro: nodal gathers + FP-heavy element updates."""
    return Benchmark(
        name="lulesh",
        category="HPC",
        description="Hydrodynamics simulation",
        kernels=[
            ell_graph_kernel(
                "hourglass_gather", frontier_per_tb=scaled_count(scale, 384),
                degree=8, num_nodes=1 << 13, fp_ops=4, reduce_min=False,
                num_tbs=4, seed=86,
            ),
            streaming_kernel(
                "eos_update", elems_per_tb=scaled_count(scale, 1536),
                num_inputs=2, fp_ops=10, num_tbs=4, seed=87,
            ),
            tile_reduce_kernel(
                "energy_reduce", tiles=max(4, int(8 * scale)),
                tile_elems=256, num_tbs=2, fp_ops=4, seed=99,
            ),
        ],
    )


@register("snap")
def build_snap(scale: float = 1.0) -> Benchmark:
    """Discrete-ordinates particle transport: sweep streams + source."""
    return Benchmark(
        name="snap",
        category="HPC",
        description="Particle transport",
        kernels=[
            stencil_kernel(
                "sweep_flux", elems_per_tb=scaled_count(scale, 2048),
                offsets=(-128, -1, 0), fp_ops=6, num_tbs=4, seed=88,
            ),
            streaming_kernel(
                "source_moments", elems_per_tb=scaled_count(scale, 2048),
                num_inputs=3, fp_ops=5, num_tbs=4, seed=89,
            ),
            tile_reduce_kernel(
                "angular_reduce", tiles=max(4, int(8 * scale)),
                tile_elems=256, num_tbs=2, fp_ops=3, seed=98,
            ),
        ],
    )

"""Lonestar graph benchmarks (Table II): bfs, mst, sp.

All three are dominated by multi-level gathers over adjacency data with
almost no floating-point work — the paper's biggest WASP-TMA winners
(dynamic-instruction reduction plus extra memory-level parallelism).
"""

from __future__ import annotations

from repro.workloads.base import Benchmark, scaled_count
from repro.workloads.kernels import (
    ell_graph_kernel,
    gather_kernel,
    streaming_kernel,
)
from repro.workloads.registry import register


@register("lonestar_bfs")
def build_bfs(scale: float = 1.0) -> Benchmark:
    """Breadth-first search: frontier expansion over adjacency."""
    return Benchmark(
        name="lonestar_bfs",
        category="Graph",
        description="Breadth-first search",
        kernels=[
            ell_graph_kernel(
                "frontier_expand", frontier_per_tb=scaled_count(scale, 512),
                degree=8, num_nodes=1 << 13, fp_ops=0, reduce_min=True,
                num_tbs=4, seed=90,
            ),
            ell_graph_kernel(
                "frontier_expand_wide",
                frontier_per_tb=scaled_count(scale, 256),
                degree=16, num_nodes=1 << 13, fp_ops=0, reduce_min=True,
                num_tbs=4, seed=91,
            ),
            streaming_kernel(
                "level_update", elems_per_tb=scaled_count(scale, 2048),
                num_inputs=1, fp_ops=0, num_tbs=4, seed=92,
            ),
        ],
    )


@register("lonestar_mst")
def build_mst(scale: float = 1.0) -> Benchmark:
    """Minimum spanning tree: component hooking + edge minimization."""
    return Benchmark(
        name="lonestar_mst",
        category="Graph",
        description="Minimum spanning tree",
        kernels=[
            ell_graph_kernel(
                "find_min_edge", frontier_per_tb=scaled_count(scale, 384),
                degree=8, num_nodes=1 << 13, fp_ops=0, reduce_min=True,
                num_tbs=4, seed=93,
            ),
            gather_kernel(
                "component_lookup", elems_per_tb=scaled_count(scale, 2048),
                table_words=1 << 13, hot_fraction=0.3, fp_ops=0,
                num_tbs=4, seed=94,
            ),
        ],
    )


@register("lonestar_sp")
def build_sp(scale: float = 1.0) -> Benchmark:
    """Survey propagation: message streaming over factor-graph edges."""
    return Benchmark(
        name="lonestar_sp",
        category="Graph",
        description="Survey propagation",
        kernels=[
            ell_graph_kernel(
                "message_update", frontier_per_tb=scaled_count(scale, 512),
                degree=6, num_nodes=1 << 13, fp_ops=2, reduce_min=False,
                num_tbs=4, seed=95,
            ),
            gather_kernel(
                "clause_gather", elems_per_tb=scaled_count(scale, 2048),
                table_words=1 << 14, hot_fraction=0.2, fp_ops=1,
                num_tbs=4, seed=96,
            ),
        ],
    )

"""Attention-class benchmarks (deep-pipeline additions).

These three workloads are the kernel classes whose headline wins come
from circular buffers deeper than 2: fused attention keeps several
use-once KV tiles in flight, GEMM-with-epilogue overlaps the fused
epilogue with the next tile's fetch, and MoE routing chains enough
gather levels that the decoupled stages only stay busy with a deep
ring.  They ride the same lint/profile/advise/corediff registry sweeps
as the Table-II set.
"""

from __future__ import annotations

from repro.workloads.base import Benchmark, scaled_count
from repro.workloads.kernels import (
    fused_attention_kernel,
    gather_kernel,
    gemm_epilogue_kernel,
    moe_gather_scatter_kernel,
    streaming_kernel,
)
from repro.workloads.registry import register


@register("flash_attention")
def build_flash_attention(scale: float = 1.0) -> Benchmark:
    """Fused attention: coupled K/V producer chains + a softmax stage."""
    return Benchmark(
        name="flash_attention",
        category="Attention",
        description="FlashAttention-style fused attention",
        kernels=[
            fused_attention_kernel(
                "fused_attention", kv_tiles=max(4, int(8 * scale)),
                tile_elems=256, num_tbs=2, num_warps=2,
                score_per_tile=8, seed=80,
            ),
            streaming_kernel(
                "rope_embed", elems_per_tb=scaled_count(scale, 1536),
                num_inputs=2, fp_ops=4, num_tbs=4, seed=81,
            ),
        ],
    )


@register("gemm_epilogue")
def build_gemm_epilogue(scale: float = 1.0) -> Benchmark:
    """GEMM mainloop with a fused bias+ReLU epilogue stage."""
    gemm = gemm_epilogue_kernel(
        "gemm_bias_relu", k_tiles=max(5, int(10 * scale)), tile_elems=512,
        hmma_per_tile=16, num_tbs=2, seed=82,
    )
    gemm.weight = 2.0
    return Benchmark(
        name="gemm_epilogue",
        category="Attention",
        description="GEMM with fused bias+ReLU epilogue",
        kernels=[
            gemm,
            streaming_kernel(
                "residual_add", elems_per_tb=scaled_count(scale, 2048),
                num_inputs=2, fp_ops=1, num_tbs=4, seed=83,
            ),
        ],
    )


@register("moe_routing")
def build_moe_routing(scale: float = 1.0) -> Benchmark:
    """MoE gather-route-scatter with expert-table indirection."""
    return Benchmark(
        name="moe_routing",
        category="Attention",
        description="Mixture-of-experts gather-route-scatter",
        kernels=[
            moe_gather_scatter_kernel(
                "moe_dispatch", tokens_per_tb=scaled_count(scale, 1024),
                num_experts=8, expert_words=1 << 10, fp_ops=4,
                num_tbs=4, seed=84,
            ),
            gather_kernel(
                "expert_stats", elems_per_tb=scaled_count(scale, 1536),
                table_words=1 << 12, hot_fraction=0.5, fp_ops=2,
                num_tbs=4, seed=85,
            ),
        ],
    )

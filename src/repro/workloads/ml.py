"""ML / robotics benchmarks (Table II, top block).

Kernel mixes follow the paper's descriptions and cuBLAS/GEMM shares:
GEMM-class kernels are flagged ``is_gemm`` so the harness models the
CUTLASS-specialized baseline on them, while the gather/streaming side
kernels are where WASP finds new pipeline parallelism.
"""

from __future__ import annotations

from repro.workloads.base import Benchmark, scaled_count
from repro.workloads.kernels import (
    ell_graph_kernel,
    gather_kernel,
    stencil_kernel,
    streaming_kernel,
    tile_gemm_kernel,
)
from repro.workloads.registry import register


@register("3d_unet")
def build_3d_unet(scale: float = 1.0) -> Benchmark:
    """Dense volumetric segmentation: conv-as-GEMM + trilinear gathers."""
    return Benchmark(
        name="3d_unet",
        category="ML/Robotics",
        description="Dense Volumetric Segmentation",
        kernels=[
            tile_gemm_kernel(
                "conv_gemm", k_tiles=max(4, int(8 * scale)), tile_elems=512,
                hmma_per_tile=12, num_tbs=2, seed=40,
            ),
            gather_kernel(
                "upsample_gather", elems_per_tb=scaled_count(scale, 2048),
                table_words=1 << 13, hot_fraction=0.6, fp_ops=3,
                num_tbs=4, seed=41,
            ),
            streaming_kernel(
                "instance_norm", elems_per_tb=scaled_count(scale, 2048),
                num_inputs=2, fp_ops=4, num_tbs=4, seed=42,
            ),
        ],
    )


@register("bert")
def build_bert(scale: float = 1.0) -> Benchmark:
    """Encoder transformer: GEMM-dominant with streaming epilogues."""
    gemm = tile_gemm_kernel(
        "qkv_gemm", k_tiles=max(5, int(10 * scale)), tile_elems=512,
        hmma_per_tile=16, num_tbs=2, seed=43,
    )
    gemm.weight = 2.0  # 56% of runtime is cuBLAS (Table II)
    return Benchmark(
        name="bert",
        category="ML/Robotics",
        description="Encoder Transformer Network",
        kernels=[
            gemm,
            streaming_kernel(
                "softmax", elems_per_tb=scaled_count(scale, 2048),
                num_inputs=1, fp_ops=6, num_tbs=4, seed=44,
            ),
            streaming_kernel(
                "layernorm", elems_per_tb=scaled_count(scale, 2048),
                num_inputs=2, fp_ops=3, num_tbs=4, seed=45,
            ),
        ],
    )


@register("curobo")
def build_curobo(scale: float = 1.0) -> Benchmark:
    """Kinematics for robot motion planning: gather-heavy chains."""
    return Benchmark(
        name="curobo",
        category="ML/Robotics",
        description="Kinematics for robot motion planning",
        kernels=[
            ell_graph_kernel(
                "fk_chain", frontier_per_tb=scaled_count(scale, 384), degree=6,
                num_nodes=1 << 12, fp_ops=4, reduce_min=False,
                num_tbs=4, seed=46,
            ),
            gather_kernel(
                "collision_spheres", elems_per_tb=scaled_count(scale, 1536),
                table_words=1 << 12, hot_fraction=0.5, fp_ops=5,
                num_tbs=4, seed=47,
            ),
        ],
    )


@register("dlrm")
def build_dlrm(scale: float = 1.0) -> Benchmark:
    """Recommendation model: embedding gathers + MLP GEMMs."""
    gemm = tile_gemm_kernel(
        "mlp_gemm", k_tiles=max(4, int(8 * scale)), tile_elems=512,
        hmma_per_tile=16, num_tbs=2, seed=48,
    )
    gemm.weight = 2.0
    return Benchmark(
        name="dlrm",
        category="ML/Robotics",
        description="Deep learning recommendation model",
        kernels=[
            gather_kernel(
                "embedding_lookup", elems_per_tb=scaled_count(scale, 2048),
                table_words=1 << 15, hot_fraction=0.2, fp_ops=1,
                num_tbs=4, seed=49,
            ),
            gemm,
            streaming_kernel(
                "interaction", elems_per_tb=scaled_count(scale, 2048),
                num_inputs=2, fp_ops=2, num_tbs=4, seed=50,
            ),
        ],
    )


@register("gpt2")
def build_gpt2(scale: float = 1.0) -> Benchmark:
    """Decoder transformer: smaller GEMM share, KV-cache gathers."""
    return Benchmark(
        name="gpt2",
        category="ML/Robotics",
        description="Generative Pre-trained Transformer",
        kernels=[
            tile_gemm_kernel(
                "attn_gemm", k_tiles=max(3, int(6 * scale)), tile_elems=512,
                hmma_per_tile=12, num_tbs=2, seed=51,
            ),
            gather_kernel(
                "kv_cache_gather", elems_per_tb=scaled_count(scale, 2048),
                table_words=1 << 14, hot_fraction=0.4, fp_ops=2,
                num_tbs=4, seed=52,
            ),
            streaming_kernel(
                "gelu", elems_per_tb=scaled_count(scale, 2560),
                num_inputs=1, fp_ops=5, num_tbs=4, seed=53,
            ),
        ],
    )


@register("pointnet")
def build_pointnet(scale: float = 1.0) -> Benchmark:
    """Point-set learning: use-once gathers + streaming aggregation.

    The Figure 3 benchmark: alternating gather and compute phases that
    the baseline cannot overlap.
    """
    return Benchmark(
        name="pointnet",
        category="ML/Robotics",
        description="Deep learning point set segmentation",
        kernels=[
            gather_kernel(
                "ball_query_gather", elems_per_tb=scaled_count(scale, 3072),
                table_words=1 << 13, hot_fraction=0.3, fp_ops=8,
                num_tbs=4, seed=54,
            ),
        ],
    )


@register("rnnt")
def build_rnnt(scale: float = 1.0) -> Benchmark:
    """Recurrent transducer: latency-sensitive streaming recurrences."""
    return Benchmark(
        name="rnnt",
        category="ML/Robotics",
        description="Recurrent neural network",
        kernels=[
            streaming_kernel(
                "lstm_gates", elems_per_tb=scaled_count(scale, 1024),
                num_inputs=2, fp_ops=8, num_warps=2, num_tbs=4, seed=55,
            ),
            gather_kernel(
                "joint_gather", elems_per_tb=scaled_count(scale, 1536),
                table_words=1 << 13, hot_fraction=0.5, fp_ops=3,
                num_warps=4, num_tbs=4, seed=56,
            ),
            stencil_kernel(
                "pred_window", elems_per_tb=scaled_count(scale, 1024),
                offsets=(-2, -1, 0), fp_ops=4, num_warps=2, num_tbs=2,
                seed=57,
            ),
        ],
    )

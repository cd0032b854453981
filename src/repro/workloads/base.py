"""Benchmark and kernel descriptors."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.fexec.launch import LaunchConfig
from repro.fexec.memory_image import MemoryImage
from repro.isa.program import Program


def scaled_count(scale: float, base: int, quantum: int = 128) -> int:
    """Scale a per-TB element count, keeping warp-multiple alignment."""
    return max(quantum, int(base * scale) // quantum * quantum)


@dataclass
class Kernel:
    """One kernel of a benchmark.

    Attributes:
        name: Kernel name, unique within the benchmark.
        program: The original (unspecialized) program.
        image_factory: Builds a fresh memory image with the kernel's
            inputs (runs mutate memory, so every simulation gets its own).
        launch: Launch configuration for the original program.
        weight: Relative share of benchmark runtime (launch count);
            used to aggregate kernel times into an application time.
        is_gemm: GEMM/cuBLAS-class kernel.  The paper's baseline models
            CUTLASS warp specialization on these (tile-pipelined with
            idealized warp mapping), so the harness compiles them with
            the tile path even in the BASELINE configuration.
    """

    name: str
    program: Program
    image_factory: Callable[[], MemoryImage]
    launch: LaunchConfig
    weight: float = 1.0
    is_gemm: bool = False

    def content_digest(self) -> str:
        """Stable content hash of everything trace generation depends on.

        Combines the program's canonical encoding, the launch geometry
        and the initial memory image, so structurally identical kernels
        hash identically across objects and processes.  Programs and
        image factories are treated as immutable once the kernel is
        built (the compiler clones before transforming), so the digest
        is memoized per instance.
        """
        cached = self.__dict__.get("_content_digest")
        if cached is None:
            h = hashlib.sha256()
            h.update(self.program.canonical_encoding().encode("utf-8"))
            h.update(
                f"|launch:{self.launch.num_warps}:{self.launch.warp_width}"
                f":{self.launch.num_thread_blocks}".encode("utf-8")
            )
            h.update(f"|image:{self.image_factory().content_digest()}"
                     .encode("utf-8"))
            cached = h.hexdigest()
            self.__dict__["_content_digest"] = cached
        return cached


@dataclass
class Benchmark:
    """A Table-II benchmark: a weighted set of kernels."""

    name: str
    category: str
    description: str
    kernels: list[Kernel] = field(default_factory=list)

    def kernel(self, name: str) -> Kernel:
        for kernel in self.kernels:
            if kernel.name == name:
                return kernel
        raise KeyError(f"{self.name} has no kernel {name!r}")

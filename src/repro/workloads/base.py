"""Benchmark and kernel descriptors."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.fexec.launch import LaunchConfig
from repro.fexec.memory_image import MemoryImage
from repro.isa.program import Program
from repro.isa.serialize import program_digest


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

    def image_digest(self) -> str:
        """:meth:`MemoryImage.content_digest` of the initial image.

        Image factories are treated as immutable once the kernel is
        built, so the image is built and hashed once per instance.
        """
        cached = self.__dict__.get("_image_digest")
        if cached is None:
            cached = self.image_factory().content_digest()
            self.__dict__["_image_digest"] = cached
        return cached

    def content_digest(self) -> str:
        """:func:`execution_digest` of the unspecialized run.

        Programs are treated as immutable once the kernel is built (the
        compiler clones before transforming), so the digest is memoized
        per instance.
        """
        cached = self.__dict__.get("_content_digest")
        if cached is None:
            cached = execution_digest(
                program_digest(self.program), self.launch,
                self.image_digest(),
            )
            self.__dict__["_content_digest"] = cached
        return cached


def execution_digest(
    program_digest: str, launch: LaunchConfig, image_digest: str
) -> str:
    """SHA-256 over everything a functional run reads.

    That is the program (by :func:`~repro.isa.serialize.program_digest`,
    name included), the launch geometry and the initial memory image,
    so identical runs hash identically across objects and processes.
    """
    text = (
        f"{program_digest}|launch:{launch.num_warps}:{launch.warp_width}"
        f":{launch.num_thread_blocks}|image:{image_digest}"
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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

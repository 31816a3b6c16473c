"""GPU model: CUDA-core and Tensor-Core processing-rate curves.

Figure 3 of the paper plots *effective data processing rate* against
tile dimension for both GPU engines: rates rise with tile size (launch
overhead and occupancy amortize), peak at an engine-specific optimum —
2048×2048 for CUDA cores, 512×512 for Tensor Cores (§2.2 [C2]) — and
fall once compute grows as n³ against data volume n². We model each
engine with a calibrated log-normal bump, which reproduces exactly the
properties the paper uses: distinct optima per engine ([C2]), optima
that differ from any storage device's optimum ([C3]), and kernel times
that grow superquadratically past the optimum.

Absolute peaks are calibrated from RTX 2080-class GEMM: ~30 GB/s of
matrix data for FP32 cuBLAS on CUDA cores, ~250 GB/s for FP16 Tensor
Cores (the paper's "significant performance lead in Tensor Cores").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["EngineCurve", "GpuModel", "RTX2080"]


@dataclass(frozen=True)
class EngineCurve:
    """Processing-rate curve of one GPU engine.

    ``rate(n)`` is bytes of operand/result data processed per second
    when the kernel works on n×n tiles.
    """

    name: str
    peak_rate: float          # bytes/second at the optimal tile dimension
    optimal_dim: int          # tile dimension with the highest rate
    sigma_log2: float = 2.0   # width of the bump in octaves
    min_dim: int = 8

    def rate(self, dim: int) -> float:
        if dim < 1:
            raise ValueError("tile dimension must be >= 1")
        dim = max(dim, self.min_dim)
        offset = math.log2(dim / self.optimal_dim)
        return self.peak_rate * math.exp(-(offset * offset)
                                         / (2.0 * self.sigma_log2 ** 2))


@dataclass(frozen=True)
class GpuModel:
    """One accelerator: engines, device memory and the H2D/D2H path."""

    name: str
    cuda: EngineCurve
    tensor: EngineCurve
    device_memory: int = 8 * 2**30
    h2d_bandwidth: float = 12e9
    h2d_overhead: float = 10e-6
    #: amortized per-kernel launch cost — the paper's kernels are
    #: strided-batched cuBLAS calls, so launches amortize to ~1 µs
    kernel_launch_overhead: float = 1e-6

    # ------------------------------------------------------------------
    def h2d_time(self, num_bytes: int) -> float:
        """Host→device (or device→host) copy time over PCIe."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.h2d_overhead + num_bytes / self.h2d_bandwidth

    def engine(self, use_tensor_cores: bool) -> EngineCurve:
        return self.tensor if use_tensor_cores else self.cuda

    def kernel_time(self, data_bytes: int, tile_dim: int,
                    use_tensor_cores: bool = False) -> float:
        """Time for one kernel that touches ``data_bytes`` of operand
        data with a working tile of ``tile_dim``×``tile_dim``."""
        if data_bytes <= 0:
            return self.kernel_launch_overhead
        curve = self.engine(use_tensor_cores)
        return self.kernel_launch_overhead + data_bytes / curve.rate(tile_dim)

    def processing_rate(self, tile_dim: int, element_size: int = 4,
                        use_tensor_cores: bool = False) -> float:
        """The Fig. 3 series: effective bytes/second for n×n GEMM tiles
        (3 operand/result matrices of n² elements each)."""
        data = 3 * tile_dim * tile_dim * element_size
        return data / self.kernel_time(data, tile_dim, use_tensor_cores)

    def fits_in_device_memory(self, num_bytes: int) -> bool:
        return num_bytes <= self.device_memory


#: The paper's evaluation GPU (§6.1): RTX 2080 with Turing Tensor Cores.
RTX2080 = GpuModel(
    name="rtx-2080",
    cuda=EngineCurve(name="cuda-cores", peak_rate=30e9, optimal_dim=2048),
    tensor=EngineCurve(name="tensor-cores", peak_rate=250e9, optimal_dim=512),
    device_memory=8 * 2**30,
    h2d_bandwidth=12e9,
    h2d_overhead=10e-6,
    kernel_launch_overhead=1e-6,
)

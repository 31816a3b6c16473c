"""Block GEMM (Table 1: linear algebra, Tensor-Core kernel).

The paper's flagship workload: 65536² matrices multiplied in 8192²
sub-blocks (MSplitGEMM + cuBLAS on Tensor Cores). Sub-block fetches of
a row-major matrix are exactly the [P1]/[P2]/[P3] worst case of §2.1,
so GEMM shows the largest NDS gains.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.accelerator.kernels import KernelModel
from repro.workloads.base import TileFetch, Workload, WorkloadDataset
from repro.workloads.datagen import random_matrix

__all__ = ["GemmWorkload"]


class GemmWorkload(Workload):
    name = "GEMM"
    category = "Linear Algebra"
    data_dim_label = "2D"
    kernel_dim_label = "2D"
    uses_tensor_cores = True

    def __init__(self, n: int = 4096, tile: int = 512,
                 max_tiles: int = 64) -> None:
        if n % tile != 0:
            raise ValueError("tile must divide n")
        self.n = n
        self.tile = tile
        self.max_tiles = max_tiles

    def datasets(self) -> List[WorkloadDataset]:
        return [WorkloadDataset("A", (self.n, self.n), 4),
                WorkloadDataset("B", (self.n, self.n), 4)]

    def tile_plan(self) -> List[TileFetch]:
        """Blocked MM fetch order: for each output block (i, j), stream
        the (i, k)/(k, j) pairs. The kernel fires on each B fetch."""
        plan: List[TileFetch] = []
        blocks = self.n // self.tile
        for i in range(blocks):
            for j in range(blocks):
                for k in range(blocks):
                    plan.append(TileFetch(
                        "A", (i * self.tile, k * self.tile),
                        (self.tile, self.tile)))
                    plan.append(TileFetch(
                        "B", (k * self.tile, j * self.tile),
                        (self.tile, self.tile)))
                    if len(plan) >= self.max_tiles:
                        return plan
        return plan

    def kernel_time(self, kernels: KernelModel, fetch: TileFetch) -> float:
        if fetch.dataset == "B":
            return kernels.gemm(self.tile, self.tile, self.tile,
                                element_size=4, use_tensor_cores=True)
        return 0.0

    # -- functional ------------------------------------------------------
    def generate(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        seed = int(rng.integers(2**31))
        return {"A": random_matrix(self.n, self.n, seed=seed),
                "B": random_matrix(self.n, self.n, seed=seed + 1)}

    def reference(self, inputs: Dict[str, np.ndarray]) -> np.ndarray:
        return inputs["A"].astype(np.float64) @ inputs["B"].astype(np.float64)

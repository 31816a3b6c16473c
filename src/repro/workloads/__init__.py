"""The Table 1 workloads, their generators, and the pipelined runner."""

from typing import Callable, Dict, List

from repro.workloads.base import SCALE_NOTE, TileFetch, Workload, WorkloadDataset
from repro.workloads.bfs import BfsWorkload
from repro.workloads.conv2d import Conv2dWorkload
from repro.workloads.embedding import EmbeddingWorkload
from repro.workloads.gemm import GemmWorkload
from repro.workloads.hotspot import HotspotWorkload
from repro.workloads.kmeans import KMeansWorkload
from repro.workloads.knn import KnnWorkload
from repro.workloads.pagerank import PageRankWorkload
from repro.workloads.runner import (CoRunResult, StreamRunResult,
                                    WorkloadRunResult, co_run_workloads,
                                    ingest_datasets, measure_io_times,
                                    run_workload, speedup)
from repro.workloads.sssp import SsspWorkload
from repro.workloads.tc import TcWorkload
from repro.workloads.ttv import TtvWorkload

#: Table 1 order; factories produce default-scaled instances.
WORKLOAD_FACTORIES: Dict[str, Callable[[], Workload]] = {
    "BFS": BfsWorkload,
    "SSSP": SsspWorkload,
    "GEMM": GemmWorkload,
    "Hotspot": HotspotWorkload,
    "KMeans": KMeansWorkload,
    "KNN": KnnWorkload,
    "PageRank": PageRankWorkload,
    "Conv2D": Conv2dWorkload,
    "TTV": TtvWorkload,
    "TC": TcWorkload,
}


def all_workloads() -> List[Workload]:
    """Fresh default-scaled instances of every Table 1 workload."""
    return [factory() for factory in WORKLOAD_FACTORIES.values()]


__all__ = [
    "Workload",
    "WorkloadDataset",
    "TileFetch",
    "SCALE_NOTE",
    "BfsWorkload",
    "SsspWorkload",
    "GemmWorkload",
    "HotspotWorkload",
    "KMeansWorkload",
    "KnnWorkload",
    "PageRankWorkload",
    "Conv2dWorkload",
    "EmbeddingWorkload",
    "TtvWorkload",
    "TcWorkload",
    "WORKLOAD_FACTORIES",
    "all_workloads",
    "run_workload",
    "speedup",
    "ingest_datasets",
    "measure_io_times",
    "WorkloadRunResult",
    "co_run_workloads",
    "CoRunResult",
    "StreamRunResult",
]

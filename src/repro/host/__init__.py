"""Host-side substrate: CPU/memory cost models, I/O engine, pipelines."""

from repro.host.cpu import HostCpu
from repro.host.io_engine import HostIoEngine, IoRun, IoRunResult
from repro.host.memory import MemoryModel
from repro.host.pipeline import PipelineResult, run_pipeline

__all__ = [
    "HostCpu",
    "MemoryModel",
    "HostIoEngine",
    "IoRun",
    "IoRunResult",
    "PipelineResult",
    "run_pipeline",
]

"""Host-device interconnect substrate: link timing + NVMe command model."""

from repro.interconnect.link import Link
from repro.interconnect.nvme import (
    NVME_LIMITS,
    CommandLimits,
    NvmeOpcode,
    saturation_curve,
)

__all__ = [
    "Link",
    "NvmeOpcode",
    "CommandLimits",
    "NVME_LIMITS",
    "saturation_curve",
]

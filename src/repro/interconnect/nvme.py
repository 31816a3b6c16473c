"""NVMe command-level model, including the NDS command-set extension.

The paper extends NVMe with multi-dimensional read/write commands plus
``open_space`` / ``close_space`` / ``delete_space`` (§5.3.1). An extended
command is flagged by a reserved bit in the first command word and
carries a pointer to a page holding coordinates/sub-dimensionality —
up to 32 dimensions of 2**64 elements. This module models command
encoding limits and per-command costs; actual transfers go through
:class:`~repro.interconnect.link.Link`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

from repro.interconnect.link import Link

__all__ = ["NvmeOpcode", "CommandLimits", "NVME_LIMITS", "saturation_curve"]

#: NVMe extension limits from §5.3.1: one 4 KB page of coordinate payload
#: supports up to 32 dimensions, 2**64 elements each.
MAX_DIMENSIONS = 32
MAX_DIM_SIZE = 2**64


class NvmeOpcode(Enum):
    """Conventional + NDS-extended opcodes."""

    READ = "read"
    WRITE = "write"
    TRIM = "trim"
    ND_READ = "nd_read"
    ND_WRITE = "nd_write"
    OPEN_SPACE = "open_space"
    CLOSE_SPACE = "close_space"
    DELETE_SPACE = "delete_space"

    @property
    def is_extended(self) -> bool:
        return self not in (NvmeOpcode.READ, NvmeOpcode.WRITE, NvmeOpcode.TRIM)


@dataclass(frozen=True)
class CommandLimits:
    """Encoding limits for extended commands."""

    max_dimensions: int = MAX_DIMENSIONS
    max_dim_size: int = MAX_DIM_SIZE

    def validate_dimensionality(self, dims: Sequence[int]) -> None:
        if len(dims) == 0:
            raise ValueError("dimensionality must have at least one dimension")
        if len(dims) > self.max_dimensions:
            raise ValueError(
                f"{len(dims)} dimensions exceed the NVMe extension limit "
                f"of {self.max_dimensions}")
        for size in dims:
            if not (1 <= size <= self.max_dim_size):
                raise ValueError(f"dimension size {size} out of range")


NVME_LIMITS = CommandLimits()


def saturation_curve(link_bandwidth: float, command_overhead: float,
                     request_sizes: Sequence[int]) -> Tuple[Tuple[int, float], ...]:
    """Effective bandwidth vs request size — the Fig. 3 NVMe-oF series.

    Returns ``((size, bytes_per_second), ...)``.
    """
    link = Link(link_bandwidth, command_overhead)
    return tuple((size, link.effective_bandwidth(size))
                 for size in request_sizes)

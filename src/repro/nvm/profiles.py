"""Calibrated device profiles.

The paper evaluates on two flash devices:

* the **prototype / datacenter SSD** — 32 channels, 8 banks, 4 KB pages,
  2 TB, 4 GB DRAM, behind a 40 Gb/s NVMe-oF link (§6.1); its
  internal:external bandwidth ratio is 8:5 (§7.2);
* a **consumer-class NVMe SSD** with 8 channels (Fig. 3).

Profiles bundle geometry + timing + link/host parameters. The
``scale`` helpers shrink *capacity* (not parallelism) so that
experiments with down-scaled datasets keep identical structure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.nvm.geometry import Geometry
from repro.nvm.timing import NvmTiming

__all__ = ["DeviceProfile", "PAPER_PROTOTYPE", "CONSUMER_SSD",
           "PCM_PROTOTYPE", "TINY_TEST"]


@dataclass(frozen=True)
class DeviceProfile:
    """Everything needed to instantiate one modelled storage device."""

    name: str
    geometry: Geometry
    timing: NvmTiming
    #: external link peak bandwidth (bytes/s) — NVMe-oF for the prototype
    link_bandwidth: float
    #: per-command link overhead (s); calibrated so 32 KB requests reach
    #: ~66 % of peak and >=2 MB requests saturate (paper §2.1 [P2])
    link_command_overhead: float
    #: device controller per-command processing time (s)
    controller_command_time: float
    #: device DRAM available for FTL/STL structures and buffers (bytes)
    dram_bytes: int
    #: fraction of capacity reserved as over-provisioning (§6.1: 10 %)
    overprovisioning: float = 0.10

    @property
    def internal_read_bandwidth(self) -> float:
        g = self.geometry
        return self.timing.internal_read_bandwidth(
            g.channels, g.banks_per_channel, g.page_size)

    def scaled_capacity(self, factor: float) -> "DeviceProfile":
        """Same structure and speeds, ``factor``× the blocks per bank."""
        return replace(
            self,
            geometry=self.geometry.scaled(block_factor=factor),
            dram_bytes=max(1, int(self.dram_bytes * factor)),
        )


#: The paper's prototype datacenter-class SSD (§6.1), calibrated:
#: internal read bandwidth 32 ch × 250 MB/s = 8 GB/s against the
#: external 40 Gb/s NVMe-oF link ≈ 5 GB/s — the paper's 8:5
#: internal:external ratio (§7.2). 32 KB transfers reach ≈ 66 % of peak
#: with the 3.4 µs command overhead (paper §2.1 [P2]).
PAPER_PROTOTYPE = DeviceProfile(
    name="paper-prototype-32ch",
    geometry=Geometry(channels=32, banks_per_channel=8,
                      blocks_per_bank=1024, pages_per_block=256,
                      page_size=4096),
    timing=NvmTiming(t_read=60e-6, t_program=3.4e-3, t_erase=5e-3,
                     channel_bandwidth=250e6, t_cmd=0.5e-6),
    link_bandwidth=5.0e9,
    link_command_overhead=3.4e-6,
    controller_command_time=2.0e-6,
    dram_bytes=4 * 2**30,
)

#: The 8-channel consumer NVMe SSD from Fig. 3 (external bandwidth limited
#: to PCIe 3.0 ×4-class ~3.2 GB/s, fewer channels).
CONSUMER_SSD = DeviceProfile(
    name="consumer-8ch",
    geometry=Geometry(channels=8, banks_per_channel=8,
                      blocks_per_bank=1024, pages_per_block=256,
                      page_size=4096),
    timing=NvmTiming(t_read=75e-6, t_program=2.8e-3, t_erase=5e-3,
                     channel_bandwidth=320e6, t_cmd=0.5e-6),
    link_bandwidth=3.2e9,
    link_command_overhead=5.0e-6,
    controller_command_time=2.5e-6,
    dram_bytes=1 * 2**30,
)

#: A PCM-class byte-addressable device (§2.1 notes PCM keeps its own
#: basic access granularity [90]): much finer units, far lower read
#: latency, modest parallelism. Its building-block optimum differs from
#: both flash devices — the [C1] point that no single application-side
#: layout suits every device.
PCM_PROTOTYPE = DeviceProfile(
    name="pcm-16ch",
    geometry=Geometry(channels=16, banks_per_channel=4,
                      blocks_per_bank=4096, pages_per_block=256,
                      page_size=512),
    timing=NvmTiming(t_read=1e-6, t_program=10e-6, t_erase=100e-6,
                     channel_bandwidth=600e6, t_cmd=0.2e-6),
    link_bandwidth=6.0e9,
    link_command_overhead=2.0e-6,
    controller_command_time=1.5e-6,
    dram_bytes=2 * 2**30,
)

#: A miniature device for unit tests: small enough that GC paths and
#: exhaustion are easy to trigger, same structural shape as the prototype.
TINY_TEST = DeviceProfile(
    name="tiny-test-4ch",
    geometry=Geometry(channels=4, banks_per_channel=2,
                      blocks_per_bank=8, pages_per_block=8,
                      page_size=256),
    timing=NvmTiming(t_read=10e-6, t_program=100e-6, t_erase=500e-6,
                     channel_bandwidth=100e6, t_cmd=0.2e-6),
    link_bandwidth=1.0e9,
    link_command_overhead=2.0e-6,
    controller_command_time=1.0e-6,
    dram_bytes=1 * 2**20,
)

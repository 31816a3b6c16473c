"""Flash / NVM device substrate: geometry, timing, functional+timed array."""

from repro.nvm.address import PhysicalPageAddress, index_to_ppa, ppa_to_index
from repro.nvm.flash import FlashArray, FlashStateError
from repro.nvm.geometry import Geometry
from repro.nvm.profiles import (CONSUMER_SSD, PAPER_PROTOTYPE, PCM_PROTOTYPE,
                                TINY_TEST, DeviceProfile)
from repro.nvm.timing import NvmTiming

__all__ = [
    "Geometry",
    "NvmTiming",
    "PhysicalPageAddress",
    "ppa_to_index",
    "index_to_ppa",
    "FlashArray",
    "FlashStateError",
    "DeviceProfile",
    "PAPER_PROTOTYPE",
    "CONSUMER_SSD",
    "PCM_PROTOTYPE",
    "TINY_TEST",
]

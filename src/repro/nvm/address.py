"""Physical page addressing.

A physical page address (PPA) names one basic access unit:
``(channel, bank, block, page)``. Its compact integer linearization,
:func:`ppa_to_index` (channel-major, then bank, block, page), is the
form the simulator stores and passes on its hot paths: the FTL map, the
STL leaf slots, the parity store, the page
allocators, every page method of the flash array and the fault
injector's page and block keys all hold plain ints.
The plane number of an index (``channel * banks_per_channel + bank``)
is ``index // pages_per_bank``. Index order is the field order, so a
sort of indices keeps the order of a sort of addresses.

:class:`PhysicalPageAddress` is the decoded form, built only where an
address leaves the program: the ``ppa`` of a typed fault error and its
message. A :class:`~repro.faults.plan.FaultPlan` event, which comes in
from outside, names its page by the same four fields.
It is a named tuple: its hash and ordering are the plain tuple's
(field-wise, in declaration order), and it compares equal to the plain
4-tuple of its fields.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.nvm.geometry import Geometry

__all__ = ["PhysicalPageAddress", "ppa_to_index", "index_to_ppa"]


class PhysicalPageAddress(NamedTuple):
    """One basic access unit in the NVM array."""

    channel: int
    bank: int
    block: int
    page: int

    def validate(self, geometry: Geometry) -> None:
        if not (0 <= self.channel < geometry.channels):
            raise ValueError(f"channel {self.channel} out of range")
        if not (0 <= self.bank < geometry.banks_per_channel):
            raise ValueError(f"bank {self.bank} out of range")
        if not (0 <= self.block < geometry.blocks_per_bank):
            raise ValueError(f"block {self.block} out of range")
        if not (0 <= self.page < geometry.pages_per_block):
            raise ValueError(f"page {self.page} out of range")

    def index(self, geometry: Geometry) -> int:
        return ppa_to_index(self, geometry)


def ppa_to_index(ppa: PhysicalPageAddress, geometry: Geometry) -> int:
    """Linearize a PPA: channel-major, then bank, block, page."""
    return ((ppa.channel * geometry.banks_per_channel + ppa.bank)
            * geometry.blocks_per_bank + ppa.block) \
        * geometry.pages_per_block + ppa.page


def index_to_ppa(index: int, geometry: Geometry) -> PhysicalPageAddress:
    """Inverse of :func:`ppa_to_index`."""
    if not (0 <= index < geometry.total_pages):
        raise ValueError(f"page index {index} out of range")
    page = index % geometry.pages_per_block
    index //= geometry.pages_per_block
    block = index % geometry.blocks_per_bank
    index //= geometry.blocks_per_bank
    bank = index % geometry.banks_per_channel
    channel = index // geometry.banks_per_channel
    return PhysicalPageAddress(channel=channel, bank=bank, block=block, page=page)

"""Cross-channel XOR parity groups for NDS building blocks.

The §4.2 allocator spreads a building block's units over as many
channels as possible; one extra XOR unit per block therefore gives
RAID-5-like protection *across channels*: when a unit becomes
unreadable (uncorrectable ECC, scripted corruption, or a dead channel)
the STL reconstructs it from the surviving units plus parity, all of
which live on other channels/banks by construction.

The store tracks only the parity unit's physical location per
``(space_id, block_coord)``, as its int page index (see
:mod:`repro.nvm.address`); the parity *content* lives in the flash
array like any other page, so functional verification covers it.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

__all__ = ["ParityStore", "PARITY_POSITION", "xor_fold"]

#: sentinel block position of a parity unit — a parity page belongs to
#: the store (its owner slot holds the ``(space_id, coord)`` key), not to
#: a B-tree leaf
PARITY_POSITION = -1


def xor_fold(page_slots: "np.ndarray", page_size: int) -> "np.ndarray":
    """XOR of all page-sized slices of a block's content buffer."""
    padded = page_slots.reshape(-1, page_size)
    return np.bitwise_xor.reduce(padded, axis=0)


class ParityStore:
    """Parity-unit locations keyed by (space_id, block_coord)."""

    def __init__(self) -> None:
        self._pages: Dict[Tuple[int, Tuple[int, ...]], int] = {}

    def get(self, space_id: int, coord: Tuple[int, ...]) -> Optional[int]:
        return self._pages.get((space_id, tuple(coord)))

    def put(self, space_id: int, coord: Tuple[int, ...], ppa: int) -> None:
        self._pages[(space_id, tuple(coord))] = ppa

    def pop(self, space_id: int, coord: Tuple[int, ...]) -> Optional[int]:
        return self._pages.pop((space_id, tuple(coord)), None)

    def iter_space(self, space_id: int) -> Iterator[Tuple[Tuple[int, ...], int]]:
        for (sid, coord), ppa in list(self._pages.items()):
            if sid == space_id:
                yield coord, ppa

    def __len__(self) -> int:
        return len(self._pages)

"""Multi-dimensional address spaces (§3).

A space is defined by the three essential properties of the paper:
a **space identifier**, an **element size**, and a **dimensionality**.
On creation the STL derives the building-block dimensionality from the
device geometry (Eq. 1–4); the block grid then tiles the space.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.core.building_block import block_dims, pages_per_block
from repro.core.errors import InvalidCoordinateError
from repro.interconnect.nvme import NVME_LIMITS
from repro.nvm.geometry import Geometry

__all__ = ["Space"]


@dataclass
class Space:
    """One NDS address space plus its derived building-block layout.

    Attributes
    ----------
    space_id:
        The 64-bit identifier returned by ``open_space`` (§5.3.1).
    dims:
        Size of each dimension, highest order first.
    element_size:
        Bytes per element.
    bb:
        Building-block dimensionality (same rank as ``dims``).
    """

    space_id: int
    dims: Tuple[int, ...]
    element_size: int
    bb: Tuple[int, ...]
    pages_per_block: int
    open_views: int = 0
    deleted: bool = False
    _grid: Tuple[int, ...] = field(init=False)
    #: memoized translation results, keyed by ``(origin, extents)`` /
    #: ``block_slice``. Both caches are pure functions of the geometry
    #: fields above, so they never need churn invalidation; ``resize``
    #: builds a fresh Space, which starts with empty caches. Ordered so
    #: the translator can evict the least-recently-used entry when a
    #: cache reaches the capacity limit.
    _region_cache: OrderedDict = field(init=False, repr=False, compare=False)
    _pages_cache: OrderedDict = field(init=False, repr=False, compare=False)
    #: per-space hit/miss counters for both memo caches (the translator's
    #: module-level ``translation_cache_stats()`` sums every space's)
    _translation_stats: Dict[str, int] = field(init=False, repr=False,
                                               compare=False)

    def __post_init__(self) -> None:
        NVME_LIMITS.validate_dimensionality(self.dims)
        if self.element_size < 1:
            raise ValueError("element_size must be >= 1")
        if len(self.bb) != len(self.dims):
            raise ValueError("building-block rank must match space rank")
        self._grid = tuple(-(-d // b) for d, b in zip(self.dims, self.bb))
        self._region_cache = OrderedDict()
        self._pages_cache = OrderedDict()
        self._translation_stats = {"region_hits": 0, "region_misses": 0,
                                   "pages_hits": 0, "pages_misses": 0}

    def clear_translation_caches(self) -> None:
        """Drop this space's memoized translation results."""
        self._region_cache.clear()
        self._pages_cache.clear()

    def translation_cache_stats(self) -> Dict[str, int]:
        """This space's own hit/miss counters (independent of every
        other space, system, and pooled device)."""
        return dict(self._translation_stats)

    def reset_translation_cache_stats(self) -> None:
        for key in self._translation_stats:
            self._translation_stats[key] = 0

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, space_id: int, dims: Sequence[int], element_size: int,
               geometry: Geometry,
               bb_override: Optional[Sequence[int]] = None,
               use_3d_blocks: bool = False) -> "Space":
        """Create a space, deriving the block shape from the geometry."""
        dims = tuple(int(d) for d in dims)
        bb = block_dims(dims, element_size, geometry, override=bb_override,
                        use_3d=use_3d_blocks)
        ppb = pages_per_block(bb, element_size, geometry)
        return cls(space_id=space_id, dims=dims, element_size=element_size,
                   bb=bb, pages_per_block=ppb)

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def volume(self) -> int:
        product = 1
        for extent in self.dims:
            product *= extent
        return product

    @property
    def total_bytes(self) -> int:
        return self.volume * self.element_size

    @property
    def grid(self) -> Tuple[int, ...]:
        """Building-block grid: blocks per dimension (ceil division)."""
        return self._grid

    @property
    def total_blocks(self) -> int:
        product = 1
        for extent in self._grid:
            product *= extent
        return product

    @property
    def block_bytes(self) -> int:
        product = self.element_size
        for extent in self.bb:
            product *= extent
        return product

    # ------------------------------------------------------------------
    def validate_request(self, coordinate: Sequence[int],
                         sub_dim: Sequence[int]) -> None:
        """Check a (coordinate, sub-dimensionality) pair against bounds.

        The coordinate indexes *partitions* of the space: partition
        ``c`` spans elements ``[c_i * f_i, (c_i + 1) * f_i)`` (§3 (2)).
        """
        if len(coordinate) != self.rank or len(sub_dim) != self.rank:
            raise InvalidCoordinateError(
                f"rank mismatch: space is {self.rank}-D, request is "
                f"({len(coordinate)}, {len(sub_dim)})")
        for axis, (c, f, d) in enumerate(zip(coordinate, sub_dim, self.dims)):
            if f < 1:
                raise InvalidCoordinateError(
                    f"sub-dimension {f} on axis {axis} must be >= 1")
            if c < 0 or (c * f) >= d or (c + 1) * f > d:
                raise InvalidCoordinateError(
                    f"partition {c}×{f} on axis {axis} exceeds extent {d}")

    def request_origin(self, coordinate: Sequence[int],
                       sub_dim: Sequence[int]) -> Tuple[int, ...]:
        return tuple(c * f for c, f in zip(coordinate, sub_dim))

"""The space translator (§4.3, Eq. 5).

Given a request — a coordinate in an application-defined space plus the
sub-dimensionality of the requested partition — the translator produces
the set of building blocks covering the partition, together with the
intra-block region and the position of that region inside the request
buffer. This is Eq. 5 of the paper: per axis *i* the block indices run
from ``floor(origin_i / bb_i)`` through
``floor((origin_i + extent_i - 1) / bb_i)``.

The translator also computes which *pages* of a block a partial access
touches (blocks store their elements row-major, split sequentially into
pages, §4.2), so partial reads fetch only the necessary units.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.space import Space

__all__ = ["BlockAccess", "translate", "translate_region",
           "check_region", "pages_for_region", "translation_cache_stats"]

#: per-Space entry cap for each memo cache. Tile plans revisit a small
#: set of (origin, shape) pairs, so the working set is tiny; the cap
#: only guards pathological workloads that sweep millions of distinct
#: regions. A full cache evicts its least-recently-used entry (hits
#: refresh recency), so a working set one entry over the cap degrades
#: gracefully instead of thrashing.
_CACHE_LIMIT = 4096
_cache_stats = {"region_hits": 0, "region_misses": 0,
                "pages_hits": 0, "pages_misses": 0}


def translation_cache_stats() -> dict:
    """Process-wide hit/miss counters over both memo caches, summed
    across every space, system and pooled device in the process (use
    :meth:`Space.translation_cache_stats` for one space's own)."""
    return dict(_cache_stats)


def _remember(cache, key, value: tuple) -> None:
    """Insert into a capped memo cache, evicting least-recently-used
    entries first."""
    while len(cache) >= _CACHE_LIMIT:
        cache.popitem(last=False)
    cache[key] = value


@dataclass(frozen=True)
class BlockAccess:
    """One building block touched by a request.

    ``block_slice`` / ``out_slice`` are per-axis ``(start, stop)`` pairs
    relative to the block origin / the request origin respectively.
    """

    block_coord: Tuple[int, ...]
    block_slice: Tuple[Tuple[int, int], ...]
    out_slice: Tuple[Tuple[int, int], ...]

    @property
    def is_full_block(self) -> bool:
        return all(start == 0 for start, _stop in self.block_slice)

    def extent(self) -> Tuple[int, ...]:
        return tuple(stop - start for start, stop in self.block_slice)

    def element_count(self) -> int:
        count = 1
        for start, stop in self.block_slice:
            count *= stop - start
        return count


def translate(space: Space, coordinate: Sequence[int],
              sub_dim: Sequence[int]) -> List[BlockAccess]:
    """Map a (coordinate, sub-dimensionality) request onto building
    blocks (Eq. 5). Blocks are emitted in row-major grid order."""
    space.validate_request(coordinate, sub_dim)
    origin = space.request_origin(coordinate, sub_dim)
    return translate_region(space, origin, tuple(sub_dim))


def check_region(origin: Sequence[int], extents: Sequence[int],
                 dims: Sequence[int]) -> None:
    """Raise ``ValueError`` unless ``[origin, origin + extents)`` is a
    non-empty region inside ``dims``, of the same rank."""
    if len(origin) != len(dims) or len(extents) != len(dims):
        raise ValueError("origin/extents rank mismatch")
    for axis, (o, f, d) in enumerate(zip(origin, extents, dims)):
        if f < 1 or o < 0 or o + f > d:
            raise ValueError(
                f"region [{o}, {o + f}) exceeds extent {d} on axis {axis}")


def translate_region(space: Space, origin: Sequence[int],
                     extents: Sequence[int]) -> List[BlockAccess]:
    """Raw-region variant of :func:`translate` (used by views, whose
    regions need not be partition-aligned).

    Results are memoized per Space keyed on ``(origin, extents)``:
    the mapping depends only on the space's immutable geometry, so a
    hit is always valid. Callers get a fresh list (the BlockAccess
    records themselves are frozen and shared)."""
    key = (tuple(origin), tuple(extents))
    cache = space._region_cache
    stats = space._translation_stats
    hit = cache.get(key)
    if hit is not None:
        stats["region_hits"] += 1
        _cache_stats["region_hits"] += 1
        cache.move_to_end(key)
        return list(hit)
    stats["region_misses"] += 1
    _cache_stats["region_misses"] += 1
    check_region(origin, extents, space.dims)
    axis_ranges = []
    for o, f, bb in zip(origin, extents, space.bb):
        first = o // bb
        last = (o + f - 1) // bb
        axis_ranges.append(range(first, last + 1))

    accesses: List[BlockAccess] = []
    for block_coord in itertools.product(*axis_ranges):
        block_slice = []
        out_slice = []
        for axis, y in enumerate(block_coord):
            bb = space.bb[axis]
            lo = max(origin[axis], y * bb)
            hi = min(origin[axis] + extents[axis], (y + 1) * bb)
            block_slice.append((lo - y * bb, hi - y * bb))
            out_slice.append((lo - origin[axis], hi - origin[axis]))
        accesses.append(BlockAccess(
            block_coord=tuple(block_coord),
            block_slice=tuple(block_slice),
            out_slice=tuple(out_slice),
        ))
    _remember(cache, key, tuple(accesses))
    return accesses


def pages_for_region(space: Space,
                     block_slice: Sequence[Tuple[int, int]]) -> List[int]:
    """Page positions (0-based within the block) that a block region
    touches. Elements are row-major inside the block; pages split that
    byte stream sequentially.

    Memoized per Space keyed on ``block_slice`` (pure geometry, like
    :func:`translate_region`)."""
    key = tuple(tuple(pair) for pair in block_slice)
    cache = space._pages_cache
    stats = space._translation_stats
    hit = cache.get(key)
    if hit is not None:
        stats["pages_hits"] += 1
        _cache_stats["pages_hits"] += 1
        cache.move_to_end(key)
        return list(hit)
    stats["pages_misses"] += 1
    _cache_stats["pages_misses"] += 1
    bb = space.bb
    elem = space.element_size
    page = space.pages_per_block
    page_size_bytes = -(-space.block_bytes // page)
    full = all(start == 0 and stop == extent
               for (start, stop), extent in zip(block_slice, bb))
    if full:
        pages = list(range(page))
        _remember(cache, key, tuple(pages))
        return pages

    # Walk contiguous runs: fix all axes but the last, the last axis is a
    # contiguous span of bytes in the block's row-major layout.
    last_start, last_stop = block_slice[-1]
    run_bytes = (last_stop - last_start) * elem
    strides = [elem] * len(bb)
    for axis in range(len(bb) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * bb[axis + 1]

    page_set = set()
    outer_ranges = [range(start, stop) for start, stop in block_slice[:-1]]
    for outer in itertools.product(*outer_ranges):
        offset = last_start * elem
        for axis, index in enumerate(outer):
            offset += index * strides[axis]
        first_page = offset // page_size_bytes
        last_page = (offset + run_bytes - 1) // page_size_bytes
        page_set.update(range(first_page, last_page + 1))
    pages = sorted(page_set)
    _remember(cache, key, tuple(pages))
    return pages

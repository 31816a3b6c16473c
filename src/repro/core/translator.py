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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.space import Space

__all__ = ["BlockAccess", "translate", "translate_region",
           "check_region", "pages_for_region",
           "set_translation_cache_limit", "translation_cache_limit",
           "translation_cache_stats", "reset_translation_cache_stats"]

#: per-Space entry cap for each memo cache. Tile plans revisit a small
#: set of (origin, shape) pairs, so the working set is tiny; the cap
#: only guards pathological workloads that sweep millions of distinct
#: regions. 0 disables caching entirely (the knob the equivalence
#: tests use to A/B the cached path against the raw walk).
_DEFAULT_CACHE_LIMIT = 4096
_cache_limit = _DEFAULT_CACHE_LIMIT
_cache_stats = {"region_hits": 0, "region_misses": 0,
                "pages_hits": 0, "pages_misses": 0}

#: switch the vectorized page walk on above this many outer rows (the
#: numpy setup cost beats the scalar loop from roughly a dozen rows)
_VECTOR_THRESHOLD = 16


def set_translation_cache_limit(limit: int) -> None:
    """Set the per-Space translation cache capacity (entries per cache;
    0 disables memoization). A full cache evicts its least-recently-used
    entry — hits refresh recency — so a working set one entry over the
    cap degrades gracefully instead of thrashing from a wholesale
    clear."""
    global _cache_limit
    if limit < 0:
        raise ValueError("cache limit must be >= 0")
    _cache_limit = int(limit)


def translation_cache_limit() -> int:
    return _cache_limit


def translation_cache_stats(space: Optional[Space] = None) -> dict:
    """Hit/miss counters over both memo caches.

    With ``space`` given, that space's own counters; without, the
    process-wide aggregate across every space (the historical behaviour,
    kept as a compat shim — prefer :meth:`Space.translation_cache_stats`
    when comparing systems, since the aggregate mixes every space,
    system, and pooled device in the process)."""
    if space is not None:
        return space.translation_cache_stats()
    return dict(_cache_stats)


def reset_translation_cache_stats(space: Optional[Space] = None) -> None:
    """Zero the aggregate counters, or one space's with ``space``."""
    if space is not None:
        space.reset_translation_cache_stats()
        return
    for key in _cache_stats:
        _cache_stats[key] = 0


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
    if _cache_limit:
        while len(cache) >= _cache_limit:
            cache.popitem(last=False)
        cache[key] = tuple(accesses)
    return accesses


def pages_for_region(space: Space,
                     block_slice: Sequence[Tuple[int, int]]) -> List[int]:
    """Page positions (0-based within the block) that a block region
    touches. Elements are row-major inside the block; pages split that
    byte stream sequentially.

    Memoized per Space keyed on ``block_slice`` (pure geometry, like
    :func:`translate_region`); large regions take a numpy-vectorized
    walk over the outer rows instead of the per-row Python loop."""
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
        if _cache_limit:
            while len(cache) >= _cache_limit:
                cache.popitem(last=False)
            cache[key] = tuple(pages)
        return pages

    # Walk contiguous runs: fix all axes but the last, the last axis is a
    # contiguous span of bytes in the block's row-major layout.
    last_start, last_stop = block_slice[-1]
    run_bytes = (last_stop - last_start) * elem
    strides = [elem] * len(bb)
    for axis in range(len(bb) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * bb[axis + 1]

    outer_rows = 1
    for start, stop in block_slice[:-1]:
        outer_rows *= stop - start
    if outer_rows >= _VECTOR_THRESHOLD:
        pages = _pages_vectorized(block_slice, strides, last_start, elem,
                                  run_bytes, page_size_bytes)
    else:
        page_set = set()
        outer_ranges = [range(start, stop)
                        for start, stop in block_slice[:-1]]
        for outer in itertools.product(*outer_ranges):
            offset = last_start * elem
            for axis, index in enumerate(outer):
                offset += index * strides[axis]
            first_page = offset // page_size_bytes
            last_page = (offset + run_bytes - 1) // page_size_bytes
            page_set.update(range(first_page, last_page + 1))
        pages = sorted(page_set)
    if _cache_limit:
        while len(cache) >= _cache_limit:
            cache.popitem(last=False)
        cache[key] = tuple(pages)
    return pages


def _pages_vectorized(block_slice: Sequence[Tuple[int, int]],
                      strides: Sequence[int], last_start: int, elem: int,
                      run_bytes: int, page_size_bytes: int) -> List[int]:
    """Vectorized equivalent of the per-row offset walk: build every
    outer-row byte offset with broadcast adds, then map run start/end
    bytes to page indices in bulk. Integer math throughout, so the
    result is identical to the scalar walk."""
    offsets = np.asarray([last_start * elem], dtype=np.int64)
    for (start, stop), stride in zip(block_slice[:-1], strides[:-1]):
        axis = np.arange(start, stop, dtype=np.int64) * stride
        offsets = (offsets[:, None] + axis[None, :]).ravel()
    first = offsets // page_size_bytes
    last = (offsets + (run_bytes - 1)) // page_size_bytes
    if int((last - first).max()) == 0:
        touched = _sorted_unique(first)
    else:
        spans = [np.arange(f, l + 1, dtype=np.int64)
                 for f, l in zip(first.tolist(), last.tolist())]
        touched = _sorted_unique(np.concatenate(spans))
    return touched.tolist()


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int array. Same result as
    ``np.unique``, without it: ``np.unique`` drags in the lazily-imported
    ``numpy.ma`` machinery (a ~30 ms one-time stall that lands on the
    first translated region of a run) and carries masked/axis handling
    this hot path never needs."""
    if values.size == 0:
        return values
    ordered = np.sort(values)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]

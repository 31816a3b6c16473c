"""The NDS application programming interface (§5.1).

Three categories of calls, mirroring the paper:

* **space creation/management** — ``create_space`` (and
  ``delete_space``), which trigger the STL to size building blocks and
  build the translation structures;
* **open/close** — ``open_space`` hands the application's *view* of the
  space to NDS and returns a dynamic handle; ``close_space`` reclaims
  it;
* **read/write** — coordinate + sub-dimensionality addressed data
  movement between application numpy arrays and the device.

Applications work in their own dtype; the API converts to the STL's
element-granular byte representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import SpaceClosedError, ViewVolumeError
from repro.core.space import Space
from repro.core.stl import SpaceTranslationLayer, StlOpResult
from repro.core.views import IdentityView, RegionMap, ReshapeView, View

__all__ = ["NdsHandle", "NdsApi", "array_to_bytes", "bytes_to_array"]


def array_to_bytes(array: np.ndarray) -> np.ndarray:
    """Element-granular uint8 view: shape ``(*array.shape, itemsize)``."""
    contiguous = np.ascontiguousarray(array)
    return contiguous.view(np.uint8).reshape(
        contiguous.shape + (contiguous.dtype.itemsize,))


def bytes_to_array(raw: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`array_to_bytes`."""
    dtype = np.dtype(dtype)
    if raw.shape[-1] != dtype.itemsize:
        raise ValueError(
            f"byte axis {raw.shape[-1]} != dtype itemsize {dtype.itemsize}")
    shape = raw.shape[:-1]
    return np.ascontiguousarray(raw).reshape(-1).view(dtype).reshape(shape)


@dataclass
class NdsHandle:
    """A dynamic space ID bound to one application view (§5.3.1:
    "the software system can use the space ID to distinguish between
    different views an application uses for the space")."""

    handle_id: int
    space_id: int
    view: View
    closed: bool = False

    @property
    def dims(self) -> Tuple[int, ...]:
        return self.view.dims


class NdsApi:
    """User-facing front end over one STL instance."""

    def __init__(self, stl: SpaceTranslationLayer) -> None:
        self.stl = stl
        self._handles: Dict[int, NdsHandle] = {}
        self._next_handle = 1

    # ------------------------------------------------------------------
    # space creation / management
    # ------------------------------------------------------------------
    def create_space(self, dims: Sequence[int], element_size: int,
                     bb_override: Optional[Sequence[int]] = None,
                     use_3d_blocks: bool = False) -> int:
        space = self.stl.create_space(dims, element_size,
                                      bb_override=bb_override,
                                      use_3d_blocks=use_3d_blocks)
        return space.space_id

    def resize_space(self, space_id: int, new_dims) -> int:
        """§5.1: calling space management with an existing identifier
        expands or shrinks the space. Open handles keep working for the
        regions that remain in bounds."""
        return self.stl.resize_space(space_id, new_dims).space_id

    def delete_space(self, space_id: int) -> int:
        for handle in self._handles.values():
            if handle.space_id == space_id:
                handle.closed = True
        return self.stl.delete_space(space_id)

    def space(self, space_id: int) -> Space:
        return self.stl.get_space(space_id)

    # ------------------------------------------------------------------
    # open / close
    # ------------------------------------------------------------------
    def open_space(self, space_id: int,
                   view: Union[None, Sequence[int], View] = None) -> NdsHandle:
        """Open a space under a view.

        ``view`` may be None (producer's own dims), a dimensionality
        tuple (identity when equal to the space dims, row-major reshape
        otherwise — volumes must match, §3), or a :class:`View`.
        """
        space = self.stl.get_space(space_id)
        if view is None:
            resolved: View = IdentityView(space.dims)
        elif isinstance(view, View):
            resolved = view
        else:
            dims = tuple(int(d) for d in view)
            if dims == space.dims:
                resolved = IdentityView(space.dims)
            else:
                resolved = ReshapeView(space.dims, dims)
        volume = 1
        for extent in resolved.dims:
            volume *= extent
        if volume != space.volume:
            raise ViewVolumeError(
                f"view volume {volume} != space volume {space.volume}")
        handle = NdsHandle(handle_id=self._next_handle, space_id=space_id,
                           view=resolved)
        self._next_handle += 1
        self._handles[handle.handle_id] = handle
        space.open_views += 1
        return handle

    def close_space(self, handle: NdsHandle) -> None:
        if handle.closed:
            raise SpaceClosedError(f"handle {handle.handle_id} already closed")
        handle.closed = True
        space = self.stl.spaces.get(handle.space_id)
        if space is not None and space.open_views > 0:
            space.open_views -= 1
        self._handles.pop(handle.handle_id, None)

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------
    def read(self, handle: NdsHandle, coordinate: Sequence[int],
             sub_dim: Sequence[int], start_time: float = 0.0,
             dtype: Optional[np.dtype] = None,
             ) -> Tuple[Optional[np.ndarray], StlOpResult]:
        """Read the partition at ``coordinate`` (of shape ``sub_dim``)
        under the handle's view. Returns (array, timing)."""
        self._check_open(handle)
        origin, extents = self._partition(handle, coordinate, sub_dim)
        space = self.stl.get_space(handle.space_id)
        regions = handle.view.resolve(origin, extents)
        out = None
        if self.stl.flash.store_data:
            out = np.zeros(tuple(extents) + (space.element_size,),
                           dtype=np.uint8)
        total = StlOpResult(start_time=start_time, end_time=start_time)
        for region in regions:
            part = self.stl.read_region(handle.space_id,
                                        region.producer_origin,
                                        region.producer_extents,
                                        start_time=start_time,
                                        with_data=out is not None)
            total.blocks.extend(part.blocks)
            total.end_time = max(total.end_time, part.end_time)
            if out is not None and part.data is not None:
                self._place(out, region, part.data)
        if out is None:
            return None, total
        if dtype is None:
            return out, total
        return bytes_to_array(out, dtype), total

    def write(self, handle: NdsHandle, coordinate: Sequence[int],
              sub_dim: Sequence[int], array: Optional[np.ndarray] = None,
              start_time: float = 0.0) -> StlOpResult:
        """Write a partition under the handle's view; ``array`` (shaped
        ``sub_dim``) may be None for timing-only runs."""
        self._check_open(handle)
        origin, extents = self._partition(handle, coordinate, sub_dim)
        raw = None
        if array is not None:
            if tuple(array.shape) != tuple(extents):
                raise ValueError(
                    f"array shape {array.shape} != sub-dimensionality {extents}")
            raw = array_to_bytes(array)
        regions = handle.view.resolve(origin, extents)
        total = StlOpResult(start_time=start_time, end_time=start_time)
        for region in regions:
            payload = None
            if raw is not None:
                payload = self._extract(raw, region)
            part = self.stl.write_region(handle.space_id,
                                         region.producer_origin,
                                         region.producer_extents,
                                         data=payload,
                                         start_time=start_time)
            total.blocks.extend(part.blocks)
            total.end_time = max(total.end_time, part.end_time)
        return total

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _check_open(handle: NdsHandle) -> None:
        if handle.closed:
            raise SpaceClosedError(f"handle {handle.handle_id} is closed")

    @staticmethod
    def _partition(handle: NdsHandle, coordinate: Sequence[int],
                   sub_dim: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        from repro.core.errors import InvalidCoordinateError
        dims = handle.view.dims
        if len(coordinate) != len(dims) or len(sub_dim) != len(dims):
            raise InvalidCoordinateError(
                f"request rank does not match view rank {len(dims)}")
        origin = []
        for axis, (c, f, d) in enumerate(zip(coordinate, sub_dim, dims)):
            if f < 1 or c < 0 or (c + 1) * f > d:
                raise InvalidCoordinateError(
                    f"partition {c}×{f} on axis {axis} exceeds extent {d}")
            origin.append(c * f)
        return tuple(origin), tuple(sub_dim)

    @staticmethod
    def _place(out: np.ndarray, region: RegionMap, data: np.ndarray) -> None:
        """Scatter a producer region's data into the consumer buffer."""
        target = tuple(slice(o, o + e)
                       for o, e in zip(region.out_origin, region.out_extents))
        out[target] = data.reshape(tuple(region.out_extents) + (out.shape[-1],))

    @staticmethod
    def _extract(raw: np.ndarray, region: RegionMap) -> np.ndarray:
        """Gather a producer region's payload from the consumer buffer."""
        source = tuple(slice(o, o + e)
                       for o, e in zip(region.out_origin, region.out_extents))
        chunk = raw[source]
        return np.ascontiguousarray(chunk).reshape(
            tuple(region.producer_extents) + (raw.shape[-1],))

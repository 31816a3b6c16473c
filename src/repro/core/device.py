"""The NDS-compliant storage device, driven by binary NVMe commands.

This facade closes the §5.3 loop: 64-byte submission-queue entries (and
their coordinate payload pages) go in, the controller pipeline and the
STL execute them, completions come out. Backwards compatibility is the
paper's: "Upon receiving a conventional NVMe command, NDS simply treats
the request as a request to a one-dimensional address space" — plain
READ/WRITE land in an implicit 1-D space covering the device's logical
capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.api import array_to_bytes, bytes_to_array
from repro.core.controller import NdsController
from repro.core.errors import FaultError, NdsError, PayloadError
from repro.core.stl import SpaceTranslationLayer
from repro.interconnect.encoding import EncodedCommand, decode_command
from repro.interconnect.nvme import NvmeOpcode
from repro.nvm.flash import FlashArray
from repro.nvm.profiles import DeviceProfile

__all__ = ["NdsDevice", "Completion"]


@dataclass
class Completion:
    """One completion-queue entry."""

    opcode: NvmeOpcode
    status: str                 # "ok" | error string
    end_time: float
    space_id: int = 0
    data: Optional[np.ndarray] = None
    fields: Dict[str, object] = field(default_factory=dict)

    @property
    def success(self) -> bool:
        return self.status == "ok"


class NdsDevice:
    """An NDS SSD consuming :class:`EncodedCommand` submissions."""

    def __init__(self, profile: DeviceProfile,
                 store_data: bool = True) -> None:
        self.profile = profile
        self.flash = FlashArray(profile.geometry, profile.timing,
                                store_data=store_data)
        self.stl = SpaceTranslationLayer(self.flash,
                                         gc_threshold=profile.overprovisioning)
        self.controller = NdsController()
        self._linear_space_id: Optional[int] = None

    # ------------------------------------------------------------------
    def submit(self, command: EncodedCommand, start_time: float = 0.0,
               payload: Optional[np.ndarray] = None) -> Completion:
        """Execute one submission-queue entry.

        ``payload`` carries write data (an array shaped like the
        command's sub-dimensionality; 1-D bytes for conventional
        writes).
        """
        try:
            opcode, space_id, details = decode_command(command)
        except ValueError as error:
            return Completion(opcode=NvmeOpcode.READ, status=str(error),
                              end_time=start_time)
        handled = self.controller.handle_command(start_time)
        try:
            if opcode == NvmeOpcode.OPEN_SPACE:
                return self._open_space(details, handled)
            if opcode == NvmeOpcode.CLOSE_SPACE:
                return Completion(opcode=opcode, status="ok",
                                  end_time=handled, space_id=space_id)
            if opcode == NvmeOpcode.DELETE_SPACE:
                released = self.stl.delete_space(space_id)
                return Completion(opcode=opcode, status="ok",
                                  end_time=handled, space_id=space_id,
                                  fields={"units_released": released})
            if opcode == NvmeOpcode.ND_READ:
                coordinate, sub_dim = details
                return self._nd_read(space_id, coordinate, sub_dim, handled)
            if opcode == NvmeOpcode.ND_WRITE:
                coordinate, sub_dim = details
                return self._nd_write(space_id, coordinate, sub_dim,
                                      payload, handled)
            if opcode == NvmeOpcode.READ:
                lba, length = details
                return self._linear_read(lba, length, handled)
            if opcode == NvmeOpcode.WRITE:
                lba, length = details
                return self._linear_write(lba, length, payload, handled)
            return Completion(opcode=opcode,
                              status=f"unsupported opcode {opcode}",
                              end_time=handled)
        except (NdsError, FaultError) as error:
            # typed storage failures surface as failed completions;
            # programming errors (TypeError, stray KeyError, ...)
            # propagate so bugs are not silently swallowed
            return Completion(opcode=opcode, status=str(error),
                              end_time=handled, space_id=space_id)

    # ------------------------------------------------------------------
    def _open_space(self, dims, now: float) -> Completion:
        space = self.stl.create_space(dims, element_size=4)
        return Completion(opcode=NvmeOpcode.OPEN_SPACE, status="ok",
                          end_time=now, space_id=space.space_id,
                          fields={"building_block": space.bb})

    def _nd_read(self, space_id: int, coordinate, sub_dim,
                 now: float) -> Completion:
        space = self.stl.get_space(space_id)
        accesses = self.stl.plan(space_id, coordinate, sub_dim)
        translated = self.controller.translate(now, space.rank,
                                               len(accesses))
        result = self.stl.read(space_id, coordinate, sub_dim,
                               start_time=translated,
                               with_data=self.flash.store_data)
        assembled = self.controller.assemble(
            result.end_time,
            int(np.prod(sub_dim)) * space.element_size,
            result.pages_touched)
        return Completion(opcode=NvmeOpcode.ND_READ, status="ok",
                          end_time=assembled, space_id=space_id,
                          data=result.data)

    def _nd_write(self, space_id: int, coordinate, sub_dim,
                  payload: Optional[np.ndarray], now: float) -> Completion:
        space = self.stl.get_space(space_id)
        accesses = self.stl.plan(space_id, coordinate, sub_dim)
        translated = self.controller.translate(now, space.rank,
                                               len(accesses))
        raw = None
        if payload is not None and self.flash.store_data:
            array = np.ascontiguousarray(np.asarray(payload))
            if tuple(array.shape) != tuple(sub_dim):
                raise PayloadError(
                    f"payload shape {array.shape} != sub-dim {sub_dim}")
            if array.dtype.itemsize != space.element_size:
                raise PayloadError("payload itemsize != space element size")
            raw = array_to_bytes(array)
        result = self.stl.write(space_id, coordinate, sub_dim, data=raw,
                                start_time=translated)
        return Completion(opcode=NvmeOpcode.ND_WRITE, status="ok",
                          end_time=result.end_time, space_id=space_id)

    # -- conventional 1-D compatibility (§5.3.1) ------------------------
    def _linear_space(self) -> int:
        if self._linear_space_id is None:
            logical_bytes = int(self.profile.geometry.capacity_bytes
                                * (1.0 - self.profile.overprovisioning))
            space = self.stl.create_space((logical_bytes,), element_size=1)
            self._linear_space_id = space.space_id
        return self._linear_space_id

    def _linear_read(self, lba: int, length: int, now: float) -> Completion:
        page = self.profile.geometry.page_size
        result = self.stl.read_region(self._linear_space(),
                                      (lba * page,), (length * page,),
                                      start_time=now,
                                      with_data=self.flash.store_data)
        data = None
        if result.data is not None:
            data = bytes_to_array(result.data, np.uint8)
        return Completion(opcode=NvmeOpcode.READ, status="ok",
                          end_time=result.end_time, data=data)

    def _linear_write(self, lba: int, length: int,
                      payload: Optional[np.ndarray],
                      now: float) -> Completion:
        page = self.profile.geometry.page_size
        raw = None
        if payload is not None and self.flash.store_data:
            flat = np.ascontiguousarray(np.asarray(payload),
                                        dtype=np.uint8).ravel()
            if flat.size != length * page:
                raise PayloadError(
                    f"payload of {flat.size} B != {length} pages")
            raw = array_to_bytes(flat)
        result = self.stl.write_region(self._linear_space(),
                                       (lba * page,), (length * page,),
                                       data=raw, start_time=now)
        return Completion(opcode=NvmeOpcode.WRITE, status="ok",
                          end_time=result.end_time)

"""After an ingest and an overwrite, a system holds no
``PhysicalPageAddress``: the FTL map, every ``BlockEntry.pages`` slot
and ``last_alloc``, and the parity store hold plain int page indices.
Each live page's owner slot names the map entry, leaf slot or parity
unit that holds its index, and the live slots are exactly those.
Decoding to an address happens only at the edge, in typed fault
errors."""

from __future__ import annotations

import gc
import types

import numpy as np
import pytest

from repro.faults import FaultConfig
from repro.nvm import TINY_TEST, PhysicalPageAddress
from repro.systems import BaselineSystem, HardwareNdsSystem, SoftwareNdsSystem
from tests.owner_slots import live_slots

#: referents the walk does not follow: code and its globals reach the
#: whole interpreter, not the system
_OPAQUE = (type, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType, types.CodeType)


def _reachable(root) -> list:
    """Every object ``gc.get_referents`` reaches from ``root`` without
    passing through a type, a module or a function."""
    seen = {id(root)}
    found = [root]
    stack = [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if isinstance(ref, _OPAQUE) or id(ref) in seen:
                continue
            seen.add(id(ref))
            found.append(ref)
            stack.append(ref)
    return found


def _ingested(system_cls, **kwargs):
    system = system_cls(TINY_TEST, store_data=True, **kwargs)
    rng = np.random.default_rng(7)
    data = rng.integers(0, 2**31, (64, 64)).astype(np.int32)
    system.ingest("m", (64, 64), 4, data=data)
    system.write_tile("m", (0, 0), (32, 64), data=data[:32])
    return system


def test_baseline_holds_page_indices_only():
    system = _ingested(BaselineSystem)
    ssd = system.ssd
    assert ssd.ftl.map
    assert all(type(ppa) is int for ppa in ssd.ftl.map.values())
    slots = list(live_slots(ssd.ftl.planes))
    for ppa, lpn in slots:
        assert ssd.ftl.map[lpn] == ppa
    assert len(slots) == len(ssd.ftl.map)
    assert not [obj for obj in _reachable(system)
                if type(obj) is PhysicalPageAddress]


@pytest.mark.parametrize("system_cls", [SoftwareNdsSystem,
                                        HardwareNdsSystem],
                         ids=["software", "hardware"])
def test_nds_systems_hold_page_indices_only(system_cls):
    system = _ingested(system_cls, faults=FaultConfig(parity=True))
    stl = system.stl
    leaves = {}
    units = 0
    for index in stl.indexes.values():
        for entry in index.iter_entries():
            assert type(entry.last_alloc) is int
            for position, ppa in enumerate(entry.pages):
                if ppa is not None:
                    assert type(ppa) is int
                    leaves[ppa] = (entry, position)
                    units += 1
    parity = [ppa for space_id in stl.indexes
              for _coord, ppa in stl.parity.iter_space(space_id)]
    assert parity and all(type(ppa) is int for ppa in parity)
    slots = dict(live_slots(stl.allocator.planes))
    for ppa, owner in slots.items():
        if isinstance(owner, tuple):
            assert stl.parity.get(*owner) == ppa
        else:
            # the owner is the entry object the index holds, not a
            # copy, and its leaf holds the page at that slot's position
            entry, position = leaves[ppa]
            assert owner is entry
            assert owner.pages.index(ppa) == position
    assert len(slots) == units + len(parity)
    assert not [obj for obj in _reachable(system)
                if type(obj) is PhysicalPageAddress]

"""After an ingest and an overwrite, a system holds no
``PhysicalPageAddress``: the FTL map, both GC reverse tables, every
``BlockEntry.pages`` slot and ``last_alloc``, and the parity store hold
plain int page indices, and an owner's slot and its reverse key are one
int object. Decoding to an address happens only at the edges (fault
errors, the flash array's public page methods)."""

from __future__ import annotations

import gc
import types

import numpy as np
import pytest

from repro.faults import FaultConfig
from repro.nvm import TINY_TEST, PhysicalPageAddress
from repro.systems import BaselineSystem, HardwareNdsSystem, SoftwareNdsSystem

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


def _key_ids(table: dict) -> set:
    return {id(key) for key in table}


def test_baseline_holds_page_indices_only():
    system = _ingested(BaselineSystem)
    ssd = system.ssd
    assert ssd.ftl.map
    reverse_keys = _key_ids(ssd.gc.reverse)
    for lpn, ppa in ssd.ftl.map.items():
        assert type(ppa) is int
        assert ssd.gc.reverse[ppa] == lpn
        assert id(ppa) in reverse_keys
    assert all(type(key) is int for key in ssd.gc.reverse)
    assert not [obj for obj in _reachable(system)
                if type(obj) is PhysicalPageAddress]


@pytest.mark.parametrize("system_cls", [SoftwareNdsSystem,
                                        HardwareNdsSystem],
                         ids=["software", "hardware"])
def test_nds_systems_hold_page_indices_only(system_cls):
    system = _ingested(system_cls, faults=FaultConfig(parity=True))
    stl = system.stl
    reverse = stl.gc.reverse
    reverse_keys = _key_ids(reverse)
    slots = 0
    for index in stl.indexes.values():
        for entry in index.iter_entries():
            assert type(entry.last_alloc) is int
            for position, ppa in enumerate(entry.pages):
                if ppa is None:
                    continue
                assert type(ppa) is int
                assert reverse[ppa].entry is entry
                assert reverse[ppa].position == position
                assert id(ppa) in reverse_keys
                slots += 1
    parity = [ppa for space_id in stl.indexes
              for _coord, ppa in stl.parity.iter_space(space_id)]
    assert parity and all(type(ppa) is int for ppa in parity)
    assert all(id(ppa) in reverse_keys for ppa in parity)
    assert len(reverse) == slots + len(parity)
    assert not [obj for obj in _reachable(system)
                if type(obj) is PhysicalPageAddress]

"""Readers of the erase blocks' owner slots shared by the tests.

Each ``BlockState.owners`` slot holds its page's owner (an FTL page's
LPN, an STL data unit's leaf ``BlockEntry``, a parity unit's
``(space_id, coord)`` key) or None while the page is free or invalid.
These helpers walk the slots and rebuild the sorted reverse rows the
golden files pin. LPN 0 is an owner, so a slot is tested with
``is None``."""

from __future__ import annotations

from repro.faults import PARITY_POSITION


def live_slots(planes):
    """``(page index, owner)`` of every filled owner slot."""
    for plane in planes.values():
        pages_per_block = plane.geometry.pages_per_block
        for block, state in plane.blocks.items():
            base = plane.base + block * pages_per_block
            for page, owner in enumerate(state.owners):
                if owner is not None:
                    yield base + page, owner


def assert_live_counts(planes) -> None:
    """Every block's ``live`` equals its number of filled slots."""
    for plane in planes.values():
        for block, state in plane.blocks.items():
            assert state.live == sum(owner is not None
                                     for owner in state.owners), \
                (plane.key, block)


def live_units(planes) -> int:
    """The filled owner slots of every block, by the blocks' counts."""
    return sum(state.live for plane in planes.values()
               for state in plane.blocks.values())


def ftl_reverse_rows(planes) -> list:
    """The FTL's reverse rows ``[page index, lpn]``, sorted."""
    return sorted([idx, lpn] for idx, lpn in live_slots(planes))


def stl_reverse_rows(stl) -> list:
    """The STL's reverse rows ``[page index, space_id, coord,
    position]``, sorted: a leaf owns its data units, a ``(space_id,
    coord)`` key its parity unit (at ``PARITY_POSITION``)."""
    space_of = {id(entry): space_id
                for space_id, index in stl.indexes.items()
                for entry in index.iter_entries()}
    rows = []
    for idx, owner in live_slots(stl.allocator.planes):
        if isinstance(owner, tuple):
            rows.append([idx, owner[0], list(owner[1]), PARITY_POSITION])
        else:
            rows.append([idx, space_of[id(owner)], list(owner.coord),
                         owner.pages.index(idx)])
    return sorted(rows)

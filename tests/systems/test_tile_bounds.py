"""Every system refuses a tile that is empty or leaves the dataset.

The NDS systems get the check from the STL's translator; the linear
systems (baseline and oracle) make the same check before they issue a
request, so an empty tile fetches nothing and an over-the-end tile
reads nothing past the dataset or the oracle's stored grid.
"""

import pytest

from repro.nvm import TINY_TEST
from repro.systems import (BaselineSystem, HardwareNdsSystem, OracleSystem,
                           SoftwareNdsSystem)

SYSTEMS = {"baseline": BaselineSystem, "software": SoftwareNdsSystem,
           "hardware": HardwareNdsSystem, "oracle": OracleSystem}
#: (origin, extents) of tiles outside the 16 x 16 dataset
OUTSIDE = {
    "zero-rows": ((0, 0), (4, 0)),
    "zero-cols": ((0, 0), (0, 4)),
    "negative-origin": ((-4, 0), (4, 4)),
    "past-the-end": ((16, 0), (4, 4)),
    "over-the-end": ((12, 14), (4, 4)),
}


@pytest.mark.parametrize("tile", OUTSIDE.values(), ids=OUTSIDE.keys())
@pytest.mark.parametrize("name", SYSTEMS)
def test_out_of_range_tile_is_refused(name, tile):
    system = SYSTEMS[name](TINY_TEST, store_data=True)
    params = {"tile": (4, 4)} if name == "oracle" else {}
    system.ingest("m", (16, 16), 4, **params)
    origin, extents = tile
    with pytest.raises(ValueError, match="exceeds extent 16 on axis"):
        system.read_tile("m", origin, extents)
    with pytest.raises(ValueError, match="exceeds extent 16 on axis"):
        system.write_tile("m", origin, extents)
    # an in-range tile still goes through
    assert system.read_tile("m", (12, 12), (4, 4)).requests > 0

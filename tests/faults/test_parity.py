"""Cross-channel parity groups: degraded reads, reconstruction, and
parity-unit lifecycle across all four systems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SpaceTranslationLayer
from repro.core.api import array_to_bytes
from repro.core.errors import DegradedReadError, UncorrectableError
from repro.faults import FaultConfig, FaultInjector, FaultPlan
from repro.faults.parity import xor_fold
from repro.nvm import FlashArray, TINY_TEST, index_to_ppa
from repro.systems import (BaselineSystem, HardwareNdsSystem, OracleSystem,
                           SoftwareNdsSystem)

N = 64  # dataset edge; 64*64 B = 16 pages on the tiny profile


def _data(seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 256, size=(N, N), dtype=np.uint8).astype(np.uint8)


def _corrupt_config(parity: bool) -> FaultConfig:
    """Scripted corruption of the first programmed page, firing between
    ingest and the read."""
    return FaultConfig(parity=parity,
                       plan=FaultPlan().corrupt_page(0, 0, 0, 0, at=0.01))


class TestXorFold:
    def test_reconstruction_identity(self):
        rng = np.random.default_rng(3)
        block = rng.integers(0, 256, size=4 * 256, dtype=np.uint8
                             ).astype(np.uint8)
        pages = block.reshape(-1, 256)
        parity = xor_fold(block, 256)
        for lost in range(4):
            survivors = np.concatenate(
                [pages[:lost].ravel(), pages[lost + 1:].ravel(), parity])
            assert np.array_equal(xor_fold(survivors, 256), pages[lost])


@pytest.mark.parametrize("system_cls", [SoftwareNdsSystem, HardwareNdsSystem])
class TestNdsReconstruction:
    def test_corrupt_unit_is_reconstructed(self, system_cls):
        """The full chain: retry ladder -> ECC gives up -> parity
        reconstruction -> relocation; the host still gets its bytes."""
        data = _data()
        system = system_cls(TINY_TEST, store_data=True,
                            faults=_corrupt_config(parity=True))
        system.ingest("d", (N, N), 1, data=data)
        result = system.read_tile("d", (0, 0), (N, N), start_time=0.1,
                                  with_data=True)
        assert np.array_equal(result.data.reshape(N, N), data)
        counters = system.flash.faults.counters()
        assert counters["plan_pages_corrupted"] == 1
        assert counters["uncorrectable_reads"] == 1
        assert counters["read_retries"] == len(
            FaultConfig().retry_sense_factors)
        assert counters["stl_degraded_reads"] == 1
        assert counters["stl_pages_reconstructed"] == 1

    def test_relocation_makes_the_next_read_clean(self, system_cls):
        data = _data()
        system = system_cls(TINY_TEST, store_data=True,
                            faults=_corrupt_config(parity=True))
        system.ingest("d", (N, N), 1, data=data)
        system.read_tile("d", (0, 0), (N, N), start_time=0.1, with_data=True)
        before = system.flash.faults.counters()["stl_degraded_reads"]
        again = system.read_tile("d", (0, 0), (N, N), start_time=0.2,
                                 with_data=True)
        assert np.array_equal(again.data.reshape(N, N), data)
        assert system.flash.faults.counters()["stl_degraded_reads"] == before

    def test_without_parity_the_error_surfaces(self, system_cls):
        system = system_cls(TINY_TEST, store_data=True,
                            faults=_corrupt_config(parity=False))
        system.ingest("d", (N, N), 1, data=_data())
        with pytest.raises(UncorrectableError):
            system.read_tile("d", (0, 0), (N, N), start_time=0.1,
                             with_data=True)

    def test_channel_kill_exceeds_single_parity(self, system_cls):
        """A dead channel loses several units of a 16-unit block — more
        than one XOR unit can cover, so the typed degraded error
        surfaces (the documented single-failure assumption)."""
        config = FaultConfig(parity=True,
                             plan=FaultPlan().kill_channel(0, at=0.01))
        system = system_cls(TINY_TEST, store_data=True, faults=config)
        system.ingest("d", (N, N), 1, data=_data())
        with pytest.raises((DegradedReadError, UncorrectableError)):
            system.read_tile("d", (0, 0), (N, N), start_time=0.1,
                             with_data=True)


@pytest.mark.parametrize("system_cls", [BaselineSystem, OracleSystem])
class TestConventionalSystemsSurfaceTypedErrors:
    def test_corruption_is_uncorrectable(self, system_cls):
        system = system_cls(TINY_TEST, store_data=True,
                            faults=_corrupt_config(parity=False))
        system.ingest("d", (N, N), 1, data=_data())
        with pytest.raises(UncorrectableError) as info:
            system.read_tile("d", (0, 0), (N, N), start_time=0.1,
                             with_data=True)
        assert info.value.reason == "corrupt"
        assert info.value.fail_time > 0.1


class TestParityLifecycle:
    def _stl(self) -> SpaceTranslationLayer:
        flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                           store_data=True)
        return SpaceTranslationLayer(flash, parity=True)

    def test_writes_maintain_one_parity_unit_per_block(self):
        stl = self._stl()
        space = stl.create_space((N, N), 1)
        payload = _data()
        stl.write_region(space.space_id, (0, 0), (N, N),
                         data=array_to_bytes(payload))
        assert len(stl.parity) > 0
        assert stl.stats.counters["stl_parity_units_written"] >= len(stl.parity)

    def test_delete_space_releases_parity_units(self):
        stl = self._stl()
        space = stl.create_space((N, N), 1)
        stl.write_region(space.space_id, (0, 0), (N, N),
                         data=array_to_bytes(_data()))
        assert len(stl.parity) > 0
        stl.delete_space(space.space_id)
        assert len(stl.parity) == 0

    def test_relocation_re_places_on_a_grown_bad_block(self):
        """The reconstructed unit lands in a block that has gone bad:
        the relocation retires it and re-places the unit, so the read
        returns the written bytes and the next read is clean."""
        stl = self._stl()
        space = stl.create_space((32, 32), 4)
        data = np.random.default_rng(5).integers(
            0, 256, size=(32, 32, 4), dtype=np.uint8)
        stl.write_region(space.space_id, (0, 0), (32, 32), data=data)
        entry = next(stl.indexes[space.space_id].iter_entries())
        lost = index_to_ppa(entry.pages[0], stl.geometry)
        # a dry run shows the reconstructed unit lands in ch0/bk1/blk0,
        # the lost unit's own block
        assert (lost.channel, lost.bank, lost.block) == (0, 1, 0)
        plan = (FaultPlan()
                .corrupt_page(lost.channel, lost.bank, lost.block,
                              lost.page, at=0.01)
                .mark_block_bad(0, 1, 0, at=0.01))
        stl.flash.attach_faults(FaultInjector(FaultConfig(parity=True,
                                                          plan=plan)))
        for attempt in range(2):
            back = stl.read_region(space.space_id, (0, 0), (32, 32),
                                   start_time=0.1 + attempt)
            assert np.array_equal(back.data, data), attempt
        counters = stl.flash.faults.counters()
        assert counters["stl_degraded_reads"] == 1
        assert counters["grown_bad_blocks"] == 1
        now = index_to_ppa(entry.pages[0], stl.geometry)
        assert (now.channel, now.bank, now.block) != (0, 1, 0)

    def test_parity_rejects_incompatible_modes(self):
        flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                           store_data=False)
        with pytest.raises(ValueError):
            SpaceTranslationLayer(flash, parity=True)

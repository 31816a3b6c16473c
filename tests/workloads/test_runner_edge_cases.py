"""Runner edge cases: 3-D oracle copies, sampling, mixed shapes."""

import pytest

from repro.nvm.profiles import DeviceProfile
from repro.nvm import Geometry, NvmTiming
from repro.systems import BaselineSystem, OracleSystem
from repro.workloads import TtvWorkload, run_workload
from repro.workloads.runner import ingest_datasets, measure_io_times


@pytest.fixture
def midi_profile():
    """Bigger than TINY (for 3-D tensors) but still fast."""
    return DeviceProfile(
        name="midi",
        geometry=Geometry(channels=4, banks_per_channel=2,
                          blocks_per_bank=64, pages_per_block=16,
                          page_size=512),
        timing=NvmTiming(t_read=10e-6, t_program=100e-6, t_erase=500e-6,
                         channel_bandwidth=200e6, t_cmd=0.2e-6),
        link_bandwidth=2e9, link_command_overhead=2e-6,
        controller_command_time=1e-6, dram_bytes=2**20)


@pytest.fixture
def small_ttv():
    return TtvWorkload(rows=16, cols=16, depth=64, tile_rows=8,
                       tile_cols=8, tile_depth=32, max_tiles=8)


class TestOracle3d:
    def test_oracle_ingests_3d_tile_copies(self, midi_profile, small_ttv):
        oracle = OracleSystem(midi_profile, store_data=False)
        ingest_datasets([small_ttv], oracle)
        fetch = small_ttv.tile_plan()[0]
        oracle.reset_time()
        result = oracle.read_tile(fetch.dataset, fetch.origin,
                                  fetch.extents)
        assert result.useful_bytes == small_ttv.tile_bytes(fetch)

    def test_run_workload_on_oracle_3d(self, midi_profile, small_ttv):
        result = run_workload(small_ttv,
                              OracleSystem(midi_profile, store_data=False))
        assert result.total_time > 0
        assert result.tiles == len(small_ttv.tile_plan())


class TestSampling:
    def test_single_fetch_shape_still_measures(self, midi_profile,
                                               small_ttv):
        system = BaselineSystem(midi_profile, store_data=False)
        ingest_datasets([small_ttv], system)
        plan = small_ttv.tile_plan()[:1]
        times = measure_io_times(small_ttv, system, plan, samples=4)
        assert len(times) == 1
        assert next(iter(times.values())) > 0

    def test_more_samples_never_crash_on_short_plans(self, midi_profile,
                                                     small_ttv):
        system = BaselineSystem(midi_profile, store_data=False)
        ingest_datasets([small_ttv], system)
        plan = small_ttv.tile_plan()[:2]
        times = measure_io_times(small_ttv, system, plan, samples=9)
        assert all(t > 0 for t in times.values())

"""Tests for the pipelined workload runner."""

import pytest

from repro.nvm import TINY_TEST
from repro.systems import BaselineSystem, HardwareNdsSystem, OracleSystem
from repro.workloads import (GemmWorkload, ingest_datasets,
                             measure_io_times, run_workload, speedup)


@pytest.fixture
def small_gemm():
    # sized to fit the tiny test device (128 KiB raw capacity)
    return GemmWorkload(n=64, tile=16, max_tiles=12)


class TestIngest:
    def test_ingest_all_datasets(self, small_gemm):
        system = BaselineSystem(TINY_TEST, store_data=False)
        ingest_datasets([small_gemm], system)
        system.read_tile("A", (0, 0), (16, 16))
        system.read_tile("B", (0, 0), (16, 16))

    def test_oracle_gets_per_shape_copies(self, small_gemm):
        oracle = OracleSystem(TINY_TEST, store_data=False)
        ingest_datasets([small_gemm], oracle)
        oracle.read_tile("A", (16, 0), (16, 16))


class TestMeasurement:
    def test_io_times_per_shape(self, small_gemm):
        system = BaselineSystem(TINY_TEST, store_data=False)
        ingest_datasets([small_gemm], system)
        times = measure_io_times(small_gemm, system,
                                 small_gemm.tile_plan())
        assert set(times) == {("A", (16, 16)), ("B", (16, 16))}
        assert all(t > 0 for t in times.values())

    def test_streaming_time_below_isolated(self, small_gemm):
        """Steady-state streaming must not exceed isolated latency."""
        system = BaselineSystem(TINY_TEST, store_data=False)
        ingest_datasets([small_gemm], system)
        fetch = small_gemm.tile_plan()[0]
        system.reset_time()
        isolated = system.read_tile(fetch.dataset, fetch.origin,
                                    fetch.extents).elapsed
        times = measure_io_times(small_gemm, system,
                                 small_gemm.tile_plan())
        assert times[fetch.shape_key] <= isolated * 1.001


class TestRun:
    def test_run_produces_consistent_result(self, small_gemm):
        system = BaselineSystem(TINY_TEST, store_data=False)
        result = run_workload(small_gemm, system)
        assert result.tiles == len(small_gemm.tile_plan())
        assert result.total_time > 0
        assert result.total_time >= max(result.io_busy, result.h2d_busy,
                                        result.kernel_busy) * 0.99
        assert result.kernel_idle >= 0

    def test_speedup_of_identical_runs_is_one(self, small_gemm):
        a = run_workload(small_gemm,
                         BaselineSystem(TINY_TEST, store_data=False))
        b = run_workload(small_gemm,
                         BaselineSystem(TINY_TEST, store_data=False))
        assert speedup(a, b) == pytest.approx(1.0, rel=0.01)

    def test_nds_beats_baseline_on_tiled_gemm(self, small_gemm):
        base = run_workload(small_gemm,
                            BaselineSystem(TINY_TEST, store_data=False))
        nds = run_workload(small_gemm,
                           HardwareNdsSystem(TINY_TEST, store_data=False))
        assert speedup(base, nds) > 1.0

"""Tests for the NVMe command model and its NDS extension limits."""

import pytest

from repro.interconnect import NVME_LIMITS, NvmeOpcode, saturation_curve


class TestOpcode:
    def test_conventional_vs_extended(self):
        assert not NvmeOpcode.READ.is_extended
        assert not NvmeOpcode.WRITE.is_extended
        assert NvmeOpcode.ND_READ.is_extended
        assert NvmeOpcode.OPEN_SPACE.is_extended


class TestLimits:
    def test_up_to_32_dimensions(self):
        NVME_LIMITS.validate_dimensionality([2] * 32)
        with pytest.raises(ValueError):
            NVME_LIMITS.validate_dimensionality([2] * 33)

    def test_dimension_size_bounds(self):
        NVME_LIMITS.validate_dimensionality([2**64])
        with pytest.raises(ValueError):
            NVME_LIMITS.validate_dimensionality([2**64 + 1])
        with pytest.raises(ValueError):
            NVME_LIMITS.validate_dimensionality([0])

    def test_empty_dimensionality(self):
        with pytest.raises(ValueError):
            NVME_LIMITS.validate_dimensionality([])


class TestSaturationCurve:
    def test_curve_rises_and_saturates(self):
        curve = saturation_curve(5e9, 3.4e-6,
                                 [4096, 32768, 2**20, 2 * 2**20, 16 * 2**20])
        rates = [rate for _size, rate in curve]
        assert rates == sorted(rates)
        assert rates[-1] / 5e9 > 0.98

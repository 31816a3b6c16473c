"""Tests for the link model — including the paper's [P2] anchors."""

import pytest

from repro.interconnect import Link
from repro.nvm import PAPER_PROTOTYPE


def _efficiency(request_bytes: int) -> float:
    """Fraction of peak the prototype's link reaches at one request
    size."""
    link = Link(PAPER_PROTOTYPE.link_bandwidth,
                PAPER_PROTOTYPE.link_command_overhead)
    return link.effective_bandwidth(request_bytes) / link.bandwidth


@pytest.fixture
def link():
    return Link(bandwidth=1e9, command_overhead=10e-6)


class TestTransfer:
    def test_duration(self, link):
        assert link.transfer_duration(1000) == pytest.approx(10e-6 + 1e-6)

    def test_transfers_serialize(self, link):
        first = link.transfer(1000, 0.0)
        second = link.transfer(1000, 0.0)
        assert second == pytest.approx(first + link.transfer_duration(1000))

    def test_late_arrival_leaves_gap(self, link):
        link.transfer(1000, 0.0)
        late = link.transfer(1000, 1.0)
        assert late == 1.0 + link.transfer_duration(1000)

    def test_zero_bytes_costs_overhead_only(self, link):
        assert link.transfer(0, 0.0) == pytest.approx(10e-6)

    def test_negative_bytes_rejected(self, link):
        with pytest.raises(ValueError):
            link.transfer(-1, 0.0)

    def test_stats(self, link):
        link.transfer(100, 0.0)
        link.transfer(200, 0.0)
        assert link.stats.get_count("transfers") == 2
        assert link.stats.get_count("bytes") == 300


class TestEfficiency:
    def test_monotone_in_request_size(self, link):
        sizes = [2**k for k in range(8, 24)]
        efficiencies = [link.effective_bandwidth(s) / link.bandwidth
                        for s in sizes]
        assert efficiencies == sorted(efficiencies)

    def test_paper_anchor_32k_is_66_percent(self):
        """§2.1 [P2]: 32 KB requests reach ~66 % of peak on the
        prototype's NVMe-oF link."""
        assert _efficiency(32 * 1024) == pytest.approx(0.66, abs=0.03)

    def test_paper_anchor_2mb_saturates(self):
        """§2.1 [P2]: >= 2 MB requests saturate the interconnect."""
        assert _efficiency(2 * 2**20) > 0.98

    def test_zero_size(self, link):
        assert link.effective_bandwidth(0) == 0.0


def test_invalid_construction():
    with pytest.raises(ValueError):
        Link(bandwidth=0.0, command_overhead=1e-6)
    with pytest.raises(ValueError):
        Link(bandwidth=1e9, command_overhead=-1e-6)

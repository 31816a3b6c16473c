"""Tests for the host CPU cost model."""

import pytest

from repro.host import HostCpu, MemoryModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import Probe


class TestIssueLine:
    def test_issue_costs_serialize(self):
        cpu = HostCpu(per_io_cost=2e-6)
        first = cpu.issue_io(0.0)
        second = cpu.issue_io(0.0)
        assert first == pytest.approx(2e-6)
        assert second == pytest.approx(4e-6)

    def test_issue_work(self):
        cpu = HostCpu()
        end = cpu.run_issue_work(1.0, 5e-6)
        assert end == pytest.approx(1.0 + 5e-6)

    def test_stats(self):
        cpu = HostCpu()
        cpu.issue_io(0.0)
        cpu.issue_io(0.0)
        assert cpu.issue_line.ops == 2
        assert cpu.issue_line.busy_time == 2 * cpu.per_io_cost


class TestCopyLine:
    def test_copies_use_memory_model(self):
        memory = MemoryModel(copy_bandwidth=1e9, per_copy_overhead=0.0)
        cpu = HostCpu(memory=memory)
        end = cpu.copy(1000, 0.0)
        assert end == pytest.approx(1e-6)

    def test_copies_do_not_block_issue(self):
        cpu = HostCpu(per_io_cost=1e-6)
        cpu.copy(10**9, 0.0)  # long copy on the copy core
        assert cpu.issue_io(0.0) == pytest.approx(1e-6)

    def test_multiple_copy_cores(self):
        memory = MemoryModel(copy_bandwidth=1e9, per_copy_overhead=0.0)
        one = HostCpu(memory=memory, copy_cores=1)
        two = HostCpu(memory=memory, copy_cores=2)
        one.copy(10**6, 0.0)
        end_one = one.copy(10**6, 0.0)
        two.copy(10**6, 0.0)
        end_two = two.copy(10**6, 0.0)
        assert end_two < end_one

    def test_stats_track_bytes(self):
        cpu = HostCpu()
        registry = MetricsRegistry()
        cpu.probe = Probe(metrics=registry)
        cpu.copy(1234, 0.0)
        assert registry.counter("host.copy.bytes").value == 1234
        assert cpu.copy_lines.servers[0].ops == 1


def test_reset_time():
    cpu = HostCpu()
    cpu.issue_io(0.0)
    cpu.copy(1000, 0.0)
    cpu.reset_time()
    assert cpu.issue_line.free_at == 0.0
    assert all(core.free_at == 0.0 for core in cpu.copy_lines.servers)


def test_negative_per_io_rejected():
    with pytest.raises(ValueError):
        HostCpu(per_io_cost=-1.0)

"""Tests for the queue-depth-limited host I/O engine."""

import numpy as np
import pytest

from repro.ftl import BaselineSSD
from repro.host import HostCpu, HostIoEngine, IoRun
from repro.interconnect import Link
from repro.nvm import TINY_TEST


@pytest.fixture
def engine():
    ssd = BaselineSSD(TINY_TEST, store_data=True)
    link = Link(TINY_TEST.link_bandwidth, TINY_TEST.link_command_overhead)
    return HostIoEngine(ssd, link, HostCpu(), queue_depth=4)


def _requests(count, pages_each=1, start_lpn=0):
    return IoRun([start_lpn + i * pages_each for i in range(count)],
                 [pages_each] * count,
                 [pages_each * TINY_TEST.geometry.page_size] * count,
                 [None] * count)


def _request(first, count, useful, chunk=None, payload=None):
    """A run of one request."""
    return IoRun([first], [count], [useful], [chunk],
                 None if payload is None else [payload])


class TestReads:
    def test_completions_are_monotone(self, engine):
        engine.run_writes(_requests(8))
        engine.reset_time()
        result = engine.run_reads(_requests(8))
        assert result.completions == sorted(result.completions)
        assert result.end_time == result.completions[-1]

    def test_queue_depth_limits_overlap(self):
        ssd = BaselineSSD(TINY_TEST, store_data=False)
        link = Link(TINY_TEST.link_bandwidth, TINY_TEST.link_command_overhead)
        deep = HostIoEngine(ssd, link, HostCpu(), queue_depth=8)
        deep_result = deep.run_reads(_requests(16))

        ssd2 = BaselineSSD(TINY_TEST, store_data=False)
        link2 = Link(TINY_TEST.link_bandwidth, TINY_TEST.link_command_overhead)
        shallow = HostIoEngine(ssd2, link2, HostCpu(), queue_depth=1)
        shallow_result = shallow.run_reads(_requests(16))
        assert shallow_result.end_time > deep_result.end_time

    def test_placement_copy_extends_completion(self, engine):
        engine.run_writes(_requests(1))
        engine.reset_time()
        no_copy = engine.run_reads(_request(0, 1, 256, chunk=None))
        engine.reset_time()
        with_copy = engine.run_reads(_request(0, 1, 256, chunk=0))
        assert with_copy.end_time > no_copy.end_time

    def test_with_data_returns_page_contents(self, engine, rng):
        payload = rng.integers(0, 256, TINY_TEST.geometry.page_size
                               ).astype(np.uint8)
        engine.run_writes(_request(3, 1, payload.size, payload=[payload]))
        result = engine.run_reads(_request(3, 1, payload.size),
                                  with_data=True)
        assert np.array_equal(result.data[0][0], payload)

    def test_effective_bandwidth_counts_useful_bytes(self, engine):
        engine.run_writes(_requests(4))
        engine.reset_time()
        result = engine.run_reads(_request(0, 2, 100))
        assert result.useful_bytes == 100
        assert result.fetched_bytes == 2 * TINY_TEST.geometry.page_size
        assert result.effective_bandwidth < 100 / 1e-6


class TestWrites:
    def test_gather_copy_costs_time(self, engine):
        plain = engine.run_writes(_request(0, 1, 256, chunk=None))
        engine.reset_time()
        engine2_start = engine.run_writes(_request(1, 1, 256, chunk=64))
        assert engine2_start.end_time > plain.end_time * 0.5  # sane scale

    def test_queue_depth_validation(self):
        ssd = BaselineSSD(TINY_TEST, store_data=False)
        link = Link(1e9, 1e-6)
        with pytest.raises(ValueError):
            HostIoEngine(ssd, link, HostCpu(), queue_depth=0)


class TestStatsWhenABatchRaises:
    """A request that raises midway leaves every layer's stats in step
    with its timeline: the steps that ran are counted, the rest are
    not — exactly what per-request ``issue_io``/``copy``/``transfer``
    calls would leave behind."""

    @staticmethod
    def _system(**kwargs):
        from repro.systems import BaselineSystem
        return BaselineSystem(TINY_TEST, **kwargs)

    def test_read_batch_with_bad_lpn(self):
        system = self._system()
        engine, cpu, link = system.engine, system.cpu, system.link
        bad = system.ssd.logical_pages
        with pytest.raises(ValueError):
            engine.run_reads(IoRun([0, bad], [1, 1], [256, 256], [0, 0]))
        assert cpu.issue_line.ops == 2
        assert cpu.stats.get_count("host_ios") == 2
        assert cpu.stats.times["host_issue"] == 2 * cpu.per_io_cost
        assert engine.controller_line.ops == 2
        assert link.line.ops == 1
        assert link.stats.get_count("transfers") == 1
        assert link.stats.get_count("bytes") == TINY_TEST.geometry.page_size
        assert cpu.stats.get_count("host_copies") == 1
        assert cpu.stats.times["host_copy"] == \
            cpu.copy_lines.servers[0].busy_time

    def test_write_batch_with_bad_lpn(self):
        system = self._system()
        engine, cpu, link = system.engine, system.cpu, system.link
        bad = system.ssd.logical_pages
        with pytest.raises(ValueError):
            engine.run_writes(IoRun([0, bad], [1, 1], [256, 256], [0, 0]))
        # the second request was issued, gathered, sent and decoded
        # before the device refused it
        assert cpu.stats.get_count("host_ios") == cpu.issue_line.ops == 2
        assert cpu.stats.times["host_issue"] == 2 * cpu.per_io_cost
        assert cpu.stats.get_count("host_copies") == 2
        assert link.stats.get_count("transfers") == link.line.ops == 2
        assert engine.controller_line.ops == 2

    def test_read_batch_hitting_a_dead_channel(self):
        from repro.faults.errors import UncorrectableError
        from repro.faults.model import FaultConfig
        from repro.nvm import index_to_ppa
        system = self._system(store_data=False, faults=FaultConfig(seed=1))
        engine, cpu, link, ssd = system.engine, system.cpu, system.link, \
            system.ssd
        engine.run_writes(_requests(2))
        first, second = (index_to_ppa(ssd.ftl.map[lpn], ssd.geometry)
                         for lpn in (0, 1))
        assert first.channel != second.channel
        ssd.flash.faults.dead_channels.add(second.channel)
        pages_before = ssd.flash.stats.get_count("pages_read")
        ios_before = cpu.stats.get_count("host_ios")
        with pytest.raises(UncorrectableError):
            engine.run_reads(_requests(2))
        assert cpu.stats.get_count("host_ios") == ios_before + 2
        assert link.stats.get_count("transfers") == 2 + 1
        assert ssd.flash.stats.get_count("pages_read") == pages_before + 1

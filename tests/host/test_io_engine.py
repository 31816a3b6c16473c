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
    """A request that raises midway leaves every layer's timeline
    counting exactly the steps that ran: the requests before the bad
    one executed whole, the bad one only up to where it was refused."""

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
        assert cpu.issue_line.busy_time == 2 * cpu.per_io_cost
        assert engine.controller_line.ops == 2
        assert link.line.ops == 1
        assert link.line.busy_time == \
            link.transfer_duration(TINY_TEST.geometry.page_size)
        copy_core = cpu.copy_lines.servers[0]
        assert copy_core.ops == 1
        assert copy_core.busy_time == cpu.memory.copy_time(256, 0)

    def test_write_batch_with_bad_lpn(self):
        system = self._system()
        engine, cpu, link = system.engine, system.cpu, system.link
        bad = system.ssd.logical_pages
        with pytest.raises(ValueError):
            engine.run_writes(IoRun([0, bad], [1, 1], [256, 256], [0, 0]))
        # the second request was issued, gathered, sent and decoded
        # before the device refused it
        assert cpu.issue_line.ops == 2
        assert cpu.issue_line.busy_time == 2 * cpu.per_io_cost
        assert cpu.copy_lines.servers[0].ops == 2
        assert link.line.ops == 2
        assert engine.controller_line.ops == 2
        assert system.ssd.flash.stats.get_count("pages_programmed") == 1

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
        ios_before = cpu.issue_line.ops
        with pytest.raises(UncorrectableError):
            engine.run_reads(_requests(2))
        assert cpu.issue_line.ops == ios_before + 2
        assert link.line.ops == 2 + 1
        assert ssd.flash.stats.get_count("pages_read") == pages_before + 1


class TestHostCountsOnTimelinesAndProbe:
    """The host issue core, the copy cores and the link count their
    reservations on their own timelines (``Timeline.ops``); the bytes
    they moved are counted by the probe's metrics. Over reads with
    chunked copies, writes with gather copies and runs whose middle
    request is refused, the probe's event counts equal the timelines'
    op counts and its byte counters equal what the executed requests
    moved."""

    def test_probe_counts_match_timelines_and_requests(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.systems import BaselineSystem
        system = BaselineSystem(TINY_TEST)
        registry = MetricsRegistry()
        system.set_metrics(registry)
        engine, cpu, link = system.engine, system.cpu, system.link
        page = TINY_TEST.geometry.page_size
        bad = system.ssd.logical_pages
        moved = {"pages": 0, "copied": 0}

        def check():
            copy_ops = sum(core.ops for core in cpu.copy_lines.servers)
            assert registry.histogram("host.issue").count \
                == cpu.issue_line.ops
            assert registry.histogram("link.transfer").count \
                == link.line.ops
            assert registry.histogram("host.copy").count == copy_ops
            assert registry.counter("link.bytes").value \
                == moved["pages"] * page
            assert registry.counter("host.copy.bytes").value \
                == moved["copied"]

        # a write run, two of its requests gathered by a host copy
        engine.run_writes(IoRun([0, 1, 2, 4], [1, 1, 2, 1], [page] * 4,
                                [64, None, 0, None]))
        moved["pages"] += 5
        moved["copied"] += 2 * page
        check()
        assert cpu.issue_line.ops == link.line.ops == 4

        # a read run with chunked placement copies
        engine.run_reads(IoRun([0, 2], [2, 3], [300, 500], [64, 128]))
        moved["pages"] += 5
        moved["copied"] += 800
        check()
        assert cpu.issue_line.ops == link.line.ops == 6

        # a read run whose middle request has a bad LPN: the first
        # request ran whole, the bad one was issued and decoded only
        with pytest.raises(ValueError):
            engine.run_reads(IoRun([0, bad, 2], [1, 1, 1], [100, 100, 100],
                                   [0, 0, 0]))
        moved["pages"] += 1
        moved["copied"] += 100
        check()
        assert cpu.issue_line.ops == 8
        assert link.line.ops == 7

        # the same for a write run: the bad request was also gathered
        # and sent before the device refused it
        with pytest.raises(ValueError):
            engine.run_writes(IoRun([3, bad, 5], [1, 1, 1],
                                    [200, 200, 200], [0, 0, 0]))
        moved["pages"] += 2
        moved["copied"] += 400
        check()
        assert cpu.issue_line.ops == 10
        assert link.line.ops == 9

"""Unit tests for the stateful fault injector."""

from __future__ import annotations

import pytest

from repro.faults import FaultConfig, FaultInjector, FaultPlan
from repro.faults import injector as injector_module
from repro.faults.injector import _PROGRAM_SALT
from repro.faults.model import stable_unit
from repro.nvm import Geometry

#: 64 pages per block, 512 per bank, 1024 per channel: page (c, b, k, p)
#: is index ((c * 2 + b) * 8 + k) * 64 + p
GEOMETRY = Geometry(channels=4, banks_per_channel=2, blocks_per_bank=8,
                    pages_per_block=64, page_size=256)


def _plan_config(plan: FaultPlan, **overrides) -> FaultConfig:
    return FaultConfig(plan=plan, **overrides)


def _injector(config=None) -> FaultInjector:
    """An injector attached to :data:`GEOMETRY`, as a flash array's
    ``attach_faults`` attaches it."""
    injector = FaultInjector(config)
    injector.attach(GEOMETRY)
    return injector


class TestPlanApplication:
    def test_events_fire_when_time_passes(self):
        injector = _injector(_plan_config(
            FaultPlan().kill_channel(1, at=1.0)))
        injector.advance(0.5)
        assert not injector.channel_dead(1)
        injector.advance(1.5)
        assert injector.channel_dead(1)
        assert injector.stats.counters["plan_channels_killed"] == 1

    def test_clock_is_monotone(self):
        """Once seen, an event stays applied even for later-issued ops
        carrying smaller timestamps."""
        injector = _injector(_plan_config(
            FaultPlan().corrupt_page(0, 0, 0, 3, at=1.0)))
        injector.advance(2.0)
        assert 3 in injector.corrupt_pages
        injector.advance(0.0)  # out-of-order issue time
        assert 3 in injector.corrupt_pages

    def test_bad_block_fails_program_and_erase_but_not_read(self):
        injector = _injector(_plan_config(
            FaultPlan().mark_block_bad(0, 1, 2, at=0.0)))
        injector.advance(0.0)
        assert injector.bad_blocks == {10}
        assert injector.program_check(640) == "bad_block"  # (0, 1, 2, 0)
        assert injector.erase_check((0, 1, 2)) == "bad_block"
        # already-programmed pages stay readable (grown-bad contract)
        assert not injector.read_plan(640, 0.0).uncorrectable

    @pytest.mark.parametrize("plan", [
        FaultPlan().mark_block_bad(0, 0, 8),       # block past the bank
        FaultPlan().mark_block_bad(0, 2, 0),       # bank past the channel
        FaultPlan().corrupt_page(0, 0, 0, 64),     # page past the block
        FaultPlan().corrupt_page(4, 0, 0, 0, at=5.0),
    ])
    def test_an_event_outside_the_array_is_refused(self, plan):
        """A page or block index outside the array would alias another
        one, so attaching refuses the plan before any op runs."""
        with pytest.raises(ValueError, match="lies outside"):
            _injector(_plan_config(plan))


class TestProgramVerdict:
    @pytest.mark.parametrize("base", [0.0, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("wear", [0.0, 0.02])
    def test_verdict_is_the_hashed_rule(self, base, wear):
        """Per page, block erase count and program epoch, the verdict is
        "wear" exactly when the page's FNV-1a draw lies below the
        block's program-fail probability, zero probability included."""
        injector = _injector(FaultConfig(program_fail_base=base,
                                         program_fail_wear=wear,
                                         initial_wear=2))
        seed = injector.config.seed
        epoch = 0
        for erases in (0, 5):
            prob = base + wear * (2 + erases)
            for _ in range(3):
                # pages 0-47 of block (0, 0, 1)
                for idx in range(64, 112):
                    want = ("wear" if stable_unit(seed, _PROGRAM_SALT, idx,
                                                  epoch) < prob else None)
                    assert injector.program_check(idx) == want, \
                        (idx, erases, epoch)
                    injector.note_program(idx, 0.0)
                epoch += 1
            for _ in range(5):
                injector.note_erase((0, 0, 1))

    def test_no_draw_when_no_program_can_fail(self, monkeypatch):
        draws = []

        def counted(*keys):
            draws.append(keys)
            return stable_unit(*keys)

        monkeypatch.setattr(injector_module, "stable_unit", counted)
        assert _injector().program_check(3) is None
        assert draws == []
        failing = _injector(FaultConfig(program_fail_base=1.0))
        assert failing.program_check(3) == "wear"
        assert len(draws) == 1


class TestSuppression:
    def test_suppress_disables_probabilistic_draws(self):
        injector = _injector(FaultConfig(program_fail_base=1.0))
        assert injector.program_check(0) == "wear"
        with injector.suppress():
            assert injector.program_check(0) is None
        assert injector.program_check(0) == "wear"

    def test_suppress_keeps_structural_failures(self):
        injector = _injector(_plan_config(
            FaultPlan().kill_channel(2, at=0.0).mark_block_bad(0, 0, 5,
                                                               at=0.0)))
        injector.advance(0.0)
        with injector.suppress():
            # (2, 0, 0, 0) and (0, 0, 5, 0)
            assert injector.program_check(2048) == "channel_dead"
            assert injector.program_check(320) == "bad_block"
            assert injector.erase_check((2, 0, 0)) == "channel_dead"
            assert injector.erase_check((0, 0, 5)) == "bad_block"
            assert injector.erase_check((1, 0, 0)) is None
            # scripted corruption reads clean inside recovery (the
            # reconstruction path must be able to read survivors)
            assert injector.read_plan(1024, 0.0).retries == 0

    def test_suppress_nests(self):
        injector = _injector(FaultConfig(program_fail_base=1.0))
        with injector.suppress():
            with injector.suppress():
                pass
            assert injector.suppressed
        assert not injector.suppressed


class TestWearAndRetention:
    def test_note_erase_counts_wear_and_clears_corruption(self):
        injector = _injector(_plan_config(
            FaultPlan().corrupt_page(0, 0, 0, 2, at=0.0)))
        injector.advance(0.0)
        assert injector.read_plan(2, 0.0).uncorrectable
        injector.note_erase((0, 0, 0))
        assert injector.erase_count((0, 0, 0)) == 1
        assert not injector.read_plan(2, 1.0).uncorrectable

    def test_same_seed_same_outcomes(self):
        """Two injectors with the same config replay identical ladders."""
        config = FaultConfig(rber_base=6e-3)  # retry-heavy regime
        runs = []
        for _ in range(2):
            injector = _injector(config)
            injector.note_program(0, 0.0)
            runs.append([injector.read_plan(0, 0.001).retries
                         for _ in range(32)])
        assert runs[0] == runs[1]
        assert any(runs[0])  # the regime actually retries

    def test_reprogram_changes_the_draw_sequence(self):
        config = FaultConfig(rber_base=6e-3)
        injector = _injector(config)
        injector.note_program(0, 0.0)
        first = [injector.read_plan(0, 0.001).retries for _ in range(16)]
        injector.note_program(0, 0.002)  # new program epoch
        second = [injector.read_plan(0, 0.003).retries for _ in range(16)]
        assert first != second

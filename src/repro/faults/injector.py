"""The stateful fault injector attached to one flash array.

The injector owns all mutable reliability state — per-block erase
counts, per-page program timestamps and epochs, applied plan events —
and answers the flash array's three questions deterministically:

* ``read_plan``    — how many retry rounds does this read take, and
  does it ultimately fail?
* ``program_check`` / ``erase_check`` — does this operation report
  status-fail (dead channel, plan-marked bad block, or a wear-dependent
  draw)?

Recovery paths (garbage collection, bad-block relocation, parity
reconstruction) run under :meth:`suppress`, which disables the
*probabilistic* draws while keeping *structural* facts (dead channels,
plan-marked bad blocks) in force — a model of the controller's
"relocations are verified and re-tried internally" behaviour that also
keeps recovery from recursing into itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.faults.model import ErrorModel, FaultConfig, ReadPlan, stable_unit
from repro.sim.stats import StatSet

__all__ = ["FaultInjector"]

#: (channel, bank, block)
BlockKey = Tuple[int, int, int]
#: (channel, bank, block, page)
PageKey = Tuple[int, int, int, int]

_READ_SALT = 0x52454144      # "READ"
_PROGRAM_SALT = 0x50524F47   # "PROG"
_ERASE_SALT = 0x45524153     # "ERAS"


class FaultInjector:
    """Deterministic reliability state machine for one flash array."""

    def __init__(self, config: Optional[FaultConfig] = None) -> None:
        self.config = config if config is not None else FaultConfig()
        self.model = ErrorModel(self.config)
        self.stats = StatSet()
        #: the owning scheduler's op ledger (None for a standalone
        #: injector); every :meth:`count` is pushed into it
        self.ledger = None
        # plan bookkeeping
        self._events = (self.config.plan.sorted_events()
                        if self.config.plan is not None else ())
        self._next_event = 0
        self._clock = 0.0
        self.dead_channels: Set[int] = set()
        #: the whole device behind this injector is gone (plan
        #: ``kill_device``): every channel answers dead
        self.device_dead = False
        self.bad_blocks: Set[BlockKey] = set()
        self.corrupt_pages: Set[PageKey] = set()
        # wear / retention bookkeeping
        self._erases: Dict[BlockKey, int] = {}
        self._programmed_at: Dict[int, float] = {}
        self._epoch: Dict[int, int] = {}
        self._read_seq: Dict[int, int] = {}
        self._suppress_depth = 0

    # ------------------------------------------------------------------
    # plan application
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Apply every plan event due at or before ``now``. Time is
        observed monotonically: once an event has been seen it stays
        applied even for later-issued ops with smaller timestamps."""
        if now > self._clock:
            self._clock = now
        while (self._next_event < len(self._events)
               and self._events[self._next_event].time <= self._clock):
            event = self._events[self._next_event]
            self._next_event += 1
            if event.kind == "kill_channel":
                self.dead_channels.add(event.channel)
                self.count("plan_channels_killed")
            elif event.kind == "kill_device":
                self.device_dead = True
                self.count("plan_devices_killed")
            elif event.kind == "bad_block":
                self.bad_blocks.add((event.channel, event.bank, event.block))
                self.count("plan_blocks_marked_bad")
            else:  # corrupt_page
                self.corrupt_pages.add((event.channel, event.bank,
                                        event.block, event.page))
                self.count("plan_pages_corrupted")

    def count(self, name: str, amount: int = 1) -> None:
        """Bump one fault counter (and the executing op's ledger)."""
        self.stats.count(name, amount)
        if self.ledger is not None:
            self.ledger.count_fault(name, amount)

    def channel_dead(self, channel: int) -> bool:
        return self.device_dead or channel in self.dead_channels

    # ------------------------------------------------------------------
    # recovery suppression
    # ------------------------------------------------------------------
    @contextmanager
    def suppress(self) -> Iterator[None]:
        """Disable probabilistic draws (retries, wear-dependent fails)
        inside recovery paths; structural failures still apply."""
        self._suppress_depth += 1
        try:
            yield
        finally:
            self._suppress_depth -= 1

    @property
    def suppressed(self) -> bool:
        return self._suppress_depth > 0

    # ------------------------------------------------------------------
    # flash-side queries
    # ------------------------------------------------------------------
    def read_plan(self, idx: int, page_key: PageKey,
                  sense_time: float) -> ReadPlan:
        """Ladder outcome for one page read sensed at ``sense_time``."""
        if page_key in self.corrupt_pages and not self.suppressed:
            return self.model.full_ladder("corrupt")
        if self.suppressed:
            return ReadPlan.clean()
        epoch = self._epoch.get(idx, 0)
        ordinal = self._read_seq.get(idx, 0)
        self._read_seq[idx] = ordinal + 1
        erases = self._erases.get(page_key[:3], 0)
        retention = sense_time - self._programmed_at.get(idx, sense_time)
        draw = stable_unit(self.config.seed, _READ_SALT, idx, epoch, ordinal)
        return self.model.read_outcome(draw,
                                       self.model.rber(erases, retention))

    def program_check(self, idx: int, page_key: PageKey) -> Optional[str]:
        """None = program succeeds; otherwise the failure reason."""
        block_key = page_key[:3]
        if self.device_dead:
            return "device_dead"
        if block_key[0] in self.dead_channels:
            return "channel_dead"
        if block_key in self.bad_blocks:
            return "bad_block"
        if self.suppressed:
            return None
        epoch = self._epoch.get(idx, 0)
        draw = stable_unit(self.config.seed, _PROGRAM_SALT, idx, epoch)
        if self.model.program_fails(draw, self._erases.get(block_key, 0)):
            return "wear"
        return None

    def erase_check(self, block_key: BlockKey) -> Optional[str]:
        """None = erase succeeds; otherwise the failure reason."""
        if self.device_dead:
            return "device_dead"
        if block_key[0] in self.dead_channels:
            return "channel_dead"
        if block_key in self.bad_blocks:
            return "bad_block"
        if self.suppressed:
            return None
        erases = self._erases.get(block_key, 0)
        draw = stable_unit(self.config.seed, _ERASE_SALT,
                           block_key[0], block_key[1], block_key[2], erases)
        if self.model.erase_fails(draw, erases):
            return "wear"
        return None

    # ------------------------------------------------------------------
    # flash-side notifications
    # ------------------------------------------------------------------
    def note_program(self, idx: int, end_time: float) -> None:
        self._programmed_at[idx] = end_time
        self._epoch[idx] = self._epoch.get(idx, 0) + 1
        self._read_seq.pop(idx, None)

    def note_erase(self, block_key: BlockKey, base_idx: int,
                   page_count: int, end_time: float) -> None:
        self._erases[block_key] = self._erases.get(block_key, 0) + 1
        for offset in range(page_count):
            self._programmed_at.pop(base_idx + offset, None)
            self._read_seq.pop(base_idx + offset, None)
        # erasing clears scripted corruption for the block's pages
        self.corrupt_pages = {key for key in self.corrupt_pages
                              if key[:3] != block_key}

    def note_time_reset(self) -> None:
        """Timelines were zeroed between measurement phases: re-anchor
        retention so elapsed model time stays non-negative."""
        self._programmed_at = {idx: 0.0 for idx in self._programmed_at}

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def erase_count(self, block_key: BlockKey) -> int:
        return self._erases.get(block_key, 0)

    def counters(self) -> Dict[str, int]:
        """Snapshot of all fault counters."""
        return dict(self.stats.counters)

"""The stateful fault injector attached to one flash array.

The injector owns all mutable reliability state — per-block erase
counts, per-page program timestamps and epochs, applied plan events —
and answers the flash array's three questions deterministically:

* ``read_plan``    — how many retry rounds does this read take, and
  does it ultimately fail?
* ``program_check`` — does this program report status-fail (dead
  channel, plan-marked bad block, or a wear-dependent draw)?
* ``erase_check`` — does this erase report status-fail? Only structural
  facts fail one (dead device or channel, plan-marked bad block): every
  erase runs inside a GC collection, under :meth:`suppress`, so an erase
  has no draw.

Recovery paths (garbage collection, bad-block relocation, parity
reconstruction) run under :meth:`suppress`, which disables the
*probabilistic* draws while keeping *structural* facts (dead channels,
plan-marked bad blocks) in force — a model of the controller's
"relocations are verified and re-tried internally" behaviour that also
keeps recovery from recursing into itself.

Pages and blocks are keyed by the flash array's int indices (a page's
block is ``index // pages_per_block``); the array hands over its
geometry on attach, and a plan event's address becomes an index once,
when the event is applied.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Set, Tuple

from repro.faults.model import ErrorModel, FaultConfig, ReadPlan, stable_unit
from repro.sim.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nvm.geometry import Geometry

__all__ = ["FaultInjector"]

_READ_SALT = 0x52454144      # "READ"
_PROGRAM_SALT = 0x50524F47   # "PROG"


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
        self.bad_blocks: Set[int] = set()
        self.corrupt_pages: Set[int] = set()
        # wear / retention bookkeeping
        self._erases: Dict[int, int] = {}
        self._programmed_at: Dict[int, float] = {}
        self._epoch: Dict[int, int] = {}
        self._read_seq: Dict[int, int] = {}
        self._suppress_depth = 0
        self.geometry: Optional["Geometry"] = None
        self._per_block = self._per_channel = 0

    def attach(self, geometry: "Geometry") -> None:
        """Take the geometry of the flash array this injector is
        attached to (:meth:`~repro.nvm.flash.FlashArray.attach_faults`).
        A plan event naming a block or page outside it is refused: its
        index would name another block's."""
        for event in self._events:
            if event.kind in ("bad_block", "corrupt_page") and not (
                    0 <= event.channel < geometry.channels
                    and 0 <= event.bank < geometry.banks_per_channel
                    and 0 <= event.block < geometry.blocks_per_bank
                    and (event.kind == "bad_block"
                         or 0 <= event.page < geometry.pages_per_block)):
                raise ValueError(f"{event} lies outside {geometry}")
        self.geometry = geometry
        self._per_block = geometry.pages_per_block
        self._per_channel = geometry.pages_per_channel

    def _block(self, channel: int, bank: int, block: int) -> int:
        """The block index of ``(channel, bank, block)``."""
        g = self.geometry
        return (channel * g.banks_per_channel + bank) * g.blocks_per_bank + block

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
                self.bad_blocks.add(
                    self._block(event.channel, event.bank, event.block))
                self.count("plan_blocks_marked_bad")
            else:  # corrupt_page
                self.corrupt_pages.add(
                    self._block(event.channel, event.bank, event.block)
                    * self._per_block + event.page)
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
        """Disable probabilistic draws (retries, wear-dependent program
        fails) inside recovery paths; structural failures still apply."""
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
    def read_plan(self, idx: int, sense_time: float) -> ReadPlan:
        """Ladder outcome for one page read sensed at ``sense_time``."""
        if self.suppressed:
            return ReadPlan()
        if idx in self.corrupt_pages:
            return self.model.full_ladder("corrupt")
        epoch = self._epoch.get(idx, 0)
        ordinal = self._read_seq.get(idx, 0)
        self._read_seq[idx] = ordinal + 1
        erases = self._erases.get(idx // self._per_block, 0)
        retention = sense_time - self._programmed_at.get(idx, sense_time)
        draw = stable_unit(self.config.seed, _READ_SALT, idx, epoch, ordinal)
        return self.model.read_outcome(draw,
                                       self.model.rber(erases, retention))

    def program_check(self, idx: int) -> Optional[str]:
        """None = program succeeds; otherwise the failure reason."""
        if self.device_dead:
            return "device_dead"
        if idx // self._per_channel in self.dead_channels:
            return "channel_dead"
        block = idx // self._per_block
        if block in self.bad_blocks:
            return "bad_block"
        if self.suppressed:
            return None
        prob = self.model.program_fail_prob(self._erases.get(block, 0))
        # a draw lies in [0, 1): with prob <= 0 the hash is skipped
        if prob > 0.0 and stable_unit(self.config.seed, _PROGRAM_SALT, idx,
                                      self._epoch.get(idx, 0)) < prob:
            return "wear"
        return None

    def erase_check(self, key: Tuple[int, int, int]) -> Optional[str]:
        """None = erase succeeds; otherwise the structural failure
        reason."""
        if self.device_dead:
            return "device_dead"
        if key[0] in self.dead_channels:
            return "channel_dead"
        if self._block(*key) in self.bad_blocks:
            return "bad_block"
        return None

    # ------------------------------------------------------------------
    # flash-side notifications
    # ------------------------------------------------------------------
    def note_program(self, idx: int, end_time: float) -> None:
        self._programmed_at[idx] = end_time
        self._epoch[idx] = self._epoch.get(idx, 0) + 1
        self._read_seq.pop(idx, None)

    def note_erase(self, key: Tuple[int, int, int]) -> None:
        block = self._block(*key)
        self._erases[block] = self._erases.get(block, 0) + 1
        pages = range(block * self._per_block, (block + 1) * self._per_block)
        for idx in pages:
            self._programmed_at.pop(idx, None)
            self._read_seq.pop(idx, None)
        # erasing clears scripted corruption for the block's pages
        self.corrupt_pages.difference_update(pages)

    def note_time_reset(self) -> None:
        """Timelines were zeroed between measurement phases: re-anchor
        retention so elapsed model time stays non-negative."""
        self._programmed_at = {idx: 0.0 for idx in self._programmed_at}

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def erase_count(self, key: Tuple[int, int, int]) -> int:
        return self._erases.get(self._block(*key), 0)

    def counters(self) -> Dict[str, int]:
        """Snapshot of all fault counters."""
        return dict(self.stats.counters)

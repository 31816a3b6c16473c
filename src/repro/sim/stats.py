"""Event counters shared by the timed components.

A :class:`StatSet` counts discrete events (I/O commands issued, pages
read, B-tree nodes visited). A resource's busy time and op count are
not counted here: each is kept once, on the resource's own
:class:`~repro.sim.resources.Timeline` (``busy_time``, ``ops``), and
bytes moved and per-event durations reach trace, metrics and monitor
through the owning system's probe. No result carries a copy of its own
fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["StatSet"]


@dataclass
class StatSet:
    """A bag of named event counters."""

    counters: Dict[str, int] = field(default_factory=dict)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def get_count(self, name: str) -> int:
        return self.counters.get(name, 0)

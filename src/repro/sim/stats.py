"""Statistics accounting shared by all timed components.

Every timed operation in the model returns or accumulates into a
:class:`StatSet`. The end-to-end systems report effective bandwidth,
per-resource busy time and command counts through these objects, which
the benchmark harnesses then turn into the paper's tables and figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

__all__ = ["StatSet", "effective_bandwidth"]


def effective_bandwidth(num_bytes: int, elapsed_seconds: float) -> float:
    """Bytes per second; 0 for a degenerate interval."""
    if elapsed_seconds <= 0:
        return 0.0
    return num_bytes / elapsed_seconds


@dataclass
class StatSet:
    """A bag of named counters plus named time accumulators.

    ``counters`` count discrete events (I/O commands issued, pages read,
    B-tree nodes visited). ``times`` accumulate busy seconds per logical
    resource ("host_cpu", "link", "flash", ...). Merging is additive so
    per-request stats can be rolled up into per-run stats.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    times: Dict[str, float] = field(default_factory=dict)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, name: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative time for {name}: {seconds}")
        self.times[name] = self.times.get(name, 0.0) + seconds

    def merge(self, other: "StatSet") -> "StatSet":
        for key, value in other.counters.items():
            self.count(key, value)
        for key, value in other.times.items():
            self.add_time(key, value)
        return self

    @classmethod
    def merged(cls, parts: Iterable["StatSet"]) -> "StatSet":
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    def get_count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def get_time(self, name: str) -> float:
        return self.times.get(name, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """Flat view for reporting (counter names as-is, times suffixed)."""
        flat: Dict[str, float] = dict(self.counters)
        for key, value in self.times.items():
            flat[f"{key}_s"] = value
        return flat

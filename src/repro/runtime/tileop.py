"""Typed dataset-level requests.

A :class:`TileOp` is the unit the :class:`~repro.runtime.scheduler.
RequestScheduler` admits, orders and executes: one read, write or
ingest of an axis-aligned region, tagged with the tenant stream that
issued it and the model time it was submitted. Systems consume ops
through their ``_execute_op`` hook and attach the resulting
:class:`~repro.systems.base.SystemOpResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = ["TileOp", "DEFAULT_STREAM"]

#: stream used by the synchronous ``read_tile``/``write_tile`` facade;
#: it is never queue-depth gated, so direct calls keep their seed-era
#: semantics (each call independent, ``start_time`` honoured exactly).
DEFAULT_STREAM = "main"

_KINDS = ("read", "write", "ingest")


@dataclass
class TileOp:
    """One dataset-level request flowing through the spine.

    ``extents`` doubles as the dataset ``dims`` for ingest ops, and
    ``params`` carries system-specific keywords (``layout=`` for the
    baseline, ``tile=`` for the oracle).
    """

    kind: str
    dataset: str
    origin: Tuple[int, ...]
    extents: Tuple[int, ...]
    submit_time: float = 0.0
    with_data: bool = False
    dtype: Optional[Any] = None
    data: Optional[Any] = None
    element_size: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    stream: str = DEFAULT_STREAM
    #: assigned by the scheduler at submission (global FIFO order)
    op_id: int = -1
    #: attached by the scheduler after execution
    result: Optional[Any] = None
    #: lifecycle timestamps stamped by the scheduler: the time the op
    #: was actually issued to the system flow (after queue-depth gating;
    #: it entered its stream queue at ``submit_time``), and the time it
    #: finished. ``None`` until the corresponding transition happens.
    issue_time: Optional[float] = None
    complete_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown TileOp kind {self.kind!r}")
        self.origin = tuple(int(o) for o in self.origin)
        self.extents = tuple(int(e) for e in self.extents)

    # ------------------------------------------------------------------
    @classmethod
    def read(cls, dataset: str, origin, extents, *, submit_time: float = 0.0,
             with_data: bool = False, dtype=None,
             stream: str = DEFAULT_STREAM) -> "TileOp":
        return cls("read", dataset, tuple(origin), tuple(extents),
                   submit_time=submit_time, with_data=with_data,
                   dtype=dtype, stream=stream)

    @classmethod
    def write(cls, dataset: str, origin, extents, *, data=None,
              submit_time: float = 0.0,
              stream: str = DEFAULT_STREAM) -> "TileOp":
        return cls("write", dataset, tuple(origin), tuple(extents),
                   submit_time=submit_time, data=data, stream=stream)

    @classmethod
    def ingest(cls, dataset: str, dims, element_size: int, *, data=None,
               submit_time: float = 0.0, stream: str = DEFAULT_STREAM,
               **params) -> "TileOp":
        dims = tuple(dims)
        return cls("ingest", dataset, tuple(0 for _ in dims), dims,
                   submit_time=submit_time, data=data,
                   element_size=int(element_size), params=dict(params),
                   stream=stream)

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        return f"{self.kind}:{self.dataset}{list(self.extents)}@{list(self.origin)}"

    @property
    def latency(self) -> Optional[float]:
        """Submit-to-completion latency (None before execution)."""
        if self.result is None:
            return None
        return self.result.end_time - self.submit_time

    @property
    def queue_wait(self) -> Optional[float]:
        """Submit-to-issue wait (None before the op was issued)."""
        if self.issue_time is None:
            return None
        return self.issue_time - self.submit_time

    @property
    def service_time(self) -> Optional[float]:
        """Issue-to-completion service time (None before execution)."""
        if self.issue_time is None or self.complete_time is None:
            return None
        return self.complete_time - self.issue_time

"""Multi-stage software pipeline model.

Every workload in the paper is pipelined: I/O and (when the layout
mismatches) host restructuring overlap with accelerator copies and
compute kernels (§6.2). This module computes the schedule of an
in-order pipeline where each stage is a dedicated resource, plus the
*idle time before each compute-kernel activation* that Figure 10(b)
reports.

Stages may also hand items over through finite queues, as the NDS
controller's pipeline elements do through message-queue pairs
(§5.3.2): a stage that finishes an item cannot pass it on while the
downstream queue is full, and stalls (backpressure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

__all__ = ["PipelineResult", "run_pipeline"]


@dataclass
class PipelineResult:
    """Schedule summary of one pipelined run."""

    total_time: float
    stage_names: List[str]
    stage_busy: List[float]
    #: per-stage idle time: gaps a stage spent waiting for upstream data
    #: after processing its previous item (excludes initial pipeline fill
    #: of stages other than the last — for the compute kernel the paper
    #: counts the wait before *each* pipelined kernel, so the fill gap of
    #: the final stage is included).
    stage_idle: List[float] = field(default_factory=list)
    #: ``finish_times[i][s]``: when item ``i`` left stage ``s``
    finish_times: List[List[float]] = field(default_factory=list)
    #: per-stage time spent holding a finished item in front of a full
    #: downstream queue (all zero with unbounded queues)
    stage_blocked: List[float] = field(default_factory=list)

    def idle_of(self, stage_name: str) -> float:
        return self.stage_idle[self.stage_names.index(stage_name)]

    def busy_of(self, stage_name: str) -> float:
        return self.stage_busy[self.stage_names.index(stage_name)]


def run_pipeline(stage_times: Sequence[Sequence[float]],
                 stage_names: Sequence[str] = (),
                 trace=None, stream: str = "pipeline",
                 queue_capacities: Optional[Sequence[Optional[int]]] = None,
                 ) -> PipelineResult:
    """Schedule ``items × stages`` durations through an in-order pipeline.

    ``stage_times[i][s]`` is how long item ``i`` needs in stage ``s``.
    Item ``i`` enters stage ``s`` only after (a) it left stage ``s-1``
    and (b) item ``i-1`` left stage ``s``.

    ``queue_capacities[s]`` bounds the queue in front of stage ``s+1``
    (one per stage boundary; None, the default, leaves every queue
    unbounded, and a None entry leaves that one unbounded). Item ``i``
    leaves stage ``s`` only once the downstream queue has a free slot,
    i.e. once item ``i - capacity`` has entered stage ``s+1``.

    Returns total latency, per-stage busy time and per-stage idle time
    (time a stage sat waiting between consecutive items — for the last
    stage this is the paper's "idle time before each pipelined compute
    kernel", Fig. 10(b)).

    ``trace``, when given, is a
    :class:`~repro.runtime.trace.TraceRecorder`: every stage activation
    is recorded as a span on resource ``"<stream>/<stage>"`` so pipeline
    occupancy lines up with the device-side spans in one Chrome trace.
    """
    items = len(stage_times)
    if items == 0:
        return PipelineResult(0.0, list(stage_names), [])
    stages = len(stage_times[0])
    for row in stage_times:
        if len(row) != stages:
            raise ValueError("ragged stage_times")
    names = list(stage_names) if stage_names else [f"stage{s}" for s in range(stages)]
    if len(names) != stages:
        raise ValueError("stage_names length mismatch")
    if queue_capacities is None:
        capacities: List[Optional[int]] = [None] * stages
    else:
        capacities = list(queue_capacities)
        if len(capacities) != stages - 1:
            raise ValueError("need one queue capacity per stage boundary")
        if any(capacity is not None and capacity < 1
               for capacity in capacities):
            raise ValueError("queue capacity must be >= 1")
        capacities.append(None)  # the last stage hands over to no queue

    enter = [[0.0] * stages for _ in range(items)]
    finish = [[0.0] * stages for _ in range(items)]
    stage_free = [0.0] * stages
    busy = [0.0] * stages
    idle = [0.0] * stages
    blocked = [0.0] * stages
    for i in range(items):
        upstream_done = 0.0
        for s in range(stages):
            start = max(upstream_done, stage_free[s])
            # Wait the stage experienced before taking this item. For the
            # last stage count the very first wait too (kernel launch
            # waits for the first tile); earlier stages' initial fill is
            # structural, not idle.
            if i > 0 or s == stages - 1:
                idle[s] += start - stage_free[s]
            duration = stage_times[i][s]
            if duration < 0:
                raise ValueError("negative stage duration")
            end = start + duration
            busy[s] += duration
            # departure: wait for a slot in the downstream queue
            leave = end
            capacity = capacities[s]
            if capacity is not None and i >= capacity:
                leave = max(end, enter[i - capacity][s + 1])
            blocked[s] += leave - end
            enter[i][s] = start
            finish[i][s] = leave
            stage_free[s] = leave
            upstream_done = leave
            if trace is not None and duration > 0:
                trace.span(f"{stream}/{names[s]}", start, end,
                           name=names[s], item=i)
    total = finish[-1][-1]
    return PipelineResult(total_time=total, stage_names=names,
                          stage_busy=busy, stage_idle=idle,
                          finish_times=finish, stage_blocked=blocked)

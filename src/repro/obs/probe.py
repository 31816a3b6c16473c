"""The observation bus: one :class:`Probe` per system.

A probe holds up to three subscribers — a
:class:`~repro.runtime.trace.TraceRecorder` (``trace``), a
:class:`~repro.obs.metrics.MetricsRegistry` (``metrics``) and a live
:class:`~repro.obs.monitor.Monitor` (``monitor``). Every timed layer
holds a single ``probe`` attribute, ``None`` while nothing it emits has
a subscriber, and emits typed events through it; the probe fans each
event out to the attached subscribers. Nothing feeds back into timing.

A :class:`~repro.cluster.DevicePool` member gets a device-scoped probe
(:meth:`Probe.scoped`): resources are prefixed ``dN:`` (``d0:ch3/bk1``),
metric names ``dN.`` (``d0.flash.nand_read``), and op context is left
to the host scheduler, so a member's synchronous facade neither
overrides the executing host op nor opens an "ops" lane of its own.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Probe"]


class Probe:
    """Fans typed observation events out to trace, metrics and monitor."""

    __slots__ = ("trace", "metrics", "monitor", "device", "_res", "_met")

    def __init__(self, trace=None, metrics=None, monitor=None,
                 device: Optional[int] = None) -> None:
        self.trace = trace
        self.metrics = metrics
        self.monitor = monitor
        #: pool member id (None for a host-level probe)
        self.device = device
        self._res = "" if device is None else f"d{device}:"
        self._met = "" if device is None else f"d{device}."

    def scoped(self, device: int) -> "Probe":
        """The probe of pool member ``device``: this probe's trace and
        metrics under the device's prefixes, without the monitor."""
        return Probe(self.trace, self.metrics, device=device)

    def span(self, resource: str, start: float, end: float, name: str,
             **args) -> None:
        if self.trace is not None:
            self.trace.span(self._res + resource, start, end, name=name,
                            **args)

    def instant(self, resource: str, time: float, name: str,
                **args) -> None:
        if self.trace is not None:
            self.trace.instant(self._res + resource, time, name=name,
                               **args)

    def counter(self, resource: str, time: float, name: str,
                **series) -> None:
        if self.trace is not None:
            self.trace.counter(self._res + resource, time, name, **series)

    def count(self, name: str, amount=1) -> None:
        if self.metrics is not None:
            self.metrics.count(self._met + name, amount)

    def stage(self, resource: str, name: str, metric: str, start: float,
              end: float) -> None:
        """One service interval of a pipeline stage: a span on
        ``resource`` and its duration under ``metric``."""
        if self.trace is not None:
            self.trace.span(self._res + resource, start, end, name=name)
        if self.metrics is not None:
            self.metrics.observe(self._met + metric, end - start)

    def copy(self, start: float, end: float, duration: float,
             num_bytes: int, label: str) -> None:
        """One host copy-core reservation."""
        if self.trace is not None:
            self.trace.span(self._res + "host_copy", start, end, name=label,
                            bytes=num_bytes)
        if self.metrics is not None:
            self.metrics.observe(self._met + "host.copy", duration)
            self.metrics.count(self._met + "host.copy.bytes", num_bytes)

    def transfer(self, start: float, end: float, num_bytes: int) -> None:
        """One link transfer."""
        if self.trace is not None:
            self.trace.span(self._res + "link", start, end,
                            name="link_transfer", bytes=num_bytes)
        if self.metrics is not None:
            self.metrics.observe(self._met + "link.transfer", end - start)
            self.metrics.count(self._met + "link.bytes", num_bytes)

    def assemble(self, start: float, end: float, num_bytes: int) -> None:
        """One controller data-assembler move."""
        if self.trace is not None:
            self.trace.span(self._res + "ctrl_assemble", start, end,
                            name="assemble", bytes=num_bytes)
        if self.metrics is not None:
            self.metrics.observe(self._met + "ctrl.assemble", end - start)
            self.metrics.count(self._met + "ctrl.assemble.bytes", num_bytes)

    # flash events; every flash line interval also counts toward
    # ``timeline.<line>.busy_seconds`` / ``.reservations``
    def _line(self, line: str, start: float, end: float,
              span: Optional[str], metric: Optional[str], **args) -> None:
        if self.trace is not None and span is not None:
            self.trace.span(self._res + line, start, end, name=span, **args)
        if self.metrics is not None:
            name = "timeline." + self._met + line
            self.metrics.count(name + ".busy_seconds", end - start)
            self.metrics.count(name + ".reservations")
            if metric is not None:
                self.metrics.observe(self._met + metric, end - start)

    def page_read(self, bank: str, channel: str, read_start: float,
                  read_end: float, xfer_start: float, xfer_end: float,
                  page_bytes: int) -> None:
        """One page sensed on ``bank`` and moved out over ``channel``."""
        self._line(bank, read_start, read_end, "nand_read",
                   "flash.nand_read")
        self._line(channel, xfer_start, xfer_end, "page_out",
                   "flash.page_out", bytes=page_bytes)
        self.count("flash.pages_read")

    def read_retry(self, bank: str, channel: str, retry_start: float,
                   retry_end: float, xfer_start: float, xfer_end: float,
                   page_bytes: int) -> None:
        """One step of the ECC read-retry ladder."""
        self._line(bank, retry_start, retry_end, "read_retry",
                   "flash.read_retry")
        self._line(channel, xfer_start, xfer_end, "page_out_retry", None,
                   bytes=page_bytes)

    def page_program(self, channel: str, bank: str, xfer_start: float,
                     xfer_end: float, prog_start: float, prog_end: float,
                     page_bytes: int) -> None:
        """One page moved in over ``channel`` and programmed on
        ``bank``."""
        self._line(channel, xfer_start, xfer_end, "page_in",
                   "flash.page_in", bytes=page_bytes)
        self._line(bank, prog_start, prog_end, "nand_program",
                   "flash.nand_program")
        self.count("flash.pages_programmed")

    def erase(self, bank: str, start: float, end: float,
              failed: bool) -> None:
        """One block erase on ``bank`` (untraced); a failed erase
        occupied the bank but erased nothing."""
        self._line(bank, start, end, None, None if failed else "flash.erase")
        if not failed:
            self.count("flash.blocks_erased")

    def gc(self, layer: str, now: float, end: float, channel: int,
           bank: int, relocated_key: str, relocated: int,
           blocks_erased: int) -> None:
        """One GC invocation that ran in ``(channel, bank)``: ``layer``
        is ``"stl"`` or ``"ftl"``, ``relocated_key`` names what it moved
        (``units_relocated`` / ``pages_relocated``)."""
        if self.metrics is not None:
            met = self._met + layer
            self.metrics.observe(met + ".gc", end - now)
            self.metrics.count(met + ".gc.collections")
            self.metrics.count(f"{met}.gc.{relocated_key}", relocated)
            self.metrics.count(met + ".gc.blocks_erased", blocks_erased)
        if self.trace is not None:
            self.trace.instant(
                self._res + "gc", end, name="gc", start=now,
                duration=end - now, channel=channel, bank=bank,
                blocks_erased=blocks_erased, **{relocated_key: relocated})

    def op_begin(self, stream: str, op_id: int) -> None:
        """An op starts executing: component spans recorded until
        :meth:`op_end` inherit its context (host probes only)."""
        if self.trace is not None and self.device is None:
            self.trace.push_op(stream, op_id)

    def op_end(self) -> None:
        if self.trace is not None and self.device is None:
            self.trace.pop_op()

    def op_done(self, op, result, latency_target: Optional[float],
                violated: bool, cache: Optional[dict]) -> None:
        """One executed op, after the scheduler's accounting; ``cache``
        holds the op's DRAM-tier counter deltas."""
        if self.metrics is not None:
            met = self._met
            self.metrics.observe(met + "sched.queue_wait",
                                 result.start_time - op.submit_time)
            self.metrics.observe(met + "sched.service",
                                 result.end_time - result.start_time)
            self.metrics.observe(met + "sched.latency",
                                 result.end_time - op.submit_time)
            self.metrics.count(met + "sched.ops")
        if self.trace is not None:
            if self.device is None:
                self.trace.op_span(
                    op.stream, op.op_id, op.label, result.start_time,
                    result.end_time, kind=op.kind, dataset=op.dataset,
                    queue_wait=result.start_time - op.submit_time,
                    submit=op.submit_time)
            if violated:
                self.trace.instant(
                    self._res + "slo", result.end_time,
                    name="slo_violation", stream=op.stream, op_id=op.op_id,
                    latency=result.end_time - op.submit_time,
                    target=latency_target)
        if self.monitor is not None:
            self.monitor.note_op(op, violated, cache)

    # open-loop traffic
    def offered(self, stream: str, time: float) -> None:
        if self.metrics is not None:
            self.metrics.count(self._met + "traffic.offered")
        if self.monitor is not None:
            self.monitor.note_offered(stream, time)

    def shed(self, stream: str, time: float, reason: str) -> None:
        if self.metrics is not None:
            self.metrics.count(f"{self._met}traffic.shed_{reason}")
        if self.monitor is not None:
            self.monitor.note_shed(stream, time, reason)

    def backlog(self, stream: str, time: float, depth: int) -> None:
        if self.metrics is not None:
            self.metrics.observe(self._met + "traffic.backlog",
                                 float(depth))
        if self.monitor is not None:
            self.monitor.note_backlog(stream, time, depth)

    def request_done(self, stream: str, arrival: float,
                     finish: float) -> None:
        if self.monitor is not None:
            self.monitor.note_request(stream, arrival, finish)

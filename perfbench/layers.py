"""Per-layer wall-time split of the simulator, measured from outside.

:class:`LayerTrace` wraps the public entry points of each ``repro.*``
layer (the table :data:`ENTRY_POINTS`) with a timing shim that keeps a
span stack. A layer's *self time* is its span time minus the time of
wrapped child spans inside it, so self times never double count and
their sum never exceeds the traced wall time. Counters come from the
wrappers' arguments and return values and from the simulator's own
public counters, diffed around the timed phase (:func:`snapshot`).

The wrappers touch no simulator state: which code path runs does not
depend on them (the traced fingerprint must equal the untraced one).
Install them before any system is built, and uninstall them after.
Host-speed samples taken inside a span count in no layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from hostspeed import SpeedTrack

__all__ = ["ENTRY_POINTS", "LAYER_METRICS", "LayerTrace", "entry_objects",
           "snapshot", "layer_metrics"]


def _count_len(key: str, position: int) -> Callable:
    """Count hook: add ``len(args[position])`` to ``key``."""
    def hook(counts, args, result) -> None:
        counts[key] += len(args[position])
    return hook


def _count_gc(erased: str, relocated: str, relocated_attr: str) -> Callable:
    def hook(counts, args, result) -> None:
        counts[erased] += result.blocks_erased
        counts[relocated] += getattr(result, relocated_attr)
    return hook


def _count_background(counts, args, result) -> None:
    counts["core.gc.background_useful"] += result.blocks_erased > 0


def _count_requests(counts, args, result) -> None:
    counts["traffic.injector.requests"] += result.offered


#: (layer, module, class or None for module functions, names, count hook)
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...],
                          Optional[Callable]], ...] = (
    ("systems", "repro.runtime.scheduler", "RequestScheduler",
     ("execute",), None),
    ("traffic.injector", "repro.traffic.injector", "OpenLoopInjector",
     ("run",), _count_requests),
    ("cache.tier", "repro.cache.tier", "HostTierCache",
     ("lookup", "insert", "flush_entry"), None),
    ("cluster.translation", "repro.cluster.translation",
     "ClusterTranslationLayer", ("execute",), None),
    ("cluster.gc_offer", "repro.cluster.translation", "GcCoordinator",
     ("offer",), None),
    ("core.gc", "repro.core.gc", "NdsGarbageCollector", ("collect",),
     _count_gc("core.gc.blocks_erased", "core.gc.pages_relocated",
               "units_relocated")),
    ("core.gc", "repro.core.gc", "NdsGarbageCollector",
     ("collect_background",), _count_background),
    ("core.translator", "repro.core.translator", None,
     ("translate_region", "pages_for_region"), None),
    ("core.stl", "repro.core.stl", "SpaceTranslationLayer",
     ("read_block", "write_block", "read_region", "write_region"), None),
    ("core.allocator", "repro.core.allocator", "NdsAllocator",
     ("allocate",), None),
    ("ftl.ssd", "repro.ftl.ssd", "BaselineSSD", ("read_lpns", "write_lpns"),
     _count_len("ftl.ssd.lpns", 1)),
    ("ftl.gc", "repro.ftl.gc", "GarbageCollector", ("collect",),
     _count_gc("ftl.gc.blocks_erased", "ftl.gc.pages_relocated",
               "pages_relocated")),
    ("host.io_engine", "repro.host.io_engine", "HostIoEngine",
     ("run_reads", "run_writes"), _count_len("host.io_engine.requests", 1)),
    ("nvm.flash", "repro.nvm.flash", "FlashArray",
     ("read_pages", "program_pages", "erase_block"), None),
)

LAYERS = tuple(dict.fromkeys(entry[0] for entry in ENTRY_POINTS))

#: every per-layer metric: name -> (unit, better)
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "systems.self_s": ("s", "lower"),
    "traffic.injector.self_s": ("s", "lower"),
    "traffic.injector.requests": ("count", "higher"),
    "cache.tier.calls": ("count", "lower"),
    "cache.tier.self_s": ("s", "lower"),
    "cache.tier.hit_ratio": ("ratio", "higher"),
    "cache.tier.evictions": ("count", "lower"),
    "cache.tier.writebacks": ("count", "lower"),
    "cluster.translation.calls": ("count", "lower"),
    "cluster.translation.self_s": ("s", "lower"),
    "cluster.translation.subops_per_op": ("subops/op", "lower"),
    "cluster.gc_offer.calls": ("count", "lower"),
    "cluster.gc_offer.self_s": ("s", "lower"),
    "core.gc.background_calls": ("count", "lower"),
    "core.gc.background_useful_ratio": ("ratio", "higher"),
    "core.gc.collect_calls": ("count", "lower"),
    "core.gc.blocks_erased": ("count", "lower"),
    "core.gc.pages_relocated": ("count", "lower"),
    "core.gc.self_s": ("s", "lower"),
    "core.translator.calls": ("count", "lower"),
    "core.translator.memo_hit_ratio": ("ratio", "higher"),
    "core.translator.self_s": ("s", "lower"),
    "core.stl.region_ops": ("count", "lower"),
    "core.stl.self_s": ("s", "lower"),
    "core.allocator.calls": ("count", "lower"),
    "core.allocator.self_s": ("s", "lower"),
    "ftl.ssd.lpns": ("count", "lower"),
    "ftl.ssd.self_s": ("s", "lower"),
    "ftl.gc.collect_calls": ("count", "lower"),
    "ftl.gc.blocks_erased": ("count", "lower"),
    "ftl.gc.pages_relocated": ("count", "lower"),
    "ftl.gc.self_s": ("s", "lower"),
    "host.io_engine.requests": ("count", "lower"),
    "host.io_engine.self_s": ("s", "lower"),
    "nvm.flash.pages_read": ("count", "lower"),
    "nvm.flash.pages_programmed": ("count", "lower"),
    "nvm.flash.blocks_erased": ("count", "lower"),
    "nvm.flash.write_amp": ("ratio", "lower"),
    "nvm.flash.self_s": ("s", "lower"),
    "python.gc_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class LayerTrace:
    """Span-stack wall-time profiler over :data:`ENTRY_POINTS`."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: calls per ``(layer, function name)``
        self.calls: Counter = Counter()
        #: counters filled by the entry points' count hooks
        self.counts: Counter = Counter()
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero every figure (after set-up, before the timed phase)."""
        for layer in self.self_s:
            self.self_s[layer] = 0.0
        self.calls.clear()
        self.counts.clear()

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable,
              hook: Optional[Callable]) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        counts = self.counts
        key = (layer, fn.__name__)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]  # wall time of wrapped children
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                calls[key] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return span

    def _unaccounted(self, fn: Callable) -> Callable:
        """Wrap benchmark-side work that runs inside layer spans (the
        host-speed samples): its time counts as a child of the enclosing
        span, so it lands in no layer's self time."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def hidden(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    stack[-1][0] += clock() - start

        return hidden

    def install(self) -> None:
        """Wrap every entry point. A module function imported by name
        is rebound in every loaded ``repro`` module that holds it."""
        if self._patches:
            raise RuntimeError("layer trace already installed")
        self._patch(SpeedTrack, "sample",
                    self._unaccounted(SpeedTrack.__dict__["sample"]))
        importlib.import_module("repro.systems")
        for layer, module_name, class_name, names, hook in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            for name in names:
                if class_name is not None:
                    owner = getattr(module, class_name)
                    original = owner.__dict__[name]
                    self._patch(owner, name, self._wrap(layer, original,
                                                        hook))
                    continue
                original = getattr(module, name)
                wrapped = self._wrap(layer, original, hook)
                for loaded in list(sys.modules.values()):
                    if (getattr(loaded, "__name__", "").startswith("repro")
                            and getattr(loaded, name, None) is original):
                        self._patch(loaded, name, wrapped)

    def _patch(self, owner, name: str, wrapped) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def layer_calls(self, layer: str) -> int:
        return sum(count for (owner, _name), count in self.calls.items()
                   if owner == layer)


def entry_objects() -> Dict[Tuple[str, str], object]:
    """Every entry point as currently bound; equal before
    :meth:`LayerTrace.install` and after :meth:`LayerTrace.uninstall`."""
    objects = {}
    for _layer, module_name, class_name, names, _hook in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        for name in names:
            if class_name is not None:
                owner = getattr(module, class_name)
                objects[(f"{module_name}.{class_name}", name)] = \
                    owner.__dict__[name]
                continue
            for loaded in list(sys.modules.values()):
                loaded_name = getattr(loaded, "__name__", "")
                if loaded_name.startswith("repro") and hasattr(loaded, name):
                    objects[(loaded_name, name)] = getattr(loaded, name)
    return objects


# ----------------------------------------------------------------------
# counters the simulator keeps itself
# ----------------------------------------------------------------------
def snapshot(system, members) -> Dict[str, float]:
    """Public simulator counters of ``system`` (``members`` are its
    single-device systems); diff two snapshots around a phase."""
    from repro.core.translator import translation_cache_stats
    out: Counter = Counter()
    for member in members:
        flash = getattr(member, "flash", None)
        ssd = getattr(member, "ssd", None)
        if flash is None and ssd is not None:
            flash = ssd.flash
        if flash is not None:
            counters = flash.stats.counters
            out["flash.pages_read"] += counters.get("pages_read", 0)
            out["flash.pages_programmed"] += counters.get(
                "pages_programmed", 0)
            out["flash.blocks_erased"] += counters.get("blocks_erased", 0)
        for holder in (getattr(member, "stl", None), ssd):
            gc = getattr(holder, "gc", None)
            if gc is not None:
                out["gc.relocated"] += gc.total_relocated
    cache = system.cache_counters()
    for key in ("hits", "misses", "evictions", "writebacks"):
        out[f"cache.{key}"] += (cache or {}).get(key, 0)
    devices = system.device_report() or {}
    out["cluster.subops"] += sum(d["subops"] for d in devices.values())
    memo = translation_cache_stats()
    out["memo.hits"] += memo["region_hits"] + memo["pages_hits"]
    out["memo.lookups"] += sum(memo.values())
    return dict(out)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: LayerTrace, before: Dict[str, float],
                  after: Dict[str, float], traced, untraced
                  ) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value of one traced timed phase
    (``traced``/``untraced`` are the two runs' phases). Times are
    scaled to the nominal host speed by the traced phase's factor."""
    delta = {key: after.get(key, 0) - before.get(key, 0)
             for key in set(before) | set(after)}
    factor = traced.factor
    self_s = trace.self_s
    counts = trace.counts
    calls = trace.calls
    programmed = delta["flash.pages_programmed"]
    user_programmed = programmed - delta["gc.relocated"]
    translation_calls = trace.layer_calls("cluster.translation")
    out = {f"{layer}.self_s": self_s[layer] / factor for layer in LAYERS}
    out.update({
        "traffic.injector.requests": counts["traffic.injector.requests"],
        "cache.tier.calls": trace.layer_calls("cache.tier"),
        "cache.tier.hit_ratio": _ratio(
            delta["cache.hits"],
            delta["cache.hits"] + delta["cache.misses"]),
        "cache.tier.evictions": delta["cache.evictions"],
        "cache.tier.writebacks": delta["cache.writebacks"],
        "cluster.translation.calls": translation_calls,
        "cluster.translation.subops_per_op": _ratio(
            delta["cluster.subops"], translation_calls),
        "cluster.gc_offer.calls": trace.layer_calls("cluster.gc_offer"),
        "core.gc.background_calls": calls[("core.gc", "collect_background")],
        "core.gc.background_useful_ratio": _ratio(
            counts["core.gc.background_useful"],
            calls[("core.gc", "collect_background")]),
        "core.gc.collect_calls": calls[("core.gc", "collect")],
        "core.gc.blocks_erased": counts["core.gc.blocks_erased"],
        "core.gc.pages_relocated": counts["core.gc.pages_relocated"],
        "core.translator.calls": trace.layer_calls("core.translator"),
        "core.translator.memo_hit_ratio": _ratio(delta["memo.hits"],
                                                 delta["memo.lookups"]),
        "core.stl.region_ops": trace.layer_calls("core.stl"),
        "core.allocator.calls": trace.layer_calls("core.allocator"),
        "ftl.ssd.lpns": counts["ftl.ssd.lpns"],
        "ftl.gc.collect_calls": calls[("ftl.gc", "collect")],
        "ftl.gc.blocks_erased": counts["ftl.gc.blocks_erased"],
        "ftl.gc.pages_relocated": counts["ftl.gc.pages_relocated"],
        "host.io_engine.requests": counts["host.io_engine.requests"],
        "nvm.flash.pages_read": delta["flash.pages_read"],
        "nvm.flash.pages_programmed": programmed,
        "nvm.flash.blocks_erased": delta["flash.blocks_erased"],
        "nvm.flash.write_amp": _ratio(programmed, user_programmed),
        "python.gc_s": untraced.gc_seconds,
        "harness.self_s": (traced.raw_wall - sum(self_s.values())) / factor,
        "trace.overhead_s": traced.wall - untraced.wall,
    })
    return out

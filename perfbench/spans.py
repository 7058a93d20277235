"""Span recording for the traced run, from outside the program.

The untraced run installs nothing.  The traced run wraps a few public
``repro`` functions and methods at the layer boundaries that sit *inside*
a scheme run (the overlay build inside scheme construction, placement
inside Hier-GD's first request, the fault ladder inside replay, the shard
coordinator's digest work) and restores every original afterwards.

A span records its name, start, end, parent and point id; spans stay in
memory until the run ends.  Calls too frequent for one span each (a
ladder per cooperation hop, a digest per shard per round) are summed
into one *aggregate* span per enclosing span, so self time is still
``duration - time covered by children`` for every span.  A span's layer
is the first dotted component of its name.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("workload", "overlay", "placement", "core", "protocol", "shard")


class Tracer:
    """In-memory span tree plus the exact counts taken at the same seams."""

    def __init__(self, spans: list[dict] = ()) -> None:
        #: Closed top-level spans to start from (the traced set-up's).
        self.spans: list[dict] = [dict(s) for s in spans]
        self._open: list[int] = []
        self._agg: dict[tuple[int, str], list[float]] = {}
        self.point: str | None = None
        self.counts: dict[str, float] = defaultdict(float)
        #: The scheme whose ``run`` was entered last (for op counters).
        self.last_scheme = None
        self._shard_mark: float | None = None

    def open(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "point": self.point, **attrs})
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._open.remove(index)
        self._flush(index)

    @contextmanager
    def span(self, name: str, **attrs):
        index = self.open(name, **attrs)
        try:
            yield
        finally:
            self.close(index)

    def aggregate(self, name: str, seconds: float) -> None:
        """Add one short call to the innermost open span's aggregate child.

        Every wrapped seam runs inside a point span, so one is open."""
        key = (self._open[-1], name)
        slot = self._agg.setdefault(key, [0.0, 0])
        slot[0] += seconds
        slot[1] += 1

    def _flush(self, parent: int) -> None:
        start = self.spans[parent]["start"]
        for key in [k for k in self._agg if k[0] == parent]:
            total, calls = self._agg.pop(key)
            self.spans.append({"name": key[1], "start": start, "end": start + total,
                               "parent": parent, "point": self.spans[parent]["point"],
                               "calls": calls})

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus their children's."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(self.spans):
            out[s["name"].split(".")[0]] += s["end"] - s["start"] - covered[i]
        return out

    # -- shard coordinator accounting -------------------------------------

    def shard_started(self) -> None:
        self._shard_mark = time.perf_counter()

    def shard_work(self, start: float, end: float) -> None:
        """One stretch of coordinator work; the gap before it was waiting."""
        if self._shard_mark is not None:
            self.counts["shard.coordinator_wait_s"] += start - self._shard_mark
        self._shard_mark = end
        self.aggregate("shard.merge", end - start)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the layer seams; returns the originals for :func:`uninstall`."""
    import repro.core.hiergd as hiergd
    import repro.core.schemes.squirrel as squirrel
    import repro.shard.engine as shard_engine
    from repro.core.simulator import CachingScheme
    from repro.overlay.chord import ChordOverlay
    from repro.overlay.network import Overlay
    from repro.protocol.transport import FaultTransport

    saved = []

    def patch(owner, attr, make):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def overlay_build(original):
        def wrapped(self, names):
            with tracer.span(f"overlay.{self.name}.build", nodes=len(names)):
                nodes = original(self, names)
            tracer.counts["overlay.nodes_built"] += len(names)
            return nodes
        return wrapped

    def overlay_join(original):
        def wrapped(self, name):
            t0 = time.perf_counter()
            node = original(self, name)
            tracer.aggregate(f"overlay.{self.name}.build", time.perf_counter() - t0)
            tracer.counts["overlay.nodes_built"] += 1
            return node
        return wrapped

    def spanned(name, counter=None):
        def make(original):
            def wrapped(*args, **kwargs):
                with tracer.span(name):
                    out = original(*args, **kwargs)
                if counter:
                    tracer.counts[counter] += 1
                return out
            return wrapped
        return make

    def scheme_run(original):
        def wrapped(self):
            tracer.last_scheme = self
            with tracer.span("core.run"):
                return original(self)
        return wrapped

    def ladder(original):
        def wrapped(self, exchange, force_fail=False):
            if exchange.link is None or not self.faulty:
                return original(self, exchange, force_fail)
            before = self.fault_counters.get("timeouts", 0)
            t0 = time.perf_counter()
            ok = original(self, exchange, force_fail)
            tracer.aggregate("protocol.attempt", time.perf_counter() - t0)
            tracer.counts["protocol.exchanges"] += 1
            if ok and self.fault_counters.get("timeouts", 0) == before:
                tracer.counts["protocol.first_try"] += 1
            return ok
        return wrapped

    def coordinator(original, count_bytes=False):
        def wrapped(*args):
            t0 = time.perf_counter()
            out = original(*args)
            tracer.shard_work(t0, time.perf_counter())
            if count_bytes:
                tracer.counts["shard.digest_bytes"] += len(args[0])
            return out
        return wrapped

    for cls in (Overlay, ChordOverlay):
        patch(cls, "bulk_add_named", overlay_build)
        patch(cls, "add_named", overlay_join)
    for module in (hiergd, squirrel):
        patch(module, "object_ids_for_urls", spanned("placement.object_ids"))
        patch(module, "build_owner_table",
              spanned("placement.owner_table", "placement.builds"))
    patch(CachingScheme, "run", scheme_run)
    patch(FaultTransport, "attempt", ladder)
    patch(shard_engine, "decode_digest", lambda f: coordinator(f, count_bytes=True))
    patch(shard_engine, "merge_digests", coordinator)
    patch(shard_engine, "encode_merged", coordinator)
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)

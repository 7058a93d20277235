"""Trace-driven simulation engine.

The paper evaluates every scheme by replaying request traces against the
cache hierarchy and accumulating client-perceived latency (§5.1).  This
module provides the engine those schemes plug into:

* :class:`CachingScheme` — the per-scheme contract: given (cluster,
  client, object), decide which tier serves the request, mutating cache
  state along the way.
* :meth:`CachingScheme.run` — replays the per-cluster traces round-robin
  (request i of every cluster before request i+1 of any; the traces carry
  no timestamps because the paper's clusters are statistically
  identical), maps each served tier to its latency, and assembles the
  :class:`~repro.core.metrics.SchemeResult`.

The engine is deliberately minimal: all intelligence lives in the
schemes, so the simulator core stays identical for the upper-bound
models and the mechanism-level Hier-GD, and a measured difference between
two schemes can only come from the schemes themselves.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter, deque
from itertools import islice

import numpy as np

from ..netmodel import ALL_TIERS
from ..protocol.transport import Transport
from ..workload import Trace
from .config import ClusterSizing, SimulationConfig
from .metrics import SchemeResult

__all__ = ["CachingScheme"]


class CachingScheme(ABC):
    """Base class for all caching schemes (NC … FC-EC, Hier-GD)."""

    #: Registry name; subclasses must override.
    name = "abstract"

    def __init__(
        self,
        config: SimulationConfig,
        traces: list[Trace],
        transport: Transport | None = None,
    ) -> None:
        if len(traces) != config.n_proxies:
            raise ValueError(
                f"{config.n_proxies} proxies need {config.n_proxies} traces, "
                f"got {len(traces)}"
            )
        if not traces:
            raise ValueError("at least one trace required")
        self.config = config
        self.traces = traces
        sized = [getattr(t, "sizes", None) is not None for t in traces]
        if any(sized) and not all(sized):
            raise ValueError("all cluster traces must agree on carrying sizes")
        #: Shared per-object size table (bytes) when the workload carries
        #: sizes, else ``None``.  It is one Web: every cluster's trace is
        #: built over the same object universe, so the table from any
        #: trace serves all clusters.
        self.sizes = traces[0].sizes if sized[0] else None
        #: Same table as a plain list (fast per-request indexing).
        self._size_list = self.sizes.tolist() if self.sizes is not None else None
        self.sizings: list[ClusterSizing] = [config.sizing_for(t) for t in traces]
        #: Latency not attributable to a serving tier (e.g. wasted rounds
        #: caused by Bloom-directory false positives); added to the total.
        #: Schemes must report it through :meth:`add_extra_latency` so it
        #: respects the warmup window.
        self.extra_latency = 0.0
        self._in_warmup = False
        #: The cooperation-message carrier (:mod:`repro.protocol`): the
        #: base transport is the fault-free identity; a fault/observability
        #: stack gives the *same* scheme failure semantics or telemetry.
        self.transport = Transport(config.network) if transport is None else transport
        self.transport.bind(self)

    def add_extra_latency(self, amount: float) -> None:
        """Record off-tier latency (ignored during the warmup window)."""
        if not self._in_warmup:
            self.extra_latency += amount

    def _size_of(self, obj: int) -> int:
        """Object size in cache-capacity units (1 when sizes are off)."""
        return 1 if self._size_list is None else self._size_list[obj]

    # -- scheme contract ----------------------------------------------------

    @abstractmethod
    def process(self, cluster: int, client: int, obj: int) -> str:
        """Serve one request; return the serving tier (see netmodel)."""

    def finalize(self) -> tuple[dict[str, int], dict[str, float]]:
        """(messages, extras) accounting collected during the run.

        Upper-bound schemes have no protocol messages; Hier-GD overrides.
        """
        return {}, {}

    # -- engine ----------------------------------------------------------------

    def _warmup_requests(self, total_expected: int) -> int:
        """Requests excluded from statistics while caches warm.

        Sharded workers override this: their warmup window is a slice of
        the *global* round-robin stream, not a fraction of the local one.
        """
        return int(self.config.warmup_fraction * total_expected)

    def _block_requests(self, length: int) -> int:
        """Per-cluster request indexes flattened per engine iteration.

        In-memory traces flatten the whole interleave at once (one numpy
        transpose); chunk-backed traces bound live memory by
        flattening one chunk window at a time — same request order, same
        results, flat RSS.
        """
        block = length
        for t in self.traces:
            if getattr(t, "chunked", False):
                block = min(block, t.chunk_requests)
        return max(1, block)

    def _after_block(self, upto: int) -> None:
        """Hook: one flattened block (requests ``[·, upto)`` of every
        cluster) has been fully processed.  No-op here; sharded workers
        override it to exchange presence digests at round boundaries
        (:mod:`repro.shard`)."""

    def _interleave(self, a: int, b: int) -> tuple[list, list, list]:
        """Requests ``[a, b)`` of every cluster, flattened round-robin.

        Returns parallel (cluster, client, object) lists.  One numpy
        transpose per block; ragged traces (hand-built tests) pad their
        exhausted clusters and drop those slots again, so the order is
        the round-robin one with finished clusters skipped.
        """
        n_clusters = len(self.traces)
        rows = b - a
        objs, clients = [], []
        ragged = False
        for t in self.traces:
            live = min(b, len(t)) - a
            if live >= rows:
                objs.append(t.object_slice(a, b))
                clients.append(t.client_slice(a, b))
                continue
            ragged = True
            o = np.zeros(rows, dtype=np.int64)
            c = np.zeros(rows, dtype=np.int32)
            if live > 0:
                o[:live] = t.object_slice(a, a + live)
                c[:live] = t.client_slice(a, a + live)
            objs.append(o)
            clients.append(c)
        flat_objs = np.stack(objs, axis=1).ravel()
        flat_clients = np.stack(clients, axis=1).ravel()
        if not ragged:
            clusters = list(range(n_clusters)) * rows
            return clusters, flat_clients.tolist(), flat_objs.tolist()
        stops = np.array([len(t) for t in self.traces]) - a
        keep = (np.arange(rows)[:, None] < stops[None, :]).ravel()
        clusters = np.tile(np.arange(n_clusters), rows)[keep]
        return clusters.tolist(), flat_clients[keep].tolist(), flat_objs[keep].tolist()

    def run(self) -> SchemeResult:
        """Replay all traces and return the aggregated result.

        One block loop serves every run: each block of the round-robin
        interleave (the whole trace in memory, one chunk window for
        chunk-backed traces) is served inside ``map`` — no per-request
        interpreter iteration.  The warmup prefix is drained into a
        zero-length deque and ``_in_warmup`` flips exactly at request
        ``warmup_n``; the rest is tallied per tier by ``Counter``, with
        latency aggregated per tier at the end and, on sized runs, bytes
        summed per tier in exact integer arithmetic.
        """
        net = self.config.network
        latency_of = {tier: net.latency(tier) for tier in ALL_TIERS}
        longest = max(len(t) for t in self.traces)
        warmup_n = self._warmup_requests(sum(len(t) for t in self.traces))
        to_warm = warmup_n
        self._in_warmup = warmup_n > 0
        size_of = self._size_list
        counted: Counter = Counter()
        bytes_by_tier: Counter = Counter()
        block = self._block_requests(longest)
        for a in range(0, longest, block):
            b = min(longest, a + block)
            clusters, clients, objs = self._interleave(a, b)
            tiers = map(self.process, clusters, clients, objs)
            skip = 0
            if to_warm:
                skip = min(to_warm, len(objs))
                deque(islice(tiers, skip), maxlen=0)  # warm, not counted
                to_warm -= skip
                if to_warm == 0:
                    self._in_warmup = False
            if size_of is None:
                counted.update(tiers)
            else:
                served = list(tiers)
                counted.update(served)
                for tier, obj in zip(served, islice(objs, skip, None)):
                    bytes_by_tier[tier] += size_of[obj]
            self._after_block(b)
        self._in_warmup = False

        tier_counts = dict.fromkeys(ALL_TIERS, 0)
        tier_counts.update(counted)
        total_latency = sum(latency_of[t] * n for t, n in tier_counts.items() if n)
        messages, extras = self.finalize()
        if size_of is not None:
            extras = dict(extras)
            extras["bytes_total"] = float(sum(bytes_by_tier.values()))
            for tier in ALL_TIERS:
                if bytes_by_tier[tier]:
                    extras[f"bytes_{tier}"] = float(bytes_by_tier[tier])
            extras["byte_latency"] = float(
                sum(latency_of[t] * bytes_by_tier[t] for t in ALL_TIERS)
            )
        return SchemeResult(
            scheme=self.name,
            n_requests=sum(counted.values()),
            total_latency=total_latency + self.extra_latency,
            tier_counts={t: n for t, n in tier_counts.items() if n},
            messages=messages,
            extras=extras,
        )

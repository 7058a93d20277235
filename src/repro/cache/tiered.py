"""Two-tier unified cache — the paper's model for the -EC schemes.

For NC-EC / SC-EC / FC-EC the paper simulates a proxy and its P2P client
cache as caches that "share cache contents and coordinate replacement so
that they appear as one unified cache" (§2), with the P2P client cache
modelled "as one single cache whose size is the sum of all client cache
sizes" (§5.1).  Latency-wise the two halves differ: a hit served from the
proxy tier costs ``Tl`` while a hit served from the client tier costs an
extra ``Tp2p`` LAN fetch — so *which tier holds an object matters* even
though replacement is unified.

:class:`TieredCache` composes two proven pieces:

* **replacement** is one :class:`~repro.cache.lfu.LfuCache` over the
  *combined* capacity — exactly the "one unified cache" of the paper, so
  the -EC schemes can never hit less often than their plain counterparts
  with the same proxy size;
* **tier membership** is a :class:`~repro.cache.topk.TopKTracker`: the
  ``proxy_capacity`` most valuable residents count as the proxy tier
  (value = reference frequency by default; FC-EC supplies a cost-benefit
  ``value_fn``).  A resident whose value grows past the proxy minimum is
  promoted on access — operationally this is the object being re-fetched
  through the proxy, so the upper-bound model stays implementable.

A hit reports the tier the object was in *when the request arrived*
(promotion is a consequence of the fetch, not its source).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator

from .base import Cache
from .lfu import LfuCache
from .topk import TopKTracker

__all__ = ["TieredCache", "PROXY_TIER", "CLIENT_TIER"]

PROXY_TIER = "proxy"
CLIENT_TIER = "client"


class TieredCache(Cache):
    """Unified proxy + P2P-client cache: one LFU store, ranked tiers."""

    __slots__ = (
        "proxy_capacity",
        "client_capacity",
        "by_bytes",
        "_value_fn",
        "_store",
        "_tiers",
    )

    def __init__(
        self,
        proxy_capacity: int,
        client_capacity: int,
        value_fn: Callable[[Hashable, int], float] | None = None,
        lfu_reset_on_evict: bool = False,
        by_bytes: bool = False,
    ) -> None:
        """
        Parameters
        ----------
        proxy_capacity:
            Objects the proxy tier holds (hits cost ``Tl``).
        client_capacity:
            Objects the client tier (the aggregated P2P cache) holds.
        value_fn:
            ``(key, frequency) -> value`` ranking residents into tiers.
            Default: the frequency itself (the paper's unified LFU).
        lfu_reset_on_evict:
            Counting mode of the underlying unified LFU (see
            :class:`~repro.cache.lfu.LfuCache`).
        by_bytes:
            When True, both capacities are *byte* budgets and inserts
            carry per-object sizes: replacement runs the size-aware LFU
            and the proxy tier holds the most valuable residents whose
            summed bytes fit ``proxy_capacity``.
        """
        if proxy_capacity < 0 or client_capacity < 0:
            raise ValueError("capacities must be non-negative")
        super().__init__(proxy_capacity + client_capacity)
        self.proxy_capacity = proxy_capacity
        self.client_capacity = client_capacity
        self.by_bytes = by_bytes
        self._value_fn = value_fn or (lambda _key, freq: float(freq))
        self._store = LfuCache(self.capacity, reset_on_evict=lfu_reset_on_evict)
        self._tiers = TopKTracker(
            proxy_capacity, budget=proxy_capacity if by_bytes else None
        )
        self.stats = self._store.stats  # single source of truth

    # -- inspection --------------------------------------------------------

    def tier_of(self, key: Hashable) -> str | None:
        """Which tier holds ``key`` (no bookkeeping), or None."""
        if not self._store.contains(key):
            return None
        return PROXY_TIER if self._tiers.in_top(key) else CLIENT_TIER

    def contains(self, key: Hashable) -> bool:
        return self._store.contains(key)

    def __len__(self) -> int:
        return len(self._store)

    @property
    def proxy_len(self) -> int:
        return self._tiers.top_count

    @property
    def client_len(self) -> int:
        return len(self._store) - self.proxy_len

    def keys(self) -> Iterator[Hashable]:
        return self._store.keys()

    def frequency(self, key: Hashable) -> int:
        return self._store.frequency(key)

    def _value(self, key: Hashable) -> float:
        return self._value_fn(key, self._store.frequency(key))

    # -- policy operations --------------------------------------------------

    def lookup(self, key: Hashable) -> bool:
        return self.lookup_tier(key) is not None

    def lookup_tier(self, key: Hashable) -> str | None:
        """Reference ``key``; returns the serving tier or None on miss.

        The tier is the one the object was in *before* promotion; the
        hit path reads the friend ``LfuCache``/``TopKTracker`` internals
        directly to avoid re-probing membership three times.
        """
        store = self._store
        if key in store._sizes:
            tiers = self._tiers
            served = PROXY_TIER if key in tiers._top else CLIENT_TIER
            store.lookup(key)  # bumps the count, updates the LFU heap
            tiers.update(key, self._value_fn(key, store._freq[key]))
            return served
        store.lookup(key)  # a miss still counts as a reference
        return None

    def insert(self, key: Hashable, cost: float = 1.0, size: int = 1) -> list[Hashable]:
        """Admit a fetched object; unified LFU evicts the global minimum."""
        if size != 1 and not self.by_bytes:
            raise ValueError(
                "the unified EC model assumes unit object sizes "
                "(construct with by_bytes=True for size-aware mode)"
            )
        evicted = self._store.insert(key, size=size)
        for victim in evicted:
            self._tiers.remove(victim)
        if self._store.contains(key):
            self._tiers.add(key, self._value(key), size=size)
        return evicted

    def remove(self, key: Hashable) -> bool:
        self._tiers.remove(key)
        return self._store.remove(key)

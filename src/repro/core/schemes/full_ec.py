"""FC-EC — full coordination over proxy *and* P2P client caches (§2).

The strongest upper bound in the paper: "all proxies and P2P client
caches not only share their cached objects but also coordinate object
replacement decisions", with cost-benefit replacement under perfect
frequency knowledge.

Implementation reuses FC and adds only the tier split:

* the **global coordinated copy store** of :class:`FcScheme` (primary /
  duplicate copy values, greedy admission against the global minimum),
  inherited as is, with per-cluster capacity ``proxy_size + p2p_size``;
* a per-cluster :class:`~repro.cache.topk.TopKTracker` that partitions
  each cluster's copies into the proxy tier (the ``proxy_size`` most
  valuable copies, hits at ``Tl``) and the client tier (the rest, hits
  at ``Tl + Tp2p``) — the same hottest-objects-at-the-proxy discipline
  the unified -EC model uses, driven by copy values instead of raw
  frequency.

Serving a remote hit prefers a cluster holding the object in its proxy
tier (``Tc``) over one that must push it out of a client cache
(``Tc + Tp2p``).
"""

from __future__ import annotations

from ...cache.topk import TopKTracker
from ...netmodel import (
    TIER_COOP_P2P,
    TIER_COOP_PROXY,
    TIER_LOCAL_P2P,
    TIER_LOCAL_PROXY,
    TIER_SERVER,
)
from ...protocol.messages import PROXY_FETCH, PUSH
from ...protocol.transport import Transport
from ...workload import Trace
from ..config import SimulationConfig
from .full import FcScheme

__all__ = ["FcEcScheme"]


class FcEcScheme(FcScheme):
    """Full coordination across proxy caches and P2P client caches."""

    name = "fc-ec"

    def __init__(
        self,
        config: SimulationConfig,
        traces: list[Trace],
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        self.capacity = sum(s.proxy_size + s.p2p_size for s in self.sizings)
        self._tiers = [
            TopKTracker(
                s.proxy_size,
                budget=s.proxy_size if s.by_bytes else None,
            )
            for s in self.sizings
        ]

    # -- copy store hooks: keep each cluster's tier split in step ----------

    def _add_copy(self, obj: int, cluster: int) -> float:
        value = super()._add_copy(obj, cluster)
        self._tiers[cluster].add(obj, value, size=self._size_of(obj))
        return value

    def _drop_copy(self, obj: int, cluster: int) -> int | None:
        self._tiers[cluster].remove(obj)
        new_primary = super()._drop_copy(obj, cluster)
        if new_primary is not None:
            self._tiers[new_primary].update(
                obj, self._value(obj, new_primary, True)
            )
        return new_primary

    # -- request path ------------------------------------------------------

    def process(self, cluster: int, client: int, obj: int) -> str:
        if obj in self._local[cluster]:
            return (
                TIER_LOCAL_PROXY
                if self._tiers[cluster].in_top(obj)
                else TIER_LOCAL_P2P
            )
        # A remote proxy-tier hit rides the cooperating-proxy link and is
        # preferred over a remote client-tier hit, which rides the push
        # link (``Tc + Tp2p``).  Local tiers are LAN-side and fault-free,
        # matching the Hier-GD model where only cooperation links degrade.
        holders = self._holders.get(obj)
        if not holders:
            tier = TIER_SERVER
        else:
            for q in holders:
                if self._tiers[q].in_top(obj):
                    tier, exchange = TIER_COOP_PROXY, PROXY_FETCH
                    break
            else:
                tier, exchange = TIER_COOP_P2P, PUSH
            if self._faulty and not self.transport.attempt(exchange):
                tier = TIER_SERVER
        self._consider_copy(obj, cluster)
        return tier

"""NC and SC — the classical schemes without client caches (§2).

* **NC (No Cache Cooperation)** — every proxy runs a private LFU cache;
  a proxy miss always goes to the origin server.  NC is the baseline of
  the paper's latency-gain metric.
* **SC (Simple Cache Cooperation)** — proxies serve each other's misses:
  a proxy that misses locally probes its cooperating proxies and fetches
  from one that holds the object (at ``Tc``), then caches the object
  locally ("once a proxy fetches an object from another proxy, it caches
  the object locally" — duplication allowed, replacement uncoordinated).

Both use LFU replacement per §2, perfect-counting variant (DESIGN.md §5).
"""

from __future__ import annotations

from ...cache import LfuCache
from ...netmodel import TIER_COOP_PROXY, TIER_LOCAL_PROXY, TIER_SERVER
from ...protocol.transport import Transport
from ...workload import Trace
from ..config import SimulationConfig
from ..simulator import CachingScheme

__all__ = ["NcScheme", "ScScheme"]


class NcScheme(CachingScheme):
    """No cache cooperation: isolated per-proxy LFU caches."""

    name = "nc"

    def __init__(
        self,
        config: SimulationConfig,
        traces: list[Trace],
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        self.caches = [
            LfuCache(s.proxy_size, reset_on_evict=config.lfu_reset_on_evict)
            for s in self.sizings
        ]

    def process(self, cluster: int, client: int, obj: int) -> str:
        hit, _ = self.caches[cluster].lookup_or_insert(obj, size=self._size_of(obj))
        return TIER_LOCAL_PROXY if hit else TIER_SERVER


class ScScheme(NcScheme):
    """Simple cooperation: serve each other's misses, no coordination.

    Message accounting (for the overhead-vs-benefit discussion): every
    local miss probes the cooperating proxies ICP-style — one probe per
    co-proxy until a hit — and every remote hit costs one fetch.
    """

    name = "sc"

    def __init__(
        self,
        config: SimulationConfig,
        traces: list[Trace],
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        self._probes = 0
        self._coop_fetches = 0

    def process(self, cluster: int, client: int, obj: int) -> str:
        # Remote probes never touch the local cache, so the fused
        # lookup-or-insert may run before the scan.
        hit, _ = self.caches[cluster].lookup_or_insert(obj, size=self._size_of(obj))
        if hit:
            return TIER_LOCAL_PROXY
        # Probe cooperating proxies in ascending order (membership only:
        # a remote probe is not a local reference at the remote cache).
        for other, remote in enumerate(self.caches):
            if other != cluster:
                self._probes += 1
                if remote.contains(obj):
                    self._coop_fetches += 1
                    return TIER_COOP_PROXY
        return TIER_SERVER

    def finalize(self) -> tuple[dict[str, int], dict[str, float]]:
        return {"coop_probes": self._probes, "coop_fetches": self._coop_fetches}, {}

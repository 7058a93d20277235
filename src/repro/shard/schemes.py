"""Shard-aware scheme variants: global cluster ids + round digests.

A sharded worker owns a *subset* of the simulation's client clusters but
must cooperate with clusters living in other processes.  The variants
here are thin subclasses of the single-process schemes with three
changes:

* **Global ids.**  ``state.cluster`` and every presence-index entry use
  the cluster's *global* index, so a presence set can hold local and
  remote clusters side by side and ``first_holder`` picks exactly the
  cluster an all-in-one-process ascending scan would pick.
* **Round deltas.**  :meth:`collect_round` diffs each local cluster's
  proxy membership and P2P presence against the previous round boundary
  (plain set arithmetic — the hot path is never instrumented) and drains
  the round's outgoing cross-shard pushes; :meth:`apply_remote` folds
  the other shards' deltas into the local presence indexes and replays
  incoming pushes in global-position order.
* **Remote serves.**  Step 3 of the Hier-GD miss chain (cooperating
  proxy) needs no remote mutation at all, so a remote holder serves
  straight from the presence index.  Step 4 (push protocol) refreshes
  greedy-dual credit at the holder — a genuine remote write — so the
  requester queues a push record and the owning shard applies it at the
  next boundary.  A push whose object was evicted inside the staleness
  window is counted as ``stale_remote_pushes`` by the owner and
  (requester-side) still served: the paper's push protocol would have
  found the copy when the request was issued.

Multi-shard runs are **seed-stable** (same seed, same shard count, same
round size → identical results) but not byte-identical to the
single-process engine: remote presence is one round stale by design.
``shards=1`` never reaches this module — the engine delegates straight
to :func:`repro.core.run.run_scheme`, which is how byte-identity at one
shard is a structural fact rather than a test target.
"""

from __future__ import annotations

from ..core.config import SimulationConfig
from ..core.hiergd import HierGdScheme
from ..core.presence import PresenceIndex, probes_to
from ..core.schemes.baselines import NcScheme, ScScheme
from ..netmodel import (
    TIER_COOP_P2P,
    TIER_COOP_PROXY,
    TIER_LOCAL_P2P,
    TIER_LOCAL_PROXY,
    TIER_SERVER,
)
from ..protocol.transport import Transport
from .digest import ClusterDelta

__all__ = ["ShardedHierGd", "ShardedNc", "ShardedSc", "SHARDED_SCHEMES", "make_sharded_scheme"]


class _ShardMixin:
    """Shared shard plumbing: identity maps, warmup override, sync hook."""

    def _init_shard(
        self, global_clusters: list[int], total_clusters: int, warmup_n: int
    ) -> None:
        self._global_of = list(global_clusters)
        self._local_of = {g: i for i, g in enumerate(self._global_of)}
        self._n_local = len(self._global_of)
        self._total_clusters = total_clusters
        self._warmup_n = warmup_n
        #: Worker-installed round callback (sends/receives digests).
        self._sync = None
        #: Worker-installed per-cluster block bound (round size).
        self._round_requests: int | None = None

    def _warmup_requests(self, total_expected: int) -> int:
        # The shard's slice of the *global* warmup window, precomputed by
        # partition.local_warmup; the base fraction-of-local would warm
        # the wrong prefix.
        return self._warmup_n

    def _block_requests(self, length: int) -> int:
        if self._round_requests is None:
            return super()._block_requests(length)
        return max(1, min(self._round_requests, length))

    def _after_block(self, upto: int) -> None:
        if self._sync is not None:
            self._sync(upto)

    # -- round protocol (overridden where there is cross-shard state) -----

    def collect_round(self) -> tuple[dict[int, ClusterDelta], list]:
        """This round's per-cluster deltas and outgoing pushes."""
        return {}, []

    def apply_remote(self, deltas: dict[int, ClusterDelta], pushes: list) -> None:
        """Fold the other shards' round state into local indexes."""


class ShardedNc(_ShardMixin, NcScheme):
    """NC has no cross-cluster state: sharding is pure data parallelism."""

    def __init__(
        self,
        config: SimulationConfig,
        traces,
        global_clusters: list[int],
        total_clusters: int,
        warmup_n: int,
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        self._init_shard(global_clusters, total_clusters, warmup_n)


class ShardedSc(_ShardMixin, ScScheme):
    """SC over shards: remote probes answered by digested presence.

    A remote SC probe is membership-only (the ascending scan calls
    ``contains``, never ``lookup``), so cross-shard cooperation needs no
    remote writes at all — just the presence deltas.  The scan cannot
    see other processes' caches, so this variant keeps its own
    :class:`~repro.core.presence.PresenceIndex` over local and digested
    remote holders; ``first_holder`` picks exactly the cluster the
    all-in-one-process scan would probe to.
    """

    def __init__(
        self,
        config: SimulationConfig,
        traces,
        global_clusters: list[int],
        total_clusters: int,
        warmup_n: int,
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        self._init_shard(global_clusters, total_clusters, warmup_n)
        #: object -> global clusters caching it (remote ones as of the
        #: last round boundary).
        self._presence = PresenceIndex()
        self._round_base = [set(c._sizes) for c in self.caches]

    def process(self, cluster: int, client: int, obj: int) -> str:
        g = self._global_of[cluster]
        cache = self.caches[cluster]
        hit, evicted = cache.lookup_or_insert(obj)
        if hit:
            return TIER_LOCAL_PROXY
        presence = self._presence
        first = presence.first_holder(obj, g)
        self._probes += probes_to(first, g, self._total_clusters)
        tier = TIER_SERVER
        if first is not None:
            tier = TIER_COOP_PROXY
            self._coop_fetches += 1
        stored = True
        for victim in evicted:
            if victim == obj:
                stored = False  # capacity-zero cache rejected the insert
            else:
                presence.discard(victim, g)
        if stored:
            presence.add(obj, g)
        return tier

    def collect_round(self) -> tuple[dict[int, ClusterDelta], list]:
        deltas: dict[int, ClusterDelta] = {}
        for i, cache in enumerate(self.caches):
            now = set(cache._sizes)
            base = self._round_base[i]
            if now != base:
                deltas[self._global_of[i]] = (
                    sorted(now - base), sorted(base - now), [], []
                )
                self._round_base[i] = now
        return deltas, []

    def apply_remote(self, deltas: dict[int, ClusterDelta], pushes: list) -> None:
        presence = self._presence
        local = self._local_of
        for g, (adds, removes, _, _) in deltas.items():
            if g in local:
                continue
            for obj in adds:
                presence.add(obj, g)
            for obj in removes:
                presence.discard(obj, g)


class ShardedHierGd(_ShardMixin, HierGdScheme):
    """Hier-GD over shards: digested steps 3–4 of the miss chain.

    Requires the fast engine with an exact directory (the Bloom path's
    false positives are a per-probe phenomenon the digest cannot carry)
    and a fault-free transport.  ``process`` mirrors
    :meth:`HierGdScheme.process` with global-id exclusion and a remote
    branch in step 4.
    """

    def __init__(
        self,
        config: SimulationConfig,
        traces,
        global_clusters: list[int],
        total_clusters: int,
        warmup_n: int,
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        if self.sizes is not None:
            raise ValueError(
                "sharded hier-gd does not support sized workloads (the "
                "digest protocol rides the fast engine, which assumes "
                "equal-size objects); run with shards=1"
            )
        if not self._fast:
            raise ValueError("sharded hier-gd requires hot_path='fast'")
        if self._dir_presence is None:
            raise ValueError("sharded hier-gd requires directory='exact'")
        self._init_shard(global_clusters, total_clusters, warmup_n)
        # Re-key every cluster's identity to its global index *before*
        # any request runs: the presence indexes are still empty, so no
        # local-id entries exist to migrate.
        for state, g in zip(self.states, self._global_of):
            state.cluster = g
        self._msg["stale_remote_pushes"] = 0
        self._calls = 0
        self._out_pushes: list[tuple[int, int, int, int]] = []
        self._round_base = [
            (set(s.proxy._entries), set(s.p2p_present)) for s in self.states
        ]

    # -- request path (HierGdScheme.process, shard-aware) -----------------

    def process(self, cluster: int, client: int, obj: int) -> str:
        pos = self._calls
        self._calls = pos + 1
        state = self.states[cluster]
        g = state.cluster
        # 1. Local proxy cache (inlined GD hit path, as in the base).
        if self._gd_inline:
            proxy = state.proxy
            entry = proxy._entries.get(obj)
            if entry is not None:
                heap = proxy._heap
                seq = heap._seq + 1
                heap._seq = seq
                heap._live[obj] = (proxy.inflation + entry[1], seq, False)
                proxy.stats.hits += 1
                return TIER_LOCAL_PROXY
            proxy.stats.misses += 1
        else:
            if state.proxy.lookup(obj):
                return TIER_LOCAL_PROXY
        if state.built_epoch != state.overlay.epoch:
            self._build_placement(state)
        msg = self._msg

        # 2. Own P2P client cache, via the (exact) lookup directory.
        if obj in state.dir_probe:
            msg["p2p_lookups"] += 1
            owner = state.owner_of[obj]
            holder = (
                owner
                if obj in state.member_maps[owner]
                else self._locate(state, obj, owner)
            )
            if holder is not None:
                state.clients[holder].lookup(obj)  # GD credit refresh
                if self._promote:
                    self._proxy_insert(state, obj, cost=self._t_p2p)
                return TIER_LOCAL_P2P
            msg["directory_false_positives"] += 1
            self.add_extra_latency(self._t_p2p)

        # 3. Cooperating proxies.  Local and remote holders sit in the
        # same presence set (remote ones as of the last round boundary);
        # serving needs no holder-side mutation, so a remote first holder
        # is served exactly like a local one.
        s = self._proxy_presence._holders.get(obj)
        if s:
            first = None
            for c in s:
                if c != g and (first is None or c < first):
                    first = c
            if first is not None:
                self._proxy_insert(state, obj, cost=self._t_coop)
                return TIER_COOP_PROXY

        # 4. Their P2P client caches through the push protocol.  A local
        # holder serves inline; a remote holder serves at push cost and
        # the GD credit refresh crosses the bus as a queued push record.
        other = self._dir_presence.first_holder(obj, g)
        if other is not None:
            local = self._local_of.get(other)
            msg["push_requests"] += 1
            if local is not None:
                other_state = self.states[local]
                owner = other_state.owner_of[obj]
                holder = (
                    owner
                    if obj in other_state.member_maps[owner]
                    else self._locate(other_state, obj, owner)
                )
                other_state.clients[holder].lookup(obj)
            else:
                self._out_pushes.append(
                    ((pos // self._n_local) * self._total_clusters + g, g, other, obj)
                )
            self._proxy_insert(state, obj, cost=self._t_coop + self._t_p2p)
            return TIER_COOP_P2P

        # 5. Origin server.
        self._proxy_insert(state, obj, cost=self._t_server)
        return TIER_SERVER

    # -- round protocol ---------------------------------------------------

    def collect_round(self) -> tuple[dict[int, ClusterDelta], list]:
        deltas: dict[int, ClusterDelta] = {}
        for i, state in enumerate(self.states):
            proxy_base, dir_base = self._round_base[i]
            proxy_now = set(state.proxy._entries)
            dir_now = set(state.p2p_present)
            if proxy_now != proxy_base or dir_now != dir_base:
                deltas[state.cluster] = (
                    sorted(proxy_now - proxy_base),
                    sorted(proxy_base - proxy_now),
                    sorted(dir_now - dir_base),
                    sorted(dir_base - dir_now),
                )
                self._round_base[i] = (proxy_now, dir_now)
        pushes = self._out_pushes
        self._out_pushes = []
        return deltas, pushes

    def apply_remote(self, deltas: dict[int, ClusterDelta], pushes: list) -> None:
        local = self._local_of
        proxy_presence = self._proxy_presence
        dir_presence = self._dir_presence
        for g, (p_add, p_rm, d_add, d_rm) in deltas.items():
            if g in local:
                continue
            for obj in p_add:
                proxy_presence.add(obj, g)
            for obj in p_rm:
                proxy_presence.discard(obj, g)
            for obj in d_add:
                dir_presence.add(obj, g)
            for obj in d_rm:
                dir_presence.discard(obj, g)
        for _pos, _src, dst, obj in pushes:
            i = local.get(dst)
            if i is None:
                continue  # another shard's cluster
            state = self.states[i]
            if obj in state.p2p_present:
                if state.built_epoch != state.overlay.epoch:
                    self._build_placement(state)
                owner = state.owner_of[obj]
                holder = (
                    owner
                    if obj in state.member_maps[owner]
                    else self._locate(state, obj, owner)
                )
                if holder is not None:
                    state.clients[holder].lookup(obj)  # GD credit refresh
                    continue
            # Evicted inside the staleness window: the requester already
            # served the object (the copy existed when it asked).
            self._msg["stale_remote_pushes"] += 1


#: Registry of shard-capable schemes (a subset of SCHEME_REGISTRY: the
#: remaining schemes are oracles whose global state — e.g. FC's shared
#: frequency table — has no bounded-staleness decomposition).
SHARDED_SCHEMES: dict[str, type] = {
    "nc": ShardedNc,
    "sc": ShardedSc,
    "hier-gd": ShardedHierGd,
}


def make_sharded_scheme(
    name: str,
    config: SimulationConfig,
    traces,
    global_clusters: list[int],
    total_clusters: int,
    warmup_n: int,
):
    """Instantiate the sharded variant of ``name`` for one worker."""
    try:
        cls = SHARDED_SCHEMES[name]
    except KeyError:
        raise ValueError(
            f"scheme {name!r} cannot run sharded; "
            f"shardable: {', '.join(SHARDED_SCHEMES)}"
        ) from None
    return cls(config, traces, global_clusters, total_clusters, warmup_n)

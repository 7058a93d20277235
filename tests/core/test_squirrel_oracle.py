"""Squirrel against a naive model built from the overlay's own rules.

The engine resolves every object's home once, up front, through a bulk
overlay build and a vectorised owner table.  The oracle here does the
obvious thing instead: one :class:`~repro.cache.LruCache` per client,
nodes joined one at a time with ``add_named``, and each request's home
asked of the overlay (``owner_of(object_id(url))``) as it arrives.  The
two must agree on every tier count, the total latency and the miss
detour latency, with and without object sizes.
"""

from collections import Counter

import pytest

from repro.cache import LruCache
from repro.core.config import SimulationConfig
from repro.core.run import run_scheme
from repro.netmodel import TIER_LOCAL_P2P, TIER_SERVER
from repro.overlay import make_overlay
from repro.workload import ProWGenConfig, generate_cluster_traces, object_url


def squirrel_oracle(config, traces):
    """(tier counts, total latency, extra latency) of a naive Squirrel."""
    net = config.network
    sizes = traces[0].sizes
    clusters = []
    for ci, trace in enumerate(traces):
        sizing = config.sizing_for(trace)
        overlay = make_overlay(config)
        per_client = sizing.client_size + sizing.proxy_size // sizing.n_clients
        caches = {
            overlay.add_named(f"squirrel{ci}/cache{k}").node_id: LruCache(per_client)
            for k in range(sizing.n_clients)
        }
        clusters.append((overlay, caches))
    tiers = Counter()
    extra = 0.0
    for i in range(max(len(t) for t in traces)):
        for ci, trace in enumerate(traces):
            if i >= len(trace):
                continue
            obj = int(trace.object_ids[i])
            overlay, caches = clusters[ci]
            home = caches[overlay.owner_of(overlay.space.object_id(object_url(obj)))]
            if home.lookup(obj):
                tiers[TIER_LOCAL_P2P] += 1
            else:
                home.insert(obj, size=1 if sizes is None else int(sizes[obj]))
                tiers[TIER_SERVER] += 1
                extra += net.t_p2p
    total = sum(net.latency(tier) * n for tier, n in tiers.items()) + extra
    return dict(tiers), total, extra


def setup(object_sizes, overlay, seed):
    config = SimulationConfig(
        workload=ProWGenConfig(
            n_requests=3000, n_objects=300, n_clients=12, object_sizes=object_sizes
        ),
        n_proxies=2,
        proxy_cache_fraction=0.3,
        client_cache_fraction=0.01,
        overlay=overlay,
        leaf_set_size=4,
    )
    return config, generate_cluster_traces(config.workload, 2, seed=seed)


@pytest.mark.parametrize("overlay", ["pastry", "chord"])
@pytest.mark.parametrize("object_sizes", ["off", "heavy-tailed"])
def test_engine_matches_naive_model(object_sizes, overlay):
    config, traces = setup(object_sizes, overlay, seed=11)
    result = run_scheme("squirrel", config, traces)
    tiers, total, extra = squirrel_oracle(config, traces)
    assert tiers[TIER_SERVER] > 0 and tiers[TIER_LOCAL_P2P] > 0
    assert result.tier_counts == tiers
    assert result.extras["extra_latency"] == extra
    assert result.total_latency == pytest.approx(total, rel=1e-12)


def test_ragged_traces_match_naive_model():
    config, traces = setup("off", "pastry", seed=12)
    traces[1] = traces[1].head(len(traces[1]) // 3)
    result = run_scheme("squirrel", config, traces)
    tiers, total, extra = squirrel_oracle(config, traces)
    assert result.tier_counts == tiers
    assert result.extras["extra_latency"] == extra
    assert result.total_latency == pytest.approx(total, rel=1e-12)

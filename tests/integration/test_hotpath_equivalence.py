"""Fast-engine vs reference-engine equivalence (the hot-path contract).

Hier-GD carries two request engines behind ``config.hot_path``: the
fast one (presence indexes, precomputed DHT placement, fused cache
operations) must not change any simulated result.  The
:class:`SchemeResult` produced with ``hot_path="fast"`` must be
byte-identical to ``hot_path="reference"`` — same request count, tier
counts, total latency and protocol messages, and the same extras except
``mean_pastry_hops`` (the fast engine routes only a sampled subset of
keys through Pastry, so that one statistic is allowed to differ).

Every other scheme has a single engine; for those the same comparison
pins that ``hot_path`` is inert.  Their correctness references are the
naive models (e.g. ``tests/core/test_squirrel_oracle.py``).
"""

import dataclasses

import pytest

from repro.core.run import SCHEME_REGISTRY, generate_workloads, run_scheme
from repro.experiments.runner import base_config


def small_config(**overrides):
    cfg = base_config()
    wl = dataclasses.replace(
        cfg.workload, n_requests=8_000, n_objects=600, n_clients=30
    )
    return dataclasses.replace(cfg, workload=wl, n_proxies=3, **overrides)


def assert_equivalent(name, config):
    traces = generate_workloads(config, seed=0)
    fast = run_scheme(
        name, dataclasses.replace(config, hot_path="fast"), traces=traces
    )
    ref = run_scheme(
        name, dataclasses.replace(config, hot_path="reference"), traces=traces
    )
    assert fast.n_requests == ref.n_requests
    assert fast.tier_counts == ref.tier_counts
    assert fast.total_latency == ref.total_latency
    assert fast.messages == ref.messages
    strip = lambda extras: {
        k: v for k, v in extras.items() if k != "mean_pastry_hops"
    }
    assert strip(fast.extras) == strip(ref.extras)


@pytest.mark.parametrize("name", list(SCHEME_REGISTRY))
def test_all_schemes_equivalent(name):
    assert_equivalent(name, small_config())


def test_hier_gd_bloom_directory_equivalent():
    # Bloom false positives are modelled behaviour: the fast engine must
    # reproduce them (and their wasted-round latency) exactly.
    assert_equivalent("hier-gd", small_config(directory="bloom"))


@pytest.mark.parametrize("policy", ["lru", "lfu"])
def test_hier_gd_alt_policies_equivalent(policy):
    # LRU/LFU clients skip the fused greedy-dual insert; the generic
    # fast branch must stay equivalent too.
    assert_equivalent("hier-gd", small_config(hiergd_policy=policy))


def test_hier_gd_replication_equivalent():
    assert_equivalent("hier-gd", small_config(p2p_replicas=2))


def test_hier_gd_no_diversion_no_piggyback_equivalent():
    assert_equivalent(
        "hier-gd", small_config(object_diversion=False, piggyback=False)
    )


def test_hier_gd_no_promotion_equivalent():
    assert_equivalent("hier-gd", small_config(promote_on_p2p_hit=False))

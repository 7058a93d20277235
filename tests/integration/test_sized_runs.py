"""End-to-end invariants of size-aware runs (heavy-tailed object sizes).

The sizes-off byte-identity half of the story lives in
``benchmarks/sizes_gate.py`` (golden comparison at smoke scale); these
tests pin the *sized* path's conservation laws at a scale small enough
for the tier-1 suite.
"""

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.metrics import byte_hit_rate, byte_latency_gain
from repro.core.run import available_schemes, run_scheme
from repro.core.schemes import NcScheme
from repro.netmodel import ALL_TIERS, TIER_SERVER
from repro.workload import ProWGenConfig, generate_cluster_traces
from repro.workload.trace import Trace


def sized_setup(seed, n_proxies=2, **overrides):
    cfg = SimulationConfig(
        workload=ProWGenConfig(
            n_requests=4000, n_objects=300, n_clients=8,
            object_sizes="heavy-tailed",
        ),
        n_proxies=n_proxies,
        proxy_cache_fraction=0.3,
        client_cache_fraction=0.0125,
        **overrides,
    )
    traces = generate_cluster_traces(cfg.workload, n_proxies, seed=seed)
    return cfg, traces


def measured_bytes(traces, warmup_n):
    """Bytes asked for by the requests after the warmup prefix, counted
    from the traces alone (round-robin order, one Web-wide size table)."""
    objs = np.stack([t.object_ids for t in traces], axis=1).ravel()
    return int(traces[0].sizes[objs[warmup_n:]].sum())


class TestByteConservation:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_tier_bytes_sum_to_total(self, scheme):
        cfg, traces = sized_setup(seed=1)
        result = run_scheme(scheme, cfg, traces)
        want = measured_bytes(traces, 0)
        assert result.extras["bytes_total"] == want
        assert sum(result.extras.get(f"bytes_{t}", 0.0) for t in ALL_TIERS) == want
        assert 0.0 <= byte_hit_rate(result) <= 1.0

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_bytes_after_warmup_match_trace(self, scheme):
        cfg, traces = sized_setup(seed=1, warmup_fraction=0.1)
        result = run_scheme(scheme, cfg, traces)
        warmup_n = int(0.1 * sum(len(t) for t in traces))
        assert result.n_requests == sum(len(t) for t in traces) - warmup_n
        want = measured_bytes(traces, warmup_n)
        assert result.extras["bytes_total"] == want
        assert sum(result.extras.get(f"bytes_{t}", 0.0) for t in ALL_TIERS) == want

    def test_squirrel_warmup_keeps_miss_detour_latency(self):
        # Off-tier latency after the warmup window must be charged on
        # sized runs too: every measured home miss pays one LAN detour.
        cfg, traces = sized_setup(seed=1, warmup_fraction=0.1)
        result = run_scheme("squirrel", cfg, traces)
        misses = result.tier_counts[TIER_SERVER]
        assert misses > 0
        assert result.extras["extra_latency"] == pytest.approx(
            cfg.network.t_p2p * misses, rel=1e-12
        )

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_byte_latency_is_tier_weighted_byte_sum(self, scheme):
        cfg, traces = sized_setup(seed=2)
        result = run_scheme(scheme, cfg, traces)
        net = cfg.network
        want = sum(
            net.latency(t) * result.extras.get(f"bytes_{t}", 0.0)
            for t in ALL_TIERS
        )
        assert result.extras["byte_latency"] == pytest.approx(want)

    def test_byte_gain_computes_against_nc(self):
        cfg, traces = sized_setup(seed=3)
        nc = run_scheme("nc", cfg, traces)
        sc = run_scheme("sc", cfg, traces)
        gain = byte_latency_gain(sc, nc)
        assert -2.0 < gain < 1.0

    def test_sizes_off_reports_no_byte_extras(self):
        cfg = SimulationConfig(
            workload=ProWGenConfig(n_requests=2000, n_objects=200, n_clients=8),
            n_proxies=2,
            proxy_cache_fraction=0.3,
            client_cache_fraction=0.0125,
        )
        traces = generate_cluster_traces(cfg.workload, 2, seed=4)
        result = run_scheme("sc", cfg, traces)
        assert "bytes_total" not in result.extras
        with pytest.raises(ValueError):
            byte_hit_rate(result)


class TestSizePlumbing:
    def test_mixed_sizedness_rejected(self):
        cfg, traces = sized_setup(seed=5)
        stripped = Trace(
            object_ids=traces[1].object_ids,
            client_ids=traces[1].client_ids,
            n_objects=traces[1].n_objects,
            n_clients=traces[1].n_clients,
        )
        with pytest.raises(ValueError, match="agree on carrying sizes"):
            NcScheme(cfg, [traces[0], stripped])

    def test_hier_gd_sized_runs_reference_engine(self):
        from repro.core.hiergd import HierGdScheme

        cfg, traces = sized_setup(seed=6)
        scheme = HierGdScheme(cfg, traces)
        assert scheme.sizes is not None
        assert scheme._fast is False

    def test_gd_cost_model_changes_sized_results(self):
        cfg, traces = sized_setup(seed=7)
        gds = run_scheme("hier-gd", cfg, traces)
        gd = run_scheme(
            "hier-gd", cfg.with_changes(gd_cost_model="gd"), traces
        )
        assert gds.total_latency != gd.total_latency

    def test_gd_cost_model_validated(self):
        with pytest.raises(ValueError, match="gd_cost_model"):
            SimulationConfig(
                workload=ProWGenConfig(n_requests=10, n_objects=5, n_clients=2),
                gd_cost_model="bogus",
            )

    def test_sharded_hier_gd_rejects_sized_workloads(self):
        from repro.shard.schemes import ShardedHierGd

        cfg, traces = sized_setup(seed=8)
        with pytest.raises(ValueError, match="sized workloads"):
            ShardedHierGd(
                cfg, traces, global_clusters=[0, 1], total_clusters=2,
                warmup_n=0,
            )

    def test_size_table_deterministic_per_seed(self):
        cfg, traces = sized_setup(seed=9)
        _, again = sized_setup(seed=9)
        _, other = sized_setup(seed=10)
        assert np.array_equal(traces[0].sizes, again[0].sizes)
        assert np.array_equal(traces[0].sizes, traces[1].sizes)
        assert not np.array_equal(traces[0].sizes, other[0].sizes)

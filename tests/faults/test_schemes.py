"""End-to-end tests for the fault-aware schemes and the dispatch rules.

The two load-bearing contracts:

* **zero-plan identity** — at all-zero fault rates every scheme's
  ``SchemeResult`` is byte-identical to the plain (no-subsystem) code
  path, because the dispatcher never constructs the faulty classes;
* **determinism** — two runs under the same ``FaultPlan`` seed produce
  identical results, counters included (the determinism guard).
"""

import dataclasses

import pytest

from repro.core.churn import HierGdChurnScheme
from repro.core.config import SimulationConfig
from repro.core.metrics import FAULT_COUNTERS
from repro.core.run import active_plan, build_scheme, run_scheme
from repro.core.schemes import SCHEME_REGISTRY
from repro.faults import FAULTY_SCHEMES, FaultPlan, run_scheme_with_faults
from repro.perf.profiling import collecting_op_counters
from repro.workload import ProWGenConfig, generate_cluster_traces

TINY = ProWGenConfig(n_requests=3000, n_objects=300, n_clients=10)

FULL_PLAN = FaultPlan(
    p2p_loss=0.1,
    proxy_loss=0.1,
    push_loss=0.1,
    delay_rate=0.1,
    stale_rate=0.05,
    unresponsive_fraction=0.1,
    churn_rate=0.001,
    seed=7,
)


def cfg(**kw):
    kw.setdefault("n_proxies", 2)
    kw.setdefault("proxy_cache_fraction", 0.3)
    return SimulationConfig(workload=TINY, **kw)


@pytest.fixture(scope="module")
def traces():
    return generate_cluster_traces(TINY, 2, seed=0)


class TestZeroPlanIdentity:
    @pytest.mark.parametrize("name", ["hier-gd", "fc", "fc-ec", "nc"])
    def test_zero_plan_byte_identical(self, name, traces):
        plain = run_scheme(name, cfg(), traces)
        zero = run_scheme_with_faults(name, cfg(), traces, plan=FaultPlan())
        none = run_scheme_with_faults(name, cfg(), traces, plan=None)
        assert dataclasses.asdict(zero) == dataclasses.asdict(plain)
        assert dataclasses.asdict(none) == dataclasses.asdict(plain)

    def test_zero_plan_has_no_fault_counters(self, traces):
        # The plain path must not even mention the counters (proof the
        # faulty classes were never constructed).
        result = run_scheme_with_faults("fc", cfg(), traces, plan=FaultPlan())
        assert not any(key in result.messages for key in FAULT_COUNTERS)

    def test_non_faultable_scheme_runs_plain_at_any_rate(self, traces):
        plain = run_scheme("nc", cfg(), traces)
        faulty = run_scheme_with_faults("nc", cfg(), traces, plan=FULL_PLAN)
        assert dataclasses.asdict(faulty) == dataclasses.asdict(plain)


class TestDeterminismGuard:
    @pytest.mark.parametrize("name", sorted(FAULTY_SCHEMES))
    def test_same_seed_identical_counters(self, name, traces):
        """Satellite guard: two runs of the same FaultPlan seed produce
        identical SchemeResult objects, fault counters included."""
        first = run_scheme_with_faults(name, cfg(), traces, plan=FULL_PLAN)
        second = run_scheme_with_faults(name, cfg(), traces, plan=FULL_PLAN)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)
        assert first.fault_summary() == second.fault_summary()

    def test_different_fault_seed_changes_draws(self, traces):
        a = run_scheme_with_faults(
            "hier-gd", cfg(), traces, plan=dataclasses.replace(FULL_PLAN, seed=1)
        )
        b = run_scheme_with_faults(
            "hier-gd", cfg(), traces, plan=dataclasses.replace(FULL_PLAN, seed=2)
        )
        assert a.total_latency != b.total_latency


class TestFaultSemantics:
    @pytest.mark.parametrize("name", sorted(FAULTY_SCHEMES))
    def test_faults_only_increase_latency(self, name, traces):
        plain = run_scheme(name, cfg(), traces)
        faulty = run_scheme_with_faults(name, cfg(), traces, plan=FULL_PLAN)
        assert faulty.mean_latency >= plain.mean_latency
        assert faulty.n_requests == plain.n_requests

    @pytest.mark.parametrize("name", sorted(FAULTY_SCHEMES))
    def test_counters_populated_under_loss(self, name, traces):
        result = run_scheme_with_faults(name, cfg(), traces, plan=FULL_PLAN)
        summary = result.fault_summary()
        assert set(summary) == set(FAULT_COUNTERS)
        assert summary["timeouts"] > 0
        # retries + fallbacks account for every timeout beyond the firsts
        assert summary["retries"] <= summary["timeouts"]

    def test_hier_gd_stays_below_nc(self, traces):
        nc = run_scheme("nc", cfg(), traces)
        faulty = run_scheme_with_faults("hier-gd", cfg(), traces, plan=FULL_PLAN)
        assert faulty.mean_latency <= nc.mean_latency

    def test_exhausted_retries_fall_back(self, traces):
        """Total loss on every link: cooperation never succeeds, every
        cooperative attempt falls back, and the run still completes with
        all requests served (origin never fails)."""
        plan = FaultPlan(
            p2p_loss=1.0, proxy_loss=1.0, push_loss=1.0, max_retries=1, seed=3
        )
        result = run_scheme_with_faults("hier-gd", cfg(), traces, plan=plan)
        summary = result.fault_summary()
        assert summary["fallbacks"] > 0
        assert result.tier_counts.get("local_p2p", 0) == 0
        assert result.tier_counts.get("coop_proxy", 0) == 0
        assert result.tier_counts.get("coop_p2p", 0) == 0
        assert result.n_requests == sum(result.tier_counts.values())

    def test_unresponsive_clients_fail_pushes(self, traces):
        plan = FaultPlan(unresponsive_fraction=1.0, seed=5)
        result = run_scheme_with_faults("hier-gd", cfg(), traces, plan=plan)
        summary = result.fault_summary()
        assert summary["failed_pushes"] > 0
        assert result.tier_counts.get("coop_p2p", 0) == 0

    def test_stale_directory_charged_on_exact_directory(self, traces):
        plan = FaultPlan(stale_rate=0.5, seed=11)
        result = run_scheme_with_faults(
            "hier-gd", cfg(directory="exact"), traces, plan=plan
        )
        assert result.messages["dropped_eviction_notices"] > 0
        assert result.fault_summary()["stale_directory_hits"] > 0

    def test_churn_rate_fires_membership_events(self, traces):
        plan = FaultPlan(churn_rate=0.002, seed=13)
        result = run_scheme_with_faults("hier-gd", cfg(), traces, plan=plan)
        assert (
            result.messages["client_failures"] + result.messages["client_joins"] > 0
        )

    def test_fault_summary_zero_on_plain_results(self, traces):
        result = run_scheme("fc", cfg(), traces)
        assert result.fault_summary() == dict.fromkeys(FAULT_COUNTERS, 0)


class TestOneRunPath:
    """``run_scheme(plan=...)`` is the faulty entry point; one builder
    assembles every scheme."""

    @pytest.mark.parametrize("name", ["hier-gd", "fc", "sc"])
    def test_forwarder_equals_run_scheme_with_plan(self, name, traces):
        direct = run_scheme(name, cfg(), traces, plan=FULL_PLAN)
        forwarded = run_scheme_with_faults(name, cfg(), traces, plan=FULL_PLAN)
        assert dataclasses.asdict(direct) == dataclasses.asdict(forwarded)

    def test_builder_assembles_faulty_hier_gd(self, traces):
        scheme = build_scheme("hier-gd", cfg(), traces, FULL_PLAN)
        assert isinstance(scheme, HierGdChurnScheme)
        assert scheme.name == "hier-gd"
        assert scheme.transport.faulty

    @pytest.mark.parametrize("plan", [FULL_PLAN, FaultPlan(), None])
    def test_builder_runs_non_faultable_schemes_plain(self, plan, traces):
        scheme = build_scheme("sc", cfg(), traces, plan)
        assert type(scheme) is SCHEME_REGISTRY["sc"]
        assert not scheme.transport.faulty
        assert active_plan("sc", plan) is None

    def test_sharded_active_plan_refused(self):
        with pytest.raises(ValueError, match="shards=2.*single-process"):
            run_scheme("hier-gd", cfg(), plan=FULL_PLAN, shards=2)

    def test_faulty_runs_stay_out_of_op_counters(self, traces):
        # Callers profiling faulty runs book them themselves; reporting
        # them here too would count every cache operation twice.
        with collecting_op_counters() as collector:
            run_scheme("fc", cfg(), traces, plan=FULL_PLAN)
            run_scheme("sc", cfg(), traces, plan=FULL_PLAN)
        assert set(collector.per_scheme) == {"sc"}

"""The benchmark's three workloads: populations, points and output checks.

A *population* is one ProWGen configuration replayed by several points;
its traces are generated once per set-up as chunked on-disk files.  A
*point* is one scheme run over one population, the unit that is timed,
checked and counted as attempted or failed.

Every field of every config is set here explicitly, so no environment
variable (``REPRO_SCALE``, ``REPRO_OVERLAY``) can change what is measured.
Only the seed comes from the command line; ``scale`` shrinks request
counts and cluster sizes for the self-tests and is 1.0 in every measured
run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import SimulationConfig
from repro.core.metrics import latency_gain
from repro.core.run import run_scheme
from repro.experiments.store import serialize_result
from repro.faults import FaultPlan, run_scheme_with_faults
from repro.netmodel import ALL_TIERS, NetworkConfig
from repro.shard import run_scheme_sharded
from repro.workload import ProWGenConfig, generate_cluster_traces_streaming

WORKLOADS = ("paper-long", "cluster-sweep", "faults-sized")

#: Every scheme of the paper, in its presentation order.
SCHEMES = ("nc", "sc", "fc", "nc-ec", "sc-ec", "fc-ec", "hier-gd", "squirrel")

#: Client clusters (proxies) in every population: the paper's default.
N_PROXIES = 2
#: Worker processes of the sharded point; at most the 2 cores measured on.
SHARDS = 2
#: Per-cluster requests between shard digest exchanges: 13 rounds per
#: 50 000-request trace.  Pinned, because the sharded result depends on
#: (seed, shards, round_requests).
ROUND_REQUESTS = 1 << 12

#: cluster-sweep points: (clients per cluster, proxy fraction).  One
#: fraction per size keeps a pass short enough for several passes per run;
#: the Pastry builds grow super-linearly, so the largest size dominates.
SWEEP_POINTS = ((250, 0.3), (1000, 0.5), (2000, 0.7))
SWEEP_OVERLAYS = ("pastry", "chord")


@dataclass(frozen=True)
class Point:
    """One scheme run: what ``failed_frac`` counts and the checks judge."""

    label: str
    scheme: str
    population: str
    config: SimulationConfig
    #: "plain" (run_scheme), "faults" (run_scheme_with_faults) or
    #: "sharded" (run_scheme_sharded over the population's trace files).
    kind: str
    #: Label of the NC point on the same population and fraction.
    baseline: str
    plan: FaultPlan | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    populations: dict[str, ProWGenConfig]
    points: tuple[Point, ...]

    def requests_per_pass(self) -> int:
        return sum(
            N_PROXIES * self.populations[p.population].n_requests for p in self.points
        )


def population(
    n_requests: int, n_objects: int, n_clients: int, object_sizes: str = "off"
) -> ProWGenConfig:
    """The paper's section 5.1 generator knobs with every field pinned."""
    return ProWGenConfig(
        n_requests=n_requests,
        n_objects=n_objects,
        one_timer_fraction=0.5,
        alpha=0.7,
        stack_fraction=0.2,
        stack_skew=1.0,
        n_clients=n_clients,
        object_sizes=object_sizes,
    )


def sim_config(workload: ProWGenConfig, fraction: float, overlay: str) -> SimulationConfig:
    """A simulation config with every field pinned to the paper's value."""
    return SimulationConfig(
        workload=workload,
        network=NetworkConfig(
            t_local=1.0, ts_over_tc=10.0, ts_over_tl=20.0, tp2p_over_tl=1.4
        ),
        n_proxies=N_PROXIES,
        proxy_cache_fraction=fraction,
        client_cache_fraction=0.001,
        directory="exact",
        bloom_fp_rate=0.01,
        overlay=overlay,
        leaf_set_size=16,
        pastry_b=4,
        chord_successors=16,
        object_diversion=True,
        piggyback=True,
        promote_on_p2p_hit=True,
        hop_sample_rate=64,
        warmup_fraction=0.0,
        lfu_mode="perfect",
        hiergd_policy="gd",
        gd_cost_model="gds",
        p2p_replicas=1,
        hot_path="fast",
    )


def fault_plan(seed: int) -> FaultPlan:
    """Loss on all three cooperation links plus stale directory entries,
    answered by the default retry ladder (``policies=None``)."""
    return FaultPlan(
        p2p_loss=0.05,
        proxy_loss=0.05,
        push_loss=0.05,
        delay_rate=0.0,
        delay_factor=2.0,
        stale_rate=0.05,
        unresponsive_fraction=0.0,
        churn_rate=0.0,
        max_retries=2,
        backoff_base=2.0,
        seed=seed,
        policies=None,
    )


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def build_workload(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The named workload; ``seed`` only enters the fault plan here."""
    if name == "paper-long":
        pop = population(_scaled(50_000, scale, 2_000), _scaled(10_000, scale, 200), 100)
        cfg = sim_config(pop, 0.5, "pastry")
        points = [Point(s, s, "paper", cfg, "plain", "nc") for s in SCHEMES]
        points.append(Point("hier-gd/2-shard", "hier-gd", "paper", cfg, "sharded", "nc"))
        return Workload(name, {"paper": pop}, tuple(points))
    if name == "cluster-sweep":
        pops = {}
        points = []
        for n, fraction in SWEEP_POINTS:
            key = f"c{n}"
            pop = pops[key] = population(
                _scaled(20_000, scale, 2_000), _scaled(1_000, scale, 200), _scaled(n, scale, 8)
            )
            nc = f"{key}/nc@{fraction}"
            # NC has no overlay: one baseline serves both backends.
            points.append(Point(nc, "nc", key, sim_config(pop, fraction, "pastry"), "plain", nc))
            for overlay in SWEEP_OVERLAYS:
                cfg = sim_config(pop, fraction, overlay)
                for scheme in ("hier-gd", "squirrel"):
                    points.append(Point(f"{key}/{overlay}/{scheme}@{fraction}",
                                        scheme, key, cfg, "plain", nc))
        return Workload(name, pops, tuple(points))
    if name == "faults-sized":
        pop = population(
            _scaled(50_000, scale, 2_000), _scaled(2_500, scale, 200), 100, "heavy-tailed"
        )
        cfg = sim_config(pop, 0.5, "pastry")
        plan = fault_plan(seed)
        points = tuple(Point(s, s, "sized", cfg, "faults", "nc", plan) for s in SCHEMES)
        return Workload(name, {"sized": pop}, points)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


def generate(pop: ProWGenConfig, directory: Path, seed: int) -> list:
    """One population's cluster traces as chunked files in ``directory``."""
    return generate_cluster_traces_streaming(pop, range(N_PROXIES), directory, seed=seed)


def expected_bytes(traces: dict) -> dict[str, int]:
    """Bytes the requests of each sized population ask for, from its traces."""
    return {
        key: sum(int(t.sizes[t.object_ids].sum()) for t in cluster_traces)
        for key, cluster_traces in traces.items()
        if cluster_traces[0].sizes is not None
    }


def run_point(point: Point, traces: dict, directory: Path, seed: int, stats: dict):
    """Simulate one point; ``stats`` receives the shard workers' telemetry."""
    if point.kind == "plain":
        return run_scheme(point.scheme, point.config, traces[point.population], seed=seed)
    if point.kind == "faults":
        return run_scheme_with_faults(
            point.scheme, point.config, traces[point.population], point.plan, seed=seed
        )
    return run_scheme_sharded(
        point.scheme,
        point.config,
        seed=seed,
        shards=SHARDS,
        trace_dir=str(directory / point.population),
        round_requests=ROUND_REQUESTS,
        stats_out=stats,
    )


def digest(result) -> str:
    """SHA-256 of the canonical serialized result (exact float repr)."""
    text = json.dumps(serialize_result(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_point(point: Point, result, baseline, expected_bytes: int | None) -> list[str]:
    """Every reason ``result`` is wrong; empty when the point passes.

    ``expected_bytes`` is the byte total of the point's trace requests on
    sized populations (every request is counted: no warm-up window).
    """
    problems = []
    n = N_PROXIES * point.config.workload.n_requests
    if result.n_requests != n:
        problems.append(f"simulated {result.n_requests} requests, expected {n}")
    counted = sum(result.tier_counts.values())
    if counted != result.n_requests:
        problems.append(f"tier counts sum to {counted}, not {result.n_requests}")
    if point.config.workload.object_sizes != "off":
        total = result.extras.get("bytes_total")
        by_tier = sum(result.extras.get(f"bytes_{t}", 0.0) for t in ALL_TIERS)
        if total != expected_bytes:
            problems.append(f"bytes_total is {total}, the trace asks for {expected_bytes}")
        if by_tier != expected_bytes:
            problems.append(f"tier bytes sum to {by_tier}, the trace asks for {expected_bytes}")
    if not result.mean_latency > 0:
        problems.append(f"mean latency is {result.mean_latency}, not positive")
    if baseline is None:
        problems.append(f"no result for baseline {point.baseline}")
    else:
        try:
            gain = latency_gain(result, baseline)
        except ValueError as exc:
            problems.append(f"latency gain undefined: {exc}")
        else:
            if not math.isfinite(gain):
                problems.append(f"latency gain vs {point.baseline} is {gain}")
    return problems

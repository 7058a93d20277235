"""Simulation configuration: the paper's experiment parameters in one place.

Defaults follow §5.1 of the paper:

* workload — ProWGen, 10⁶ requests over 10⁴ objects, 50 % one-timers,
  Zipf α = 0.7 (see :class:`repro.workload.ProWGenConfig`);
* network — ``Ts/Tc = 10``, ``Ts/Tl = 20``, ``Tp2p/Tl = 1.4``;
* topology — a two-proxy cluster; 100 clients per client cluster;
* sizing — every cache size is a fraction of the **infinite cache size**
  (distinct objects referenced more than once, computed per cluster):
  each client contributes 0.1 % ⇒ the P2P client cache is 10 % with the
  default 100-client cluster; the proxy cache fraction is the x-axis of
  every figure (swept 10 %–100 %).

:class:`SimulationConfig` is frozen; sweeps use :meth:`SimulationConfig.
with_changes` to derive variants, so a config value can never drift
mid-experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..netmodel import NetworkConfig
from ..workload import ProWGenConfig, Trace

__all__ = ["SimulationConfig", "ClusterSizing", "NetworkConfig"]


@dataclass(frozen=True)
class ClusterSizing:
    """Concrete per-cluster cache sizes derived from a trace.

    All capacities share one denomination: *objects* under the paper's
    equal-size assumption, *bytes* when the trace carries per-object
    sizes (:attr:`by_bytes`); they are fractions of the matching
    infinite-cache-size measure either way, so the x-axis of every
    figure keeps its meaning.
    """

    infinite_cache_size: int
    proxy_size: int
    client_size: int
    n_clients: int
    #: True when the sizes above are denominated in bytes.
    by_bytes: bool = False

    @property
    def p2p_size(self) -> int:
        """Aggregate P2P client-cache capacity (the -EC client tier)."""
        return self.client_size * self.n_clients


@dataclass(frozen=True)
class SimulationConfig:
    """Every knob of one simulation run (see module docstring)."""

    workload: ProWGenConfig = field(default_factory=ProWGenConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)

    #: Number of cooperating proxies (client clusters). Paper default: 2.
    n_proxies: int = 2
    #: Proxy cache size as a fraction of the infinite cache size (x-axis).
    proxy_cache_fraction: float = 0.5
    #: Each client's cooperative-cache share of the infinite cache size.
    client_cache_fraction: float = 0.001

    # -- Hier-GD mechanism knobs (§4) -------------------------------------
    #: Lookup directory representation: "exact" or "bloom".
    directory: str = "exact"
    #: Target false-positive rate for the Bloom directory.
    bloom_fp_rate: float = 0.01
    #: Structured overlay backend federating each client cluster:
    #: "pastry" (the paper's choice, §4.1) or "chord" (the bake-off
    #: alternative).  Backend-specific knobs below are validated only
    #: for the selected backend.
    overlay: str = "pastry"
    #: [pastry] leaf-set size l (paper: typical value 16).
    leaf_set_size: int = 16
    #: [pastry] digit-width parameter b (paper: log_2b N routing).
    pastry_b: int = 4
    #: [chord] successor-list length r (repair/replica neighbourhood).
    chord_successors: int = 16
    #: Object diversion within the leaf set (§4.3). Ablation knob.
    object_diversion: bool = True
    #: Piggyback destaged objects on HTTP responses (§4.4). Ablation knob.
    piggyback: bool = True
    #: Re-cache an object at the proxy after a P2P hit ("the local proxy
    #: enforces the greedy-dual algorithm upon each fetched object", §3).
    promote_on_p2p_hit: bool = True
    #: Sample 1-in-N DHT routings for hop statistics (0 = placement only).
    hop_sample_rate: int = 64
    #: Fraction of each run excluded from statistics while caches warm.
    #: The paper simulates cold caches (0.0); warmup isolates steady-state
    #: behaviour for method studies.
    warmup_fraction: float = 0.0
    #: LFU counting mode for NC/SC and the unified -EC caches:
    #: "perfect" keeps reference counts across evictions (upper-bound
    #: reading of §2), "in-cache" restarts counts on re-insertion.
    lfu_mode: str = "perfect"
    #: Local replacement policy inside Hier-GD (proxy and client caches).
    #: The paper chooses greedy-dual because it beats LRU and LFU
    #: (Korupolu & Dahlin, §3); "lru"/"lfu" exist to measure that claim.
    hiergd_policy: str = "gd"
    #: Credit model for the greedy-dual caches when object sizes vary:
    #: "gds" (GreedyDual-Size, credit L + cost/size — Cao & Irani) or
    #: "gd" (classic greedy-dual, credit L + cost, size-blind credit
    #: with byte-accurate capacity).  Indistinguishable at unit sizes.
    gd_cost_model: str = "gds"
    #: Copies kept per destaged object in the P2P client cache (PAST-style
    #: leaf-set replication; the paper keeps 1).  Extra replicas are
    #: best-effort — stored only where free space exists — and pay off as
    #: availability under client churn.
    p2p_replicas: int = 1
    #: Hier-GD's request-loop engine: "fast" (presence indexes +
    #: precomputed DHT placement, the default) or "reference" (per-miss
    #: scan loops and per-object owner memoisation).  Results are
    #: identical — asserted by the hot-path equivalence suite — except
    #: that the two engines sample different keys for
    #: ``mean_pastry_hops``.  Every other scheme has a single engine and
    #: ignores this field.
    hot_path: str = "fast"

    def __post_init__(self) -> None:
        if self.n_proxies < 1:
            raise ValueError("n_proxies must be >= 1")
        if not 0 < self.proxy_cache_fraction <= 1.0:
            raise ValueError("proxy_cache_fraction must be in (0, 1]")
        if not 0 <= self.client_cache_fraction <= 1.0:
            raise ValueError("client_cache_fraction must be in [0, 1]")
        if self.directory not in ("exact", "bloom"):
            raise ValueError("directory must be 'exact' or 'bloom'")
        if not 0 < self.bloom_fp_rate < 1:
            raise ValueError("bloom_fp_rate must be in (0, 1)")
        if self.overlay not in ("pastry", "chord"):
            raise ValueError("overlay must be 'pastry' or 'chord'")
        if self.overlay == "pastry":
            if self.leaf_set_size < 2 or self.leaf_set_size % 2:
                raise ValueError("leaf_set_size must be an even integer >= 2")
            if self.pastry_b not in (1, 2, 4, 8):
                raise ValueError("pastry_b must be one of 1, 2, 4, 8")
        elif self.chord_successors < 1:
            raise ValueError("chord_successors must be >= 1")
        if self.hop_sample_rate < 0:
            raise ValueError("hop_sample_rate must be >= 0")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.lfu_mode not in ("perfect", "in-cache"):
            raise ValueError("lfu_mode must be 'perfect' or 'in-cache'")
        if self.hiergd_policy not in ("gd", "lru", "lfu"):
            raise ValueError("hiergd_policy must be 'gd', 'lru' or 'lfu'")
        if self.gd_cost_model not in ("gds", "gd"):
            raise ValueError("gd_cost_model must be 'gds' or 'gd'")
        if self.p2p_replicas < 1:
            raise ValueError("p2p_replicas must be >= 1")
        if self.hot_path not in ("fast", "reference"):
            raise ValueError("hot_path must be 'fast' or 'reference'")

    @property
    def lfu_reset_on_evict(self) -> bool:
        """LfuCache constructor flag matching :attr:`lfu_mode`."""
        return self.lfu_mode == "in-cache"

    @property
    def clients_per_cluster(self) -> int:
        return self.workload.n_clients

    def with_changes(self, **changes: Any) -> "SimulationConfig":
        """Derived config for parameter sweeps (frozen-safe ``replace``)."""
        return replace(self, **changes)

    def sizing_for(self, trace: Trace) -> ClusterSizing:
        """Concrete cache sizes for one cluster, per the paper's rules.

        All sizes are relative to *this trace's* infinite cache size; the
        client cache is at least one object whenever the fraction is
        non-zero (a zero-size client cache would silently disable the P2P
        tier at tiny scales).

        When the trace carries per-object sizes, every capacity is
        denominated in *bytes* of the byte-valued infinite cache size
        (``trace.infinite_cache_bytes``) instead of object counts — the
        same fractions, the same sweep semantics, byte-accurate storage.
        """
        sized = getattr(trace, "sizes", None) is not None
        ics = trace.infinite_cache_bytes if sized else trace.infinite_cache_size
        proxy = max(1, round(self.proxy_cache_fraction * ics))
        client = 0
        if self.client_cache_fraction > 0:
            client = max(1, round(self.client_cache_fraction * ics))
        return ClusterSizing(
            infinite_cache_size=ics,
            proxy_size=proxy,
            client_size=client,
            n_clients=self.clients_per_cluster,
            by_bytes=sized,
        )

    def describe(self) -> str:
        """One-line human-readable summary for logs and reports."""
        return (
            f"P={self.n_proxies} proxies, S={self.proxy_cache_fraction:.0%} of ICS, "
            f"{self.clients_per_cluster} clients x {self.client_cache_fraction:.2%}, "
            f"Ts/Tc={self.network.ts_over_tc:g}, Ts/Tl={self.network.ts_over_tl:g}, "
            f"workload={self.workload.n_requests} reqs / {self.workload.n_objects} objs, "
            f"alpha={self.workload.alpha:g}, stack={self.workload.stack_fraction:.0%}"
        )

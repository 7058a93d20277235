"""High-level entry points: generate workloads, run schemes, compute gains.

This is the layer the examples and the benchmark harness talk to::

    cfg = SimulationConfig()
    traces = generate_workloads(cfg, seed=1)
    results = run_all_schemes(cfg, traces)
    gains = gains_vs_nc(results)

Traces are generated once per workload configuration and shared across
schemes (the paper compares schemes on *the same* trace), so a sweep
over schemes costs one workload generation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..perf.profiling import record_scheme_ops
from ..protocol.trace import active_trace_recorder
from ..protocol.transport import FaultTransport, Transport
from ..workload import Trace, generate_cluster_traces
from .churn import HierGdChurnScheme
from .config import SimulationConfig
from .metrics import SchemeResult, latency_gain
from .schemes import SCHEME_REGISTRY
from .simulator import CachingScheme

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

__all__ = [
    "active_plan",
    "available_schemes",
    "build_scheme",
    "generate_workloads",
    "run_scheme",
    "run_all_schemes",
    "gains_vs_nc",
    "with_backend",
]


def available_schemes() -> list[str]:
    """Registry names in the paper's presentation order."""
    return list(SCHEME_REGISTRY)


def generate_workloads(config: SimulationConfig, seed: int = 0) -> list[Trace]:
    """One statistically identical trace per client cluster (§5.1)."""
    return generate_cluster_traces(config.workload, config.n_proxies, seed=seed)


def with_backend(transport: Transport, backend: str) -> Transport:
    """Wrap a finished stack in the selected execution backend.

    ``"sync"`` returns the stack unchanged; ``"async"`` wraps it
    outermost in an :class:`~repro.protocol.aio.AsyncTransport` on the
    deterministic simulated clock, so the same run is driven through the
    awaitable ladder path with byte-identical results (the async
    equivalence gate).
    """
    if backend == "async":
        from ..protocol.aio import AsyncTransport

        return AsyncTransport(transport)
    if backend != "sync":
        raise ValueError(f"unknown backend {backend!r}; expected sync or async")
    return transport


def active_plan(name: str, plan: FaultPlan | None) -> FaultPlan | None:
    """The fault plan a run of ``name`` honours; ``None`` means run plain.

    A zero plan (:meth:`~repro.faults.plan.FaultPlan.is_zero`) and any
    plan on a scheme without a faultable cooperation path (NC and the
    other upper bounds, whose remote tier is an abstraction fault
    injection does not degrade) both run plain: no fault layer is built,
    so results stay byte-identical to the fault-free code path and the
    recording header says ``plan=None``.  NC in particular is fault-free
    by construction, which anchors the robustness experiment's "degrades
    toward NC, never below" claim.
    """
    from ..faults.run import FAULTY_SCHEMES

    if plan is None or plan.is_zero() or name not in FAULTY_SCHEMES:
        return None
    return plan


def _scheme_class(name: str) -> type[CachingScheme]:
    try:
        return SCHEME_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; available: {', '.join(SCHEME_REGISTRY)}"
        ) from None


def _base_transport(
    config: SimulationConfig, plan: FaultPlan | None, name: str
) -> Transport:
    """The always-succeeds carrier, under the plan's fault layer if any."""
    base = Transport(config.network)
    return base if plan is None else FaultTransport(base, plan, scope=name)


def build_scheme(
    name: str,
    config: SimulationConfig,
    traces: list[Trace],
    plan: FaultPlan | None = None,
    transport: Transport | None = None,
) -> CachingScheme:
    """Construct scheme ``name``: the one builder behind every kind of run.

    Plain, faulty, replayed and live runs all build here.  Without an
    active plan (:func:`active_plan`) this is the registered scheme.
    Under one, FC, FC-EC and Squirrel are the registered scheme on a
    :class:`~repro.protocol.transport.FaultTransport` (their ``process``
    consults the transport whenever it is faulty), and Hier-GD is built
    on the churn scheme (reference engine, lazily repaired directories,
    membership events) with Poisson churn generated from
    ``plan.churn_rate``.  The fault transport carries message faults on
    the three cooperation links, stale directories beyond Bloom false
    positives and unresponsive push targets; unresponsiveness bites the
    *push* protocol only, since within its own cluster the proxy
    redirects its client over the LAN, which the firewall story (§4.3)
    does not block.

    ``transport`` replaces the whole carrier stack (a recording, replay,
    async or daemon stack); ``None`` builds the standard one.  Churn
    events are regenerated from the plan either way: they are a pure
    function of it, which is what lets a replayed run reconstruct them
    without the wire trace carrying membership.
    """
    scheme_cls = _scheme_class(name)
    plan = active_plan(name, plan)
    if transport is None:
        transport = _base_transport(config, plan, name)
    if plan is None or name != "hier-gd":
        return scheme_cls(config, traces, transport=transport)
    from ..faults.poisson import poisson_churn_events

    events = poisson_churn_events(
        plan,
        n_requests=sum(len(t) for t in traces),
        n_clusters=config.n_proxies,
        n_clients=config.sizing_for(traces[0]).n_clients,
    )
    scheme = HierGdChurnScheme(config, traces, events, transport=transport)
    # Report as the scheme under test, not the churn-harness subclass.
    scheme.name = "hier-gd"
    return scheme


def run_scheme(
    name: str,
    config: SimulationConfig,
    traces: list[Trace] | None = None,
    seed: int = 0,
    transport: Transport | None = None,
    backend: str = "sync",
    shards: int = 1,
    plan: FaultPlan | None = None,
    stats_out: dict[str, Any] | None = None,
) -> SchemeResult:
    """Simulate one scheme; generates the workload if none is supplied.

    ``plan`` runs the scheme under a :class:`~repro.faults.plan.FaultPlan`
    (:func:`build_scheme` assembles it; ``None``, a zero plan or a
    non-faultable scheme run plain).  The plan also carries the
    *response* to its faults, per-link
    :class:`~repro.protocol.policy.RetryPolicy` strategies honoured by
    the fault transport on every path (sync, async, recorded).

    ``shards > 1`` hands the run to the multi-process engine
    (:func:`repro.shard.run_scheme_sharded`): clusters are dealt over
    worker processes which regenerate their own traces from ``seed``, so
    pre-generated ``traces``, a custom ``transport``, the async backend
    and an active fault plan cannot be combined with sharding;
    ``stats_out`` receives the workers' peak-RSS telemetry.
    ``shards=1`` is this function, unchanged.

    ``transport`` optionally replaces the scheme's base transport (and
    the plan's fault stack) with a custom stack (e.g. an observability
    layer, a :class:`~repro.protocol.transport.FaultTransport` whose plan
    carries per-link retry policies, or a live daemon transport);
    ``None`` builds the standard one.  ``backend="async"`` drives the
    same stack through :class:`~repro.protocol.aio.AsyncTransport` on
    the simulated clock — results stay byte-identical to the
    synchronous path.

    Inside a :func:`repro.protocol.trace.recording_traces` block the
    run's transport is wrapped in a recording layer and the wire-level
    exchange trace lands in the recorder's directory.  ``seed`` names
    the trace seed in the recording header: callers that pass
    pre-generated ``traces`` must pass the seed those traces were
    generated from, or the recording will not replay.
    """
    _scheme_class(name)  # an unknown name fails before any work starts
    if shards > 1:
        if plan is not None and not plan.is_zero():
            raise ValueError(
                f"fault plan {plan.label!r} with shards={shards}: "
                "fault plans are single-process; use shards=1"
            )
        if traces is not None:
            raise ValueError(
                "sharded workers regenerate traces from the seed; "
                "pass traces=None with shards > 1"
            )
        if transport is not None or backend != "sync":
            raise ValueError(
                "custom transports / the async backend are single-process "
                "features; use shards=1"
            )
        from ..shard import run_scheme_sharded

        return run_scheme_sharded(
            name, config, seed=seed, shards=shards, stats_out=stats_out
        )
    plan = active_plan(name, plan)
    if traces is None:
        traces = generate_workloads(config, seed=seed)
    if transport is None:
        transport = _base_transport(config, plan, name)
    recorder = active_trace_recorder()
    recording = None
    if recorder is not None:
        transport = recording = recorder.open(name, config, seed, plan, transport)
    transport = with_backend(transport, backend)
    result = None
    try:
        scheme = build_scheme(name, config, traces, plan, transport)
        transport.attach(scheme)
        result = scheme.run()
    finally:
        if recording is not None:
            # A crashed run seals an *incomplete* trace (result=None).
            recorder.close(recording, result)
    if plan is None:
        # Feeds repro.perf's op-counter collection; a no-op when inactive.
        # Faulty runs stay out of it: callers that profile them book
        # their counters themselves.
        record_scheme_ops(name, scheme, result)
    return result


def run_all_schemes(
    config: SimulationConfig,
    traces: list[Trace] | None = None,
    schemes: list[str] | None = None,
    seed: int = 0,
) -> dict[str, SchemeResult]:
    """Run several schemes over the same workload; keyed by scheme name."""
    if traces is None:
        traces = generate_workloads(config, seed=seed)
    names = schemes if schemes is not None else available_schemes()
    # seed rides along so a recording of these runs names the true trace seed.
    return {name: run_scheme(name, config, traces, seed=seed) for name in names}


def gains_vs_nc(results: dict[str, SchemeResult]) -> dict[str, float]:
    """Latency gain of every scheme vs the NC baseline (must be present)."""
    if "nc" not in results:
        raise KeyError("results must include the 'nc' baseline")
    baseline = results["nc"]
    return {
        name: latency_gain(res, baseline)
        for name, res in results.items()
        if name != "nc"
    }

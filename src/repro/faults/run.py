"""Entry point: run any registered scheme under a fault plan.

Fault semantics no longer live in scheme subclasses: a faulty run is the
*same* scheme instance carrying a
:class:`~repro.protocol.transport.FaultTransport`, assembled here per
scheme.  Dispatch rules keep fault-free results byte-identical to the
plain code path (the acceptance bar for the subsystem):

* a zero plan (:meth:`FaultPlan.is_zero`) routes straight to
  :func:`repro.core.run.run_scheme` — no fault layer is even
  constructed, so no extra counters, no RNG churn, nothing;
* schemes without a faultable cooperation path (NC and the other upper
  bounds whose remote tier is an abstraction fault injection does not
  degrade) also run plain at *any* fault rate.  NC in particular is
  fault-free by construction — its client → proxy → origin path has no
  cooperation link — which is what anchors the "degrades toward NC,
  never below" claim of the robustness experiment.

The plan also carries the *response* to its faults: per-link
:class:`~repro.protocol.policy.RetryPolicy` strategies
(``plan.policies``), honoured by the assembled
:class:`~repro.protocol.transport.FaultTransport` on every path this
entry point dispatches to (sync, async backend, recorded).  A plan
without policies runs the default exponential ladder, byte-identical
to the pre-policy builds.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from ..core.churn import HierGdChurnScheme
from ..core.config import SimulationConfig
from ..core.metrics import SchemeResult
from ..core.run import generate_workloads, run_scheme, with_backend
from ..core.schemes import SCHEME_REGISTRY
from ..core.simulator import CachingScheme
from ..protocol.trace import active_trace_recorder
from ..protocol.transport import FaultTransport, Transport
from ..workload import Trace
from .plan import NO_FAULTS, FaultPlan
from .poisson import poisson_churn_events

__all__ = ["FAULTY_SCHEMES", "run_scheme_with_faults"]


def _fault_transport(
    config: SimulationConfig, plan: FaultPlan, scope: str
) -> FaultTransport:
    return FaultTransport(Transport(config.network), plan, scope=scope)


def _faulty_hiergd(
    config: SimulationConfig,
    traces: list[Trace],
    plan: FaultPlan,
    transport: Transport | None = None,
) -> CachingScheme:
    """Hier-GD under the full fault model.

    Builds on the churn scheme (reference engine, lazily repaired
    directories, membership events) with a fault transport carrying
    message-level faults on the three cooperation links, stale
    directories beyond Bloom false positives (lossy eviction notices),
    unresponsive push targets — plus Poisson churn generated from
    ``plan.churn_rate``, subsuming the hand-written event lists.
    Unresponsiveness bites the *push* protocol only: within the own
    cluster the proxy redirects its own client over the LAN, which the
    firewall story (§4.3) does not block.

    ``transport`` substitutes the whole carrier stack (a recording
    wrapper, a replay transport); ``None`` builds the standard fault
    transport.  Churn events are regenerated from the plan either way —
    they are a pure function of it, which is what lets a replayed run
    reconstruct them without the wire trace carrying membership.
    """
    events = poisson_churn_events(
        plan,
        n_requests=sum(len(t) for t in traces),
        n_clusters=config.n_proxies,
        n_clients=config.sizing_for(traces[0]).n_clients,
    )
    if transport is None:
        transport = _fault_transport(config, plan, "hier-gd")
    scheme = HierGdChurnScheme(config, traces, events, transport=transport)
    # Report as the scheme under test, not the churn-harness subclass.
    scheme.name = "hier-gd"
    return scheme


def _faulty_scheme(
    name: str,
    config: SimulationConfig,
    traces: list[Trace],
    plan: FaultPlan,
    transport: Transport | None = None,
) -> CachingScheme:
    """FC, FC-EC or Squirrel: the registered scheme on a fault transport
    (its ``process`` consults the transport whenever it is faulty)."""
    if transport is None:
        transport = _fault_transport(config, plan, name)
    return SCHEME_REGISTRY[name](config, traces, transport=transport)


#: Scheme name -> builder assembling the scheme for a non-zero plan
#: (everything else runs plain).  The optional ``transport`` replaces
#: the standard fault stack — the seam the record/replay harness uses.
FAULTY_SCHEMES: dict[
    str,
    Callable[..., CachingScheme],
] = {
    "hier-gd": _faulty_hiergd,
    **{name: partial(_faulty_scheme, name) for name in ("fc", "fc-ec", "squirrel")},
}


def run_scheme_with_faults(
    name: str,
    config: SimulationConfig,
    traces: list[Trace] | None = None,
    plan: FaultPlan | None = None,
    seed: int = 0,
    backend: str = "sync",
) -> SchemeResult:
    """Simulate ``name`` under ``plan`` (``None``/zero plan: plain run).

    Inside a :func:`repro.protocol.trace.recording_traces` block the
    fault stack is wrapped in a recording layer, so faulty runs record
    exactly like plain ones.  As with :func:`~repro.core.run.run_scheme`,
    callers that supply ``traces`` must pass the ``seed`` they were
    generated from for the recording header to be replayable.
    ``backend="async"`` drives the stack through the awaitable ladder
    path on the simulated clock, byte-identical to the synchronous run.
    """
    plan = NO_FAULTS if plan is None else plan
    if plan.is_zero() or name not in FAULTY_SCHEMES:
        return run_scheme(name, config, traces, seed=seed, backend=backend)
    if traces is None:
        traces = generate_workloads(config, seed=seed)
    recorder = active_trace_recorder()
    if recorder is None:
        carrier = with_backend(_fault_transport(config, plan, name), backend)
        return FAULTY_SCHEMES[name](config, traces, plan, transport=carrier).run()
    recording = recorder.open(
        name, config, seed, plan, _fault_transport(config, plan, name)
    )
    carrier = with_backend(recording, backend)
    scheme = FAULTY_SCHEMES[name](config, traces, plan, transport=carrier)
    recording.attach(scheme)
    result = None
    try:
        result = scheme.run()
    finally:
        recorder.close(recording, result)
    return result

"""Fault injection: deterministic failures for the cooperation protocols.

The paper assumes Pastry is "fault-resilient and self-organizing" and
never charges a failure; this package makes failure a first-class,
seeded experiment input:

- :mod:`repro.faults.plan` — :class:`FaultPlan`: message loss/delay per
  cooperation link, stale directory entries, unresponsive push targets,
  Poisson churn; ``NO_FAULTS`` is the identity.
- :mod:`repro.faults.injector` — named SHA-256 substreams so every
  fault draw replays identically from the plan seed.
- :mod:`repro.faults.poisson` — churn-event generation from a rate,
  subsuming hand-written :class:`~repro.core.churn.ChurnEvent` lists.
- :mod:`repro.faults.run` — :data:`FAULTY_SCHEMES`, the schemes whose
  cooperation path faults degrade (everything else, and every scheme
  under a zero plan, runs plain).  A faulty run is launched like any
  other, through :func:`repro.core.run.run_scheme` with ``plan=``;
  :func:`run_scheme_with_faults` remains as a forwarder to it.

The failure *semantics* — timeout → bounded retry (exponential backoff)
→ fallback-to-origin, every wasted round charged to latency — live in
:class:`repro.protocol.transport.FaultTransport`: a faulty run is the
same scheme carrying a fault transport, not a subclass fork.

Layering: this package imports :mod:`repro.core` / :mod:`repro.protocol`
/ :mod:`repro.netmodel` only — never :mod:`repro.experiments`, which
builds on top of it.
"""

from .injector import FaultInjector, fault_seed
from .plan import NO_FAULTS, FaultPlan
from .poisson import poisson_churn_events
from .run import FAULTY_SCHEMES, run_scheme_with_faults

__all__ = [
    "FAULTY_SCHEMES",
    "NO_FAULTS",
    "FaultInjector",
    "FaultPlan",
    "fault_seed",
    "poisson_churn_events",
    "run_scheme_with_faults",
]

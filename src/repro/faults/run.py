"""Which schemes fault injection degrades, and the legacy faulty entry point.

Fault semantics do not live in scheme subclasses: a faulty run is the
*same* scheme carrying a
:class:`~repro.protocol.transport.FaultTransport`, assembled by
:func:`repro.core.run.build_scheme` and run by
:func:`repro.core.run.run_scheme` with ``plan=``.  Schemes outside
:data:`FAULTY_SCHEMES`, and every scheme under a zero plan, run plain:
no fault layer is even constructed, so fault-free results stay
byte-identical to the plain code path.
"""

from __future__ import annotations

from ..core.config import SimulationConfig
from ..core.metrics import SchemeResult
from ..core.run import run_scheme
from ..workload import Trace
from .plan import FaultPlan

__all__ = ["FAULTY_SCHEMES", "run_scheme_with_faults"]

#: Schemes with a faultable cooperation path; everything else runs
#: plain at any fault rate.
FAULTY_SCHEMES = frozenset({"fc", "fc-ec", "hier-gd", "squirrel"})


def run_scheme_with_faults(
    name: str,
    config: SimulationConfig,
    traces: list[Trace] | None = None,
    plan: FaultPlan | None = None,
    seed: int = 0,
    backend: str = "sync",
) -> SchemeResult:
    """``run_scheme(..., plan=plan)`` under its older name and argument order."""
    return run_scheme(name, config, traces, seed=seed, backend=backend, plan=plan)

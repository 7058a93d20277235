"""Identity gate: one recorded run per point, every identity derived from it.

The acceptance bar of the ways a run can be repeated without changing
its result, run as a CI smoke job.  For every faultable scheme (fc,
fc-ec, hier-gd, squirrel) at fault rate 0 and at the gate rate, the
scheme is simulated **once**, synchronously, with recording on; every
per-point check below reads that one run:

* ``replay`` — replaying the trace yields a **byte-identical**
  ``SchemeResult`` with zero divergences and the whole recorded
  exchange stream consumed;
* ``what-if`` — the identity-policy what-if reproduces the recorded
  result byte-identically with zero changed events (the ``draws`` field
  and :func:`repro.protocol.policy.run_ladder` agree to the uniform);
* ``recorded`` — the result sealed in the trace is the run's own;
* ``async`` — the same point driven through
  :class:`~repro.protocol.aio.AsyncTransport` on the deterministic
  simulated clock is byte-identical to the synchronous result, and on
  the faulty point the clock actually advanced (waits were awaited, not
  skipped): equivalence by doing the work, not by bypassing it.

Then, once, on the last faulty trace:

* a deliberately corrupted trace (first ``"x"`` event's exchange kind
  flipped) must produce a divergence report naming exactly that
  exchange index — the harness must *find* corruption;
* a *modified* policy (``immediate``) must actually change events — a
  what-if that never disagrees with the recording measures nothing;
* a schema-1 trace (the recording downgraded: ``draws`` column
  stripped, header version rewound) must still replay cleanly, give a
  byte-identical identity what-if, and be *refused* for non-identity
  what-ifs with a clear error.

That is 26 simulations: 8 points x (record, replay, async) plus the
corrupted and the schema-1 replays; what-ifs re-judge without
simulating.

Usage::

    REPRO_SCALE=smoke PYTHONPATH=src python benchmarks/identity_gate.py
    python benchmarks/identity_gate.py --rate 0.1 --out /tmp/identity_traces
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from repro.core.metrics import SchemeResult
from repro.core.run import run_scheme
from repro.experiments.robustness import ROBUSTNESS_FRACTION, robustness_plan
from repro.experiments.runner import base_config
from repro.faults import FaultPlan
from repro.protocol.aio import AsyncTransport
from repro.protocol.policy import PolicySet, RetryPolicy
from repro.protocol.replay import ReplayReport, format_report, replay_trace
from repro.protocol.trace import recording_traces
from repro.protocol.transport import FaultTransport, Transport
from repro.protocol.whatif import (
    WhatIfError,
    WhatIfReport,
    format_whatif,
    whatif_trace,
)

GATE_SCHEMES = ("fc", "fc-ec", "hier-gd", "squirrel")

IMMEDIATE = PolicySet(default=RetryPolicy(strategy="immediate"))


@dataclasses.dataclass
class Point:
    """One (scheme, rate) run and everything derived from it."""

    scheme: str
    rate: float
    label: str
    sync: SchemeResult
    trace: Path
    replay: ReplayReport
    whatif: WhatIfReport
    asyn: SchemeResult
    #: Simulated time the async run spent awaiting ladder waits.
    clock: float


def simulate(scheme: str, rate: float, config, out_dir: Path) -> Point:
    """Record the point once, then replay, re-judge and rerun it async."""
    plan: FaultPlan = robustness_plan(rate)
    with recording_traces(out_dir) as recorder:
        sync = run_scheme(scheme, config, seed=0, plan=plan)
    trace = recorder.written[-1]
    stack = Transport(config.network)
    if not plan.is_zero():
        stack = FaultTransport(stack, plan, scope=scheme)
    carrier = AsyncTransport(stack)
    asyn = run_scheme(scheme, config, seed=0, plan=plan, transport=carrier)
    return Point(
        scheme=scheme,
        rate=rate,
        label=f"{scheme}@rate={rate:g}",
        sync=sync,
        trace=trace,
        replay=replay_trace(trace),
        whatif=whatif_trace(trace),
        asyn=asyn,
        clock=carrier.clock.now,
    )


# -- per-point checks: each returns failure messages, printing its "ok" -----


def check_replay(p: Point) -> list[str]:
    if p.replay.divergence is not None:
        print(format_report(p.replay))
        return [f"{p.label}: unexpected divergence"]
    if not p.replay.identical:
        print(format_report(p.replay))
        return [f"{p.label}: replayed result differs from recording"]
    print(
        f"  ok {p.label}: {p.replay.events_replayed} exchanges replayed, "
        "result byte-identical"
    )
    return []


def check_whatif(p: Point) -> list[str]:
    if not p.whatif.identity:
        return [f"{p.label}: default policies not seen as identity"]
    if p.whatif.n_changed or not p.whatif.identical:
        print(format_whatif(p.whatif))
        return [
            f"{p.label}: identity what-if drifted from the recording "
            f"({p.whatif.n_changed} changed events)"
        ]
    print(
        f"  ok {p.label}: {p.whatif.n_ladders} ladders re-judged, "
        "identity result byte-identical"
    )
    return []


def check_recorded(p: Point) -> list[str]:
    if p.replay.recorded != dataclasses.asdict(p.sync):
        return [f"{p.label}: recorded result differs from the run's own result"]
    print(f"  ok {p.label}: recorded result is the run's own")
    return []


def check_async(p: Point) -> list[str]:
    if dataclasses.asdict(p.sync) != dataclasses.asdict(p.asyn):
        for field in dataclasses.asdict(p.sync):
            a, b = getattr(p.sync, field), getattr(p.asyn, field)
            if a != b:
                print(f"  {p.label} {field}: sync {a!r} vs async {b!r}")
        return [f"{p.label}: async result differs from sync"]
    print(f"  ok {p.label}: async result byte-identical to sync")
    return []


def check_clock(p: Point) -> list[str]:
    if p.rate == 0:
        return []
    if p.clock <= 0.0:
        return [
            f"{p.scheme}: simulated clock never advanced under faults "
            "(waits were skipped, not awaited)"
        ]
    print(f"  ok {p.scheme}: clock advanced {p.clock:.1f} units of waits")
    return []


POINT_CHECKS = (check_replay, check_whatif, check_recorded, check_async, check_clock)


# -- one-off checks on the last faulty trace --------------------------------


def corrupt_first_exchange(trace_path: Path, out_path: Path) -> int:
    """Flip the first ``"x"`` event's kind; return its event index."""
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    event_index = -1
    for i, line in enumerate(lines):
        entry = json.loads(line)
        if not isinstance(entry, list):
            continue
        event_index += 1
        if entry[0] == "x":
            entry[2] = "proxy_fetch" if entry[2] != "proxy_fetch" else "push"
            lines[i] = json.dumps(entry)
            out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return event_index
    raise SystemExit(f"{trace_path}: no 'x' events to corrupt")


def downgrade_to_schema1(trace_path: Path, out_path: Path) -> None:
    """Rewrite a schema-2 trace as schema 1: no draws, version rewound."""
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    out: list[str] = []
    for i, line in enumerate(lines):
        entry = json.loads(line)
        if i == 0:
            entry["schema"] = 1
            out.append(json.dumps(entry, sort_keys=True))
        elif isinstance(entry, list) and entry[0] == "x" and len(entry) == 8:
            out.append(json.dumps(entry[:7]))
        else:
            out.append(line)
    out_path.write_text("\n".join(out) + "\n", encoding="utf-8")


def check_corruption(faulty: Path, out_dir: Path) -> list[str]:
    corrupted = out_dir / f"corrupted-{faulty.name}"
    expected_index = corrupt_first_exchange(faulty, corrupted)
    report = replay_trace(corrupted)
    print(f"\ncorruption check ({corrupted.name}):")
    print(format_report(report))
    if report.divergence is None:
        return ["corrupted trace replayed clean — divergence not detected"]
    if report.divergence.index != expected_index:
        return [
            f"divergence reported at exchange {report.divergence.index}, "
            f"corrupted exchange is {expected_index}"
        ]
    print(f"  ok corruption detected at exchange {expected_index}, as injected")
    return []


def check_modified_policy(faulty: Path, out_dir: Path) -> list[str]:
    modified = whatif_trace(faulty, IMMEDIATE)
    print(f"\nmodified-policy check ({faulty.name}):")
    print(format_whatif(modified))
    if modified.n_changed == 0 or modified.identical:
        return ["immediate-fallback what-if changed nothing on a faulty trace"]
    print(f"  ok immediate policy re-judged {modified.n_changed} events")
    return []


def check_schema1(faulty: Path, out_dir: Path) -> list[str]:
    failures: list[str] = []
    old = out_dir / f"schema1-{faulty.name}"
    downgrade_to_schema1(faulty, old)
    replay = replay_trace(old)
    if replay.divergence is not None or not replay.identical:
        failures.append("downgraded schema-1 trace did not replay clean")
    else:
        print(f"  ok schema-1 trace replayed clean ({replay.n_events} events)")
    identity_old = whatif_trace(old)
    if identity_old.n_changed or not identity_old.identical:
        failures.append("schema-1 identity what-if not byte-identical")
    else:
        print("  ok schema-1 identity what-if byte-identical")
    try:
        whatif_trace(old, IMMEDIATE)
    except WhatIfError as exc:
        print(f"  ok schema-1 policy what-if refused: {exc}")
    else:
        failures.append(
            "schema-1 trace accepted a non-identity what-if (no draws to "
            "re-judge — must be refused)"
        )
    return failures


TRACE_CHECKS = (check_corruption, check_modified_policy, check_schema1)


def run_gate(rate: float, out_dir: Path) -> list[str]:
    """Simulate every gate point once and check it; return failure messages."""
    failures: list[str] = []
    config = base_config().with_changes(proxy_cache_fraction=ROBUSTNESS_FRACTION)
    faulty: Path | None = None
    for scheme in GATE_SCHEMES:
        for r in (0.0, rate):
            point = simulate(scheme, r, config, out_dir)
            for check in POINT_CHECKS:
                failures += check(point)
            if r > 0:
                faulty = point.trace
    if faulty is None:
        failures.append("no faulty trace recorded (rate 0?)")
        return failures
    for check in TRACE_CHECKS:
        failures += check(faulty, out_dir)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=0.1,
                        help="faulty gate point's composite fault rate")
    parser.add_argument("--out", type=Path, default=None, metavar="DIR",
                        help="trace directory (default: a temp dir)")
    args = parser.parse_args(argv)
    out_dir = args.out or Path(tempfile.mkdtemp(prefix="identity_gate_"))
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = run_gate(args.rate, out_dir)
    if failures:
        print("\nIDENTITY GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nidentity gate passed: every replay, identity what-if and async "
          "run byte-identical; corruption detected, modified policies bite, "
          "schema-1 traces replay clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

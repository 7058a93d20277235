"""Live daemon gate: drive real daemons, record, replay, diff vs simulation.

The live path's acceptance bar, run as a CI smoke job:

* start a proxy + client daemon cluster on localhost;
* drive at least 1000 requests of a faulty workload against it with
  recording on;
* the recorded live trace must replay **clean** (zero divergences, the
  replayed result byte-identical to what the live run produced);
* the live trace file must be **byte-identical** to the trace a
  simulated run of the same ``(config, scheme, seed, plan)`` records —
  the strongest statement that the daemons serve exactly the
  simulator's fault semantics.

Usage::

    REPRO_SCALE=smoke PYTHONPATH=src python benchmarks/daemon_gate.py
    python benchmarks/daemon_gate.py --scheme hier-gd --rate 0.1
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.core.run import run_scheme
from repro.daemon import LocalCluster, drive_scheme
from repro.experiments.robustness import ROBUSTNESS_FRACTION, robustness_plan
from repro.experiments.runner import base_config
from repro.protocol.replay import format_report, replay_trace
from repro.protocol.trace import recording_traces

MIN_REQUESTS = 1000


def run_gate(scheme: str, rate: float, out_dir: Path) -> list[str]:
    """Drive, round-trip and diff one scheme; return failure messages."""
    failures: list[str] = []
    config = base_config().with_changes(proxy_cache_fraction=ROBUSTNESS_FRACTION)
    plan = robustness_plan(rate)

    with LocalCluster(n_clients=1) as cluster:
        live = drive_scheme(
            scheme,
            config,
            routes=cluster.routes,
            plan=plan,
            seed=0,
            record_dir=out_dir / "live",
        )
        stats = cluster.stats()
    print(
        f"  drove {live.n_requests} requests: {live.exchanges} wire "
        f"exchanges, {live.probes} probes "
        f"(proxy max_in_flight={stats[0]['max_in_flight']})"
    )
    if live.n_requests < MIN_REQUESTS:
        failures.append(
            f"workload too small for the gate: {live.n_requests} requests "
            f"< {MIN_REQUESTS} (raise REPRO_SCALE)"
        )
    if live.exchanges == 0:
        failures.append("no exchanges crossed the wire — not a live run")

    report = replay_trace(live.trace_path)
    if report.divergence is not None or not report.identical:
        failures.append("live trace does not round-trip through replay")
        print(format_report(report))
    else:
        print(
            f"  ok replay: {report.events_replayed} recorded exchanges "
            "consumed, result byte-identical"
        )

    with recording_traces(out_dir / "sim") as recorder:
        run_scheme(scheme, config, seed=0, plan=plan)
    sim_path = recorder.written[-1]
    if sim_path.read_bytes() != live.trace_path.read_bytes():
        failures.append(
            f"live trace differs from simulated trace "
            f"({live.trace_path.name} vs {sim_path.name})"
        )
    else:
        print(f"  ok live trace byte-identical to simulated ({sim_path.name})")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scheme", default="fc",
                        help="scheme to drive (default: fc)")
    parser.add_argument("--rate", type=float, default=0.1,
                        help="composite fault rate of the driven workload")
    parser.add_argument("--out", type=Path, default=None, metavar="DIR",
                        help="trace directory (default: a temp dir)")
    args = parser.parse_args(argv)
    out_dir = args.out or Path(tempfile.mkdtemp(prefix="daemon_gate_"))
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = run_gate(args.scheme, args.rate, out_dir)
    if failures:
        print("\nDAEMON GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\ndaemon gate passed: live run recorded, replayed clean, "
          "byte-identical to simulation")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one workload per invocation, checked results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-long --seed 1 --seconds 25 --trace 0

The workload is set up ``SETUP_REPEATS`` times, each time into a fresh
directory (set-up), then its points are replayed pass after pass for
``--seconds`` seconds; every point of every pass is checked.
``setup_s`` is the median set-up time.  A pass costs the sum of each
point's fastest run: every pass does identical work (the results are
checked bit for bit), so the spread between passes is the host's, and
the host only ever adds time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
traced set-up, then alternates untraced passes with traced ones, spans
recorded at the layer seams (see ``spans.py``); it checks that the
traced results are byte-identical to the untraced ones and prints the
per-layer metrics of the fastest traced pass instead.  The last line of
standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.

The program is imported from ``src/`` of the checkout this file lives
in; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Run-private files (chunked traces, span dumps) live here, inside the checkout.
SCRATCH = ROOT / ".perfbench"
COMMITTED_DIGESTS = HERE / "digests.json"
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "replay_rps": "req/s", "peak_rss_mb": "MiB"}


def _per_layer_units() -> dict[str, str]:
    from workloads import SCHEMES

    units = {
        "workload.generate_s": "s",
        "workload.generate_rps": "req/s",
        "workload.trace_bytes": "B",
        "overlay.pastry.build_s": "s",
        "overlay.chord.build_s": "s",
        "overlay.nodes_built": "count",
        "placement.object_ids_s": "s",
        "placement.owner_table_s": "s",
        "placement.builds": "count",
    }
    for s in SCHEMES:
        units.update({f"core.{s}.construct_s": "s", f"core.{s}.run_s": "s",
                      f"core.{s}.rps": "req/s"})
    for s in SCHEMES:
        units.update({f"cache.{s}.ops": "count", f"cache.{s}.evictions": "count",
                      f"cache.{s}.hit_ratio": "ratio"})
    units.update({
        "protocol.attempt_s": "s",
        "protocol.exchanges": "count",
        "protocol.retries": "count",
        "protocol.timeouts": "count",
        "protocol.fallbacks": "count",
        "protocol.first_try_ratio": "ratio",
        "shard.wall_s": "s",
        "shard.rounds": "count",
        "shard.digest_bytes": "B",
        "shard.merge_s": "s",
        "shard.coordinator_wait_s": "s",
        "shard.worker_max_rss_mb": "MiB",
        "shard.stale_remote_pushes": "count",
    })
    from spans import LAYERS

    for layer in (*LAYERS, "unattributed"):
        units[f"self.{layer}_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def load_program() -> None:
    """Import the program from this checkout's ``src/``.

    Raises ImportError when ``src/repro`` is missing or a ``repro`` from
    elsewhere would be measured instead.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent.parent != src:
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")
    import spans  # noqa: F401
    import workloads  # noqa: F401


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing the program."""
    code = (
        "import sys, time; t0 = time.perf_counter(); "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; import workloads; "
        "print(time.perf_counter() - t0)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout)


def committed_digests(name: str, seed: int) -> dict[str, str] | None:
    """The stored per-point digests, when they apply to this seed."""
    data = json.loads(COMMITTED_DIGESTS.read_text())
    if data["seed"] != seed:
        return None
    return data["workloads"][name]


def _fresh_dir(parent: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=parent))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pass:
    """Runs the points of one pass, checks them and keeps the tallies."""

    def __init__(self, wl, seed: int, expected: dict[str, str] | None,
                 expected_bytes: dict[str, int]) -> None:
        self.wl = wl
        self.seed = seed
        self.expected = expected
        #: population -> bytes its requests ask for (sized populations only).
        self.expected_bytes = expected_bytes
        #: label -> digest of the first untraced result (cross-pass check).
        self.reference: dict[str, str] = {}
        #: label -> run time of the point in each untraced / traced pass.
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.traced_durations: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.worker_rss_mb = 0.0

    def run(self, traces: dict, directory: Path, tracer=None, collector=None) -> dict:
        """One pass over every point; returns label -> result (None if raised)."""
        import workloads
        from repro.faults import FAULTY_SCHEMES

        durations = self.durations if tracer is None else self.traced_durations
        results = {}
        for point in self.wl.points:
            self.attempted += 1
            stats: dict = {}
            result = error = None
            span = None
            if tracer is not None:
                tracer.point = point.label
                tracer.last_scheme = None
                name = "shard.run" if point.kind == "sharded" else "core.point"
                span = tracer.open(name, scheme=point.scheme)
                if point.kind == "sharded":
                    tracer.shard_started()
            t0 = time.perf_counter()
            try:
                result = workloads.run_point(point, traces, directory, self.seed, stats)
            except Exception:
                error = traceback.format_exc()
            durations[point.label].append(time.perf_counter() - t0)
            if span is not None:
                tracer.close(span)
            results[point.label] = result
            if "worker_max_rss_kb" in stats:
                rss = stats["worker_max_rss_kb"] / 1024
                if tracer is None:
                    self.worker_rss_mb = max(self.worker_rss_mb, rss)
                else:
                    key = "shard.worker_max_rss_mb"
                    tracer.counts[key] = max(tracer.counts[key], rss)
            if result is None:
                self._fail(point.label, error)
                continue
            if (collector is not None and point.kind == "faults"
                    and point.scheme in FAULTY_SCHEMES and not point.plan.is_zero()):
                # run_scheme_with_faults bypasses run_scheme's op-counter hook.
                collector.record(point.scheme, tracer.last_scheme, result)
            problems = workloads.check_point(point, result, results.get(point.baseline),
                                             self.expected_bytes.get(point.population))
            got = workloads.digest(result)
            if self.expected is not None and self.expected.get(point.label) != got:
                problems.append("result digest differs from the committed one")
            if self.reference.setdefault(point.label, got) != got:
                problems.append("result differs from the first untraced pass")
            if problems:
                self._fail(point.label, "; ".join(problems))
        return results

    def _fail(self, label: str, why: str) -> None:
        self.failed += 1
        print(f"[perfbench] point {label} FAILED: {why}", file=sys.stderr)

    def pass_seconds(self, traced: bool = False) -> float:
        """Sum over the points of each point's fastest run."""
        durations = self.traced_durations if traced else self.durations
        return sum(min(durations[p.label]) for p in self.wl.points)


def _set_up(wl, directory: Path, seed: int, tracer=None) -> tuple[dict, float]:
    import workloads

    traces = {}
    t0 = time.perf_counter()
    for key, pop in wl.populations.items():
        if tracer is None:
            traces[key] = workloads.generate(pop, directory / key, seed)
        else:
            with tracer.span("workload.generate", population=key):
                traces[key] = workloads.generate(pop, directory / key, seed)
    return traces, time.perf_counter() - t0


class TracedPasses:
    """One traced set-up, then traced passes interleaved with the untraced ones.

    Each traced pass records into its own :class:`spans.Tracer`, which
    starts from the set-up's spans; the fastest traced pass gives the
    per-layer metrics.
    """

    def __init__(self, wl, run_dir: Path, seed: int) -> None:
        import spans

        self.wl = wl
        self.directory = _fresh_dir(run_dir)
        self.setup = spans.Tracer()
        self.traces, self.generate_s = _set_up(wl, self.directory, seed, self.setup)
        #: (replay seconds, tracer, op-counter collector, results) of the fastest pass.
        self.best: tuple | None = None

    def run(self, runner: Pass) -> None:
        import spans
        from repro.perf.profiling import collecting_op_counters

        tracer = spans.Tracer(self.setup.spans)
        saved = spans.install(tracer)
        try:
            with collecting_op_counters() as collector:
                results = runner.run(self.traces, self.directory, tracer, collector)
        finally:
            spans.uninstall(saved)
        replay_s = sum(s["end"] - s["start"] for s in tracer.spans
                       if s["parent"] is None and s["name"] != "workload.generate")
        if self.best is None or replay_s < self.best[0]:
            self.best = (replay_s, tracer, collector, results)

    def metrics(self, runner: Pass, import_s: float) -> dict:
        """The per-layer metrics of the fastest traced pass."""
        replay_s, tracer, collector, results = self.best
        traced_wall = import_s + self.generate_s + replay_s
        out = layer_metrics(self.wl, tracer, collector, results, self.directory, traced_wall)
        out["trace.overhead_s"] = runner.pass_seconds(traced=True) - runner.pass_seconds()
        dump = SCRATCH / "spans" / f"{self.wl.name}.s{runner.seed}.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps(tracer.spans))
        return out


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    digests: dict[str, str] | None = None,
) -> dict:
    """Measure one workload; returns the result object plus run details."""
    import workloads

    wl = workloads.build_workload(name, seed, scale)
    SCRATCH.mkdir(exist_ok=True)
    run_dir = _fresh_dir(SCRATCH)
    try:
        import_times, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            directory = _fresh_dir(run_dir)
            import_times.append(import_seconds())
            traces, generate_s = _set_up(wl, directory, seed)
            setup_times.append(import_times[-1] + generate_s)
        setup_s = statistics.median(setup_times)

        runner = Pass(wl, seed, digests, workloads.expected_bytes(traces))
        traced = TracedPasses(wl, run_dir, seed) if trace else None
        start = time.perf_counter()
        while not runner.durations or time.perf_counter() - start < seconds:
            runner.run(traces, directory)
            if traced is not None:
                traced.run(runner)
        pass_s = runner.pass_seconds()
        metrics = {
            "wall_s": setup_s + pass_s,
            "setup_s": setup_s,
            "replay_rps": wl.requests_per_pass() / pass_s,
            "peak_rss_mb": max(_rss_mb(), runner.worker_rss_mb),
        }
        if traced is not None:
            metrics = traced.metrics(runner, statistics.median(import_times))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "digests": dict(runner.reference),
        "requests_per_pass": wl.requests_per_pass(),
        "points": len(wl.points),
        "passes": len(runner.durations[wl.points[0].label]),
    }


def layer_metrics(wl, tracer, collector, results: dict, directory: Path,
                  traced_wall: float) -> dict:
    """Per-layer metrics of one traced pass (zero where a layer is unused)."""
    from workloads import N_PROXIES, SCHEMES

    m = dict.fromkeys(_per_layer_units(), 0.0)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == name)

    m["workload.generate_s"] = total("workload.generate")
    generated = N_PROXIES * sum(p.n_requests for p in wl.populations.values())
    m["workload.generate_rps"] = generated / m["workload.generate_s"]
    m["workload.trace_bytes"] = float(
        sum(f.stat().st_size for f in directory.rglob("*.ctrace"))
    )
    m["overlay.pastry.build_s"] = total("overlay.pastry.build")
    m["overlay.chord.build_s"] = total("overlay.chord.build")
    m["overlay.nodes_built"] = tracer.counts["overlay.nodes_built"]
    m["placement.object_ids_s"] = total("placement.object_ids")
    m["placement.owner_table_s"] = total("placement.owner_table")
    m["placement.builds"] = tracer.counts["placement.builds"]

    served = defaultdict(int)
    for i, s in enumerate(tracer.spans):
        if s["name"] != "core.point":
            continue
        runs = [c for c in tracer.spans if c["parent"] == i and c["name"] == "core.run"]
        result = results.get(s["point"])
        if not runs or result is None:
            continue
        scheme = s["scheme"]
        m[f"core.{scheme}.construct_s"] += runs[0]["start"] - s["start"]
        m[f"core.{scheme}.run_s"] += runs[0]["end"] - runs[0]["start"]
        served[scheme] += result.n_requests
    for scheme in SCHEMES:
        if served[scheme]:
            m[f"core.{scheme}.rps"] = served[scheme] / m[f"core.{scheme}.run_s"]
        ops = collector.per_scheme.get(scheme)
        if ops:
            m[f"cache.{scheme}.ops"] = float(
                ops["hits"] + ops["misses"] + ops["insertions"] + ops["evictions"]
            )
            m[f"cache.{scheme}.evictions"] = float(ops["evictions"])
            lookups = ops["hits"] + ops["misses"]
            m[f"cache.{scheme}.hit_ratio"] = ops["hits"] / lookups if lookups else 0.0

    done = [r for r in results.values() if r is not None]
    m["protocol.attempt_s"] = total("protocol.attempt")
    m["protocol.exchanges"] = tracer.counts["protocol.exchanges"]
    for key in ("retries", "timeouts", "fallbacks"):
        m[f"protocol.{key}"] = float(sum(r.messages.get(key, 0) for r in done))
    if m["protocol.exchanges"]:
        m["protocol.first_try_ratio"] = (
            tracer.counts["protocol.first_try"] / m["protocol.exchanges"]
        )

    sharded = [results.get(p.label) for p in wl.points if p.kind == "sharded"]
    sharded = [r for r in sharded if r is not None]
    m["shard.wall_s"] = total("shard.run")
    m["shard.rounds"] = float(sum(r.extras.get("sync_rounds", 0) for r in sharded))
    m["shard.digest_bytes"] = tracer.counts["shard.digest_bytes"]
    m["shard.merge_s"] = total("shard.merge")
    m["shard.coordinator_wait_s"] = tracer.counts["shard.coordinator_wait_s"]
    m["shard.worker_max_rss_mb"] = tracer.counts["shard.worker_max_rss_mb"]
    m["shard.stale_remote_pushes"] = float(
        sum(r.messages.get("stale_remote_pushes", 0) for r in sharded)
    )

    self_times = tracer.self_times()
    for layer, seconds in self_times.items():
        m[f"self.{layer}_s"] = seconds
    m["self.unattributed_s"] = traced_wall - sum(self_times.values())
    return m


def format_report(name: str, report: dict, units: dict[str, str]) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    lines = [
        f"[{name}] {report['points']} points, {report['requests_per_pass']} "
        f"simulated requests per pass, {report['passes']} untraced passes"
    ]
    for key, value in report["metrics"].items():
        lines.append(f"[{name}] {key} = {value:.6g} {units[key]}")
    frac = report["failed"] / report["attempted"]
    lines.append(
        f"[{name}] failed_frac = {frac:.6g} failed/attempted "
        f"({report['failed']} of {report['attempted']} points)"
    )
    return lines


def result_line(report: dict, units: dict[str, str]) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"[perfbench] cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    report = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace),
        digests=committed_digests(args.workload, args.seed),
    )
    units = _per_layer_units() if args.trace else END_TO_END
    for line in format_report(args.workload, report, units):
        print(line)
    print(result_line(report, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())

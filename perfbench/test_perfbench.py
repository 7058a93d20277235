"""Self-tests of the benchmark at a tiny scale.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()

import spans  # noqa: E402
import workloads  # noqa: E402

TINY = 0.05
SEED = 7
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, trace: bool = False, digests=None) -> dict:
    return run.run_benchmark(name, SEED, 0, trace, scale=TINY, digests=digests)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_runs_and_passes_its_checks(name):
    report = tiny(name)
    points = len(workloads.build_workload(name, SEED, TINY).points)
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] == points
    assert all(value > 0 for value in report["metrics"].values())


def test_benchmark_json_matches_the_printed_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run._per_layer_units()


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(trace):
    report = tiny("paper-long", trace)
    units = run._per_layer_units() if trace else run.END_TO_END
    lines = run.format_report("paper-long", report, units)
    for name, unit in units.items():
        assert any(line.startswith(f"[paper-long] {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any("failed_frac = 0 " in line for line in lines)
    last = json.loads(run.result_line(report, units))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["metrics"] == {k: {"value": report["metrics"][k], "unit": u}
                               for k, u in units.items()}


def test_a_tampered_digest_is_a_failed_point_not_a_crash():
    good = tiny("faults-sized")["digests"]
    assert tiny("faults-sized", digests=good)["failed"] == 0
    tampered = dict(good, **{"hier-gd": "0" * 64})
    report = tiny("faults-sized", digests=tampered)
    assert report["failed"] == 1 and not report["correct"]
    assert report["attempted"] == len(good)


def test_a_byte_total_the_trace_does_not_ask_for_fails_every_sized_point(monkeypatch):
    real = workloads.expected_bytes
    monkeypatch.setattr(workloads, "expected_bytes",
                        lambda traces: {k: v + 1 for k, v in real(traces).items()})
    report = tiny("faults-sized")
    assert report["failed"] == report["attempted"] == len(workloads.SCHEMES)


def test_a_failed_check_is_counted(monkeypatch):
    def broken(point, *args):
        if point.scheme == "sc":
            raise RuntimeError("injected")
        return real(point, *args)

    real = workloads.run_point
    monkeypatch.setattr(workloads, "run_point", broken)
    report = tiny("paper-long")
    assert report["failed"] == 1 and report["attempted"] == 9


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracing_leaves_every_result_unchanged(name):
    from repro.core.simulator import CachingScheme

    original = CachingScheme.run
    plain = tiny(name)
    traced = tiny(name, trace=True)
    # The traced pass is checked against the untraced digests in-run.
    assert traced["failed"] == 0 and traced["attempted"] == 2 * plain["attempted"]
    assert traced["digests"] == plain["digests"]
    assert CachingScheme.run is original
    m = traced["metrics"]
    assert m["workload.generate_s"] > 0 and m["workload.trace_bytes"] > 0
    if name == "paper-long":
        assert m["shard.rounds"] >= 1 and m["shard.digest_bytes"] > 0
        assert m["protocol.exchanges"] == 0
    if name == "cluster-sweep":
        assert m["overlay.pastry.build_s"] > 0 and m["overlay.chord.build_s"] > 0
        assert m["shard.wall_s"] == 0
    if name == "faults-sized":
        assert m["protocol.exchanges"] > 0 and 0 < m["protocol.first_try_ratio"] < 1
        assert m["cache.hier-gd.ops"] > 0


def test_self_times_subtract_children():
    tracer = spans.Tracer()
    with tracer.span("core.point"):
        with tracer.span("overlay.pastry.build"):
            pass
        tracer.aggregate("protocol.attempt", 0.25)
    s = tracer.spans
    assert [x["name"] for x in s] == ["core.point", "overlay.pastry.build", "protocol.attempt"]
    times = tracer.self_times()
    point = s[0]["end"] - s[0]["start"]
    overlay = s[1]["end"] - s[1]["start"]
    assert times["protocol"] == 0.25
    assert times["core"] == pytest.approx(point - overlay - 0.25)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert not Path(tmp_path / ".perfbench").exists()

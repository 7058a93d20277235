"""Recording contract: transparent capture, bounded writer, stable keys.

The recording layer's one promise is that it changes *nothing*: a run
with a :class:`~repro.protocol.trace.RecordingTransport` in the stack
produces a byte-identical :class:`~repro.core.metrics.SchemeResult`, and
the trace it leaves behind round-trips through
:func:`~repro.protocol.replay.replay_trace` to the same bytes again.
"""

import dataclasses

import pytest

from repro.core.config import SimulationConfig
from repro.core.run import run_all_schemes, run_scheme
from repro.experiments.runner import cache_size_sweep, single_point
from repro.faults import FaultPlan
from repro.faults.run import run_scheme_with_faults
from repro.protocol import (
    TraceIncompleteError,
    recording_traces,
    replay_trace,
    trace_key,
)
from repro.protocol.trace import TraceWriter
from repro.workload import ProWGenConfig, generate_cluster_traces

TINY = ProWGenConfig(n_requests=3000, n_objects=300, n_clients=10)

PLAN = FaultPlan(
    p2p_loss=0.1,
    proxy_loss=0.1,
    push_loss=0.1,
    delay_rate=0.1,
    stale_rate=0.05,
    unresponsive_fraction=0.1,
    seed=7,
)


def cfg(**kw):
    kw.setdefault("n_proxies", 2)
    kw.setdefault("proxy_cache_fraction", 0.3)
    return SimulationConfig(workload=TINY, **kw)


class TestRecordingIsTransparent:
    def test_plain_reference_run_unperturbed_and_round_trips(self, tmp_path):
        # Reference engine: every exchange crosses the transport stack
        # even without a fault plan, so the trace is non-trivial.
        config = cfg(hot_path="reference")
        plain = run_scheme("hier-gd", config, seed=0)
        with recording_traces(tmp_path) as recorder:
            recorded = run_scheme("hier-gd", config, seed=0)
        assert dataclasses.asdict(recorded) == dataclasses.asdict(plain)

        assert len(recorder.written) == 1
        report = replay_trace(recorder.written[0])
        assert report.divergence is None
        assert report.identical
        assert report.events_replayed == report.n_events > 0

    @pytest.mark.parametrize("name", ["fc", "hier-gd"])
    def test_faulty_run_unperturbed_and_round_trips(self, name, tmp_path):
        config = cfg()
        bare = run_scheme_with_faults(name, config, plan=PLAN, seed=0)
        with recording_traces(tmp_path) as recorder:
            recorded = run_scheme_with_faults(name, config, plan=PLAN, seed=0)
        assert dataclasses.asdict(recorded) == dataclasses.asdict(bare)

        report = replay_trace(recorder.written[0])
        assert report.divergence is None
        assert report.identical
        assert report.result.total_latency == bare.total_latency

    def test_plain_fast_path_records_an_empty_but_replayable_trace(self, tmp_path):
        # Fast-path engines serve exchanges inline: zero transport calls
        # is a valid recording, and it must still round-trip.
        with recording_traces(tmp_path) as recorder:
            run_scheme("fc", cfg(), seed=0)
        report = replay_trace(recorder.written[0])
        assert report.n_events == 0
        assert report.divergence is None
        assert report.identical


class TestRecordedSeed:
    """Runs over pre-generated traces record the seed they came from."""

    def test_run_all_schemes_recording_replays(self, tmp_path):
        with recording_traces(tmp_path) as recorder:
            run_all_schemes(cfg(), schemes=["hier-gd"], seed=7)
        report = replay_trace(recorder.written[0])
        assert report.seed == 7
        assert report.divergence is None
        assert report.identical

    def test_single_point_recordings_replay(self, tmp_path):
        with recording_traces(tmp_path) as recorder:
            single_point(cfg(), "fc", seed=7)
        assert len(recorder.written) == 2  # the scheme and its NC baseline
        for path in recorder.written:
            report = replay_trace(path)
            assert report.seed == 7
            assert report.identical

    def test_sweep_over_supplied_traces_recordings_replay(self, tmp_path):
        traces = generate_cluster_traces(TINY, 2, seed=7)
        with recording_traces(tmp_path) as recorder:
            cache_size_sweep(cfg(), ("fc",), (0.3,), seed=7, traces=traces)
        assert len(recorder.written) == 2  # fc and its NC baseline
        for path in recorder.written:
            report = replay_trace(path)
            assert report.seed == 7
            assert report.identical


class TestBoundedWriter:
    def test_dropped_events_mark_the_trace_incomplete(self, tmp_path):
        with recording_traces(tmp_path, max_events=5) as recorder:
            run_scheme_with_faults("fc", cfg(), plan=PLAN, seed=0)
        trace_path = recorder.written[0]
        with pytest.raises(TraceIncompleteError):
            replay_trace(trace_path)

    def test_writer_counts_drops_past_the_bound(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.jsonl", {"kind": "x"}, max_events=2)
        for _ in range(5):
            writer.write_event(["x", 0, "push", "wan", True, [], {}])
        assert writer.events_written == 2
        assert writer.events_dropped == 3
        writer.close(None)


class TestTraceKey:
    def test_same_run_same_key_different_run_different_key(self):
        k1 = trace_key(cfg(), "fc", 0, PLAN)
        assert k1 == trace_key(cfg(), "fc", 0, PLAN)
        assert k1 != trace_key(cfg(), "fc-ec", 0, PLAN)
        assert k1 != trace_key(cfg(), "fc", 1, PLAN)
        assert k1 != trace_key(cfg(), "fc", 0, None)
        assert k1 != trace_key(cfg(proxy_cache_fraction=0.1), "fc", 0, PLAN)

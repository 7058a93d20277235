"""Presence-index invariants: unit behaviour and full-trace replay.

Hier-GD's fast-engine presence indexes are only correct if they mirror
the underlying cache state after *every* mutation.  The replay test
drives the scheme request by request (the simulator's round-robin order)
and, after each request, compares every index against a brute-force scan
of the actual caches — the strongest form of the equivalence argument in
:mod:`repro.core.presence`.
"""

import dataclasses

import pytest

from repro.core.hiergd import HierGdScheme
from repro.core.presence import PresenceIndex, probes_to
from repro.core.run import generate_workloads
from repro.experiments.runner import base_config


class TestPresenceIndex:
    def test_add_and_holders(self):
        idx = PresenceIndex()
        idx.add("x", 2)
        idx.add("x", 0)
        assert set(idx.holders("x")) == {0, 2}
        assert "x" in idx
        assert len(idx) == 1

    def test_discard_prunes_empty_sets(self):
        idx = PresenceIndex()
        idx.add("x", 1)
        idx.discard("x", 1)
        assert "x" not in idx
        assert len(idx) == 0
        idx.discard("x", 1)  # absent: no-op

    def test_first_holder_excludes_and_minimises(self):
        idx = PresenceIndex()
        for c in (3, 1, 2):
            idx.add("x", c)
        assert idx.first_holder("x", exclude=0) == 1
        assert idx.first_holder("x", exclude=1) == 2
        assert idx.first_holder("y", exclude=0) is None

    def test_as_dict_snapshot(self):
        idx = PresenceIndex()
        idx.add("x", 0)
        snap = idx.as_dict()
        idx.add("x", 1)
        assert snap == {"x": frozenset({0})}


class TestProbesTo:
    @pytest.mark.parametrize(
        "first,exclude,n,expected",
        [
            (None, 0, 4, 3),  # full scan misses everywhere
            (0, 1, 4, 1),  # hit at 0, requester is 1: one probe
            (2, 1, 4, 2),  # visits 0, 2
            (3, 1, 4, 3),  # visits 0, 2, 3
            (2, 0, 4, 2),  # visits 1, 2
        ],
    )
    def test_matches_ascending_scan(self, first, exclude, n, expected):
        assert probes_to(first, exclude, n) == expected

    def test_brute_force_agreement(self):
        # Compare against a literal simulation of the reference scan.
        n = 5
        for exclude in range(n):
            for first in [None, *range(n)]:
                if first == exclude:
                    continue
                probes = 0
                for other in range(n):
                    if other == exclude:
                        continue
                    probes += 1
                    if other == first:
                        break
                assert probes_to(first, exclude, n) == probes


def tiny_config(**overrides):
    cfg = base_config()
    wl = dataclasses.replace(
        cfg.workload, n_requests=1_200, n_objects=200, n_clients=12
    )
    return dataclasses.replace(
        cfg, workload=wl, n_proxies=2, hot_path="fast", **overrides
    )


def replay(scheme, traces, check):
    """Drive requests in the simulator's round-robin order, checking
    invariants after every request."""
    length = len(traces[0].object_ids)
    for i in range(length):
        for ci, trace in enumerate(traces):
            scheme.process(ci, int(trace.client_ids[i]), int(trace.object_ids[i]))
            check(scheme)


class TestHierGdReplayInvariant:
    def test_indexes_match_brute_force(self):
        cfg = tiny_config()
        traces = generate_workloads(cfg, seed=0)
        scheme = HierGdScheme(cfg, traces)

        def check(s):
            # Proxy presence mirrors the proxy caches.
            expected = {}
            for ci, state in enumerate(s.states):
                for obj in state.proxy.keys():
                    expected.setdefault(obj, set()).add(ci)
            assert s._proxy_presence.as_dict() == {
                obj: frozenset(cs) for obj, cs in expected.items()
            }
            for state in s.states:
                # Directory presence and p2p_present mirror the exact
                # directory's backing set.
                assert state.p2p_present == state.directory._entries
                # Directory-consistency: everything listed is reachable.
                for obj in state.p2p_present:
                    assert s._locate(state, obj) is not None
                # Free-client set: idx present iff the cache has room.
                assert state.free_clients == {
                    k
                    for k, c in enumerate(state.clients)
                    if c.capacity > 0 and c._used < c.capacity
                }
                # Membership dicts are the caches' own (identity intact).
                for k, cache in enumerate(state.clients):
                    assert set(state.member_maps[k]) == set(cache.keys())
            # Directory-tier index mirrors the per-cluster directories.
            dir_expected = {}
            for ci, state in enumerate(s.states):
                for obj in state.directory._entries:
                    dir_expected.setdefault(obj, set()).add(ci)
            assert s._dir_presence.as_dict() == {
                obj: frozenset(cs) for obj, cs in dir_expected.items()
            }

        replay(scheme, traces, check)

"""Incrementally-maintained cross-cluster presence indexes.

Hier-GD's reference engine answers "which cooperating cluster holds
object X?" with an O(n_proxies) scan per miss over the remote proxies
and directories.  Its fast engine inverts that: a :class:`PresenceIndex`
maps each object to the set of clusters currently holding it, updated
incrementally at insert/evict time, so a miss costs one dict probe.  The
sharded SC variant (:mod:`repro.shard.schemes`) keeps one too, because a
worker cannot scan caches living in other processes.  The single-process
SC and SC-EC schemes scan: at the proxy counts this repository runs, the
scan is faster than maintaining an index.

Equivalence with the scan is exact because the scan visits clusters in
ascending index order, skipping the requester: the scan finds
:meth:`PresenceIndex.first_holder` (the smallest holder index other than
the requester), and issues :func:`probes_to` probe messages on the way —
so tier counts *and* message accounting stay byte-identical.
"""

from __future__ import annotations

from typing import Hashable, Iterable

__all__ = ["PresenceIndex", "probes_to"]

_EMPTY: frozenset[int] = frozenset()


class PresenceIndex:
    """object → set of cluster indexes currently holding a copy."""

    __slots__ = ("_holders",)

    def __init__(self) -> None:
        self._holders: dict[Hashable, set[int]] = {}

    def add(self, obj: Hashable, cluster: int) -> None:
        s = self._holders.get(obj)
        if s is None:
            self._holders[obj] = {cluster}
        else:
            s.add(cluster)

    def discard(self, obj: Hashable, cluster: int) -> None:
        s = self._holders.get(obj)
        if s is not None:
            s.discard(cluster)
            if not s:
                del self._holders[obj]

    def holders(self, obj: Hashable) -> Iterable[int]:
        return self._holders.get(obj, _EMPTY)

    def first_holder(self, obj: Hashable, exclude: int) -> int | None:
        """Smallest holder index != ``exclude`` — what the ascending
        cluster scan would find first — or None."""
        s = self._holders.get(obj)
        if not s:
            return None
        best = None
        for c in s:
            if c != exclude and (best is None or c < best):
                best = c
        return best

    def __contains__(self, obj: Hashable) -> bool:
        return obj in self._holders

    def __len__(self) -> int:
        return len(self._holders)

    def as_dict(self) -> dict[Hashable, frozenset[int]]:
        """Snapshot for invariant tests (compare against brute force)."""
        return {obj: frozenset(s) for obj, s in self._holders.items()}


def probes_to(first: int | None, exclude: int, n: int) -> int:
    """Probe messages the ascending scan (skipping ``exclude``) issues.

    ``first`` is the scan's hit (from :meth:`PresenceIndex.first_holder`);
    None means the scan misses everywhere and probes all ``n - 1`` peers.
    The hit probe itself is counted, matching the reference loops.
    """
    if first is None:
        return n - 1
    return first if first > exclude else first + 1

"""Overlay membership and message routing for the simulated Pastry network.

:class:`Overlay` is the Pastry backend of the
:class:`~repro.overlay.contract.OverlayBackend` contract.  It owns the
set of live :class:`~repro.overlay.pastry.PastryNode` instances forming
one P2P client cache (one per client cluster in the paper) and moves
messages between them:

* :meth:`Overlay.join` implements the outcome of Pastry's join protocol —
  the new node initialises its routing table from the nodes on the route
  from its bootstrap to its id's current root, copies the root's leaf set,
  and announces itself so existing nodes fold it into their state.
* :meth:`Overlay.fail` / :meth:`Overlay.leave` remove a node and repair
  affected leaf sets / routing-table slots (the *result* of Pastry's repair
  protocol, not its message exchange — the paper's simulator does the
  same).
* :meth:`Overlay.route` performs hop-by-hop prefix routing and returns the
  delivery node with the hop count, feeding the paper's
  ``ceil(log_{2**b} N)`` hop-efficiency claim (§4.1).  The loop itself
  is the contract's shared driver; Pastry supplies the per-node
  decision and the stale-entry repair.

The overlay also maintains a globally sorted id list so tests can check
each delivery against the ground-truth *numerically closest* node, and so
the DHT layer can resolve keys in O(log N) on the simulation hot path.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .contract import OverlayBackend, RouteResult, RouteStats
from .coords import coords_for_name, torus_distance
from .id_space import IdSpace
from .pastry import DEFAULT_LEAF_SET_SIZE, PastryNode, RoutingTable

__all__ = ["RouteResult", "RouteStats", "Overlay"]


def _slot_interval(space: IdSpace, owner: int, row: int, col: int) -> tuple[int, int]:
    """Half-open id interval ``[lo, hi)`` of routing-table slot
    ``(row, col)`` at ``owner``: the ids sharing the owner's first
    ``row`` digits whose digit ``row`` is ``col``."""
    shift = space.bits - (row + 1) * space.b
    lo = (((owner >> (shift + space.b)) << space.b) | col) << shift
    return lo, lo + (1 << shift)


class Overlay(OverlayBackend):
    """A live Pastry overlay: membership, state maintenance, routing."""

    name = "pastry"

    def __init__(
        self,
        space: IdSpace | None = None,
        leaf_size: int = DEFAULT_LEAF_SET_SIZE,
        proximity: bool = False,
    ) -> None:
        """
        Parameters
        ----------
        proximity:
            Enable Pastry's locality heuristic: routing-table slots
            prefer the physically closest eligible node (coordinates on
            a unit torus derived from node names), reducing route
            stretch.  Leaf sets are id-space-defined and unaffected.
        """
        self.space = space or IdSpace()
        self.leaf_size = leaf_size
        self.proximity = proximity
        self.nodes: dict[int, PastryNode] = {}
        self.coords: dict[int, tuple[float, float]] = {}
        self._sorted_ids: list[int] = []
        self.stats = RouteStats()
        #: Bumped on every membership change; DHT caches key off this.
        self.epoch = 0
        #: Repair-event tallies (see :meth:`repair_counts`).
        self._leaf_repairs = 0
        self._slot_refills = 0

    def _prefer_for(self, owner_id: int):
        """Routing-table replacement heuristic for one node (or None)."""
        if not self.proximity:
            return None
        own = self.coords[owner_id]

        def closer(candidate: int, incumbent: int) -> bool:
            return torus_distance(self.coords[candidate], own) < torus_distance(
                self.coords[incumbent], own
            )

        return closer

    def _learn(self, node: PastryNode, other_id: int) -> None:
        node.learn(other_id, prefer=self._prefer_for(node.node_id))

    # -- membership -------------------------------------------------------

    def add_named(self, name: str) -> PastryNode:
        """Create and join a node whose id and coordinates derive from
        ``name``."""
        return self.join(self.space.node_id(name), coords=coords_for_name(name))

    def bulk_add_named(self, names: list[str]) -> list[PastryNode]:
        """Add many named nodes at once, materialising the converged state.

        Equivalent to sequential :meth:`add_named` calls for everything the
        simulation semantics depend on: membership, the sorted id list and
        every leaf set.  Incremental joins announce each newcomer to all
        live nodes, so each leaf set converges to the ``l/2`` ring-closest
        neighbours per side regardless of join order — exactly what this
        builds directly from the ring-adjacent ids (and LeafSet stores each
        side sorted by distance, so even the list layout matches).

        Routing tables converge to offering every live id to every node in
        ascending order, first offer winning: each empty slot ``(p, c)``
        takes the *smallest* live id in its slot interval (see
        :func:`_slot_interval`), and occupied slots keep their incumbent.
        That can resolve slot contention differently than join order, so
        only *sampled hop statistics* may differ — routing correctness and
        DHT ownership do not.  Each node bisects the sorted ids once per
        populated slot, stopping at the first row whose prefix interval
        holds only itself: O(N · rows · 2**b · log N) in total.  With the
        proximity heuristic every id is still offered to every node
        (O(N²)), so the physically closest eligible node wins each slot.

        Every name is validated before anything changes, so a rejected
        call leaves the overlay as it was.
        """
        new_ids = [self.space.node_id(name) for name in names]
        self._check_new_ids(new_ids, "overlay")
        created: list[PastryNode] = []
        for name, node_id in zip(names, new_ids):
            node = PastryNode(node_id, self.space, self.leaf_size)
            self.nodes[node_id] = node
            self.coords[node_id] = coords_for_name(name)
            created.append(node)
        self._sorted_ids = ids = sorted(self.nodes)
        self.epoch += len(created)
        n = len(ids)
        space = self.space
        size = space.size
        half_size = size >> 1
        half = self.leaf_size // 2
        # Leaf sets: each side holds the l/2 ring-closest ids on its side
        # of the ring, and ring order is distance order, so a side is a
        # prefix of the ring-adjacent run in that direction, cut where an
        # id is more than half the ring away (cw <= ccw goes clockwise);
        # the cut only bites on tiny or lopsided rings.
        k = min(half, n - 1)
        ring = ids[n - k :] + ids + ids[:k]
        for idx, me in enumerate(ids):
            node = self.nodes[me]
            larger = ring[idx + k + 1 : idx + 2 * k + 1]
            ldist = [(c - me) % size for c in larger]
            cut = bisect.bisect_right(ldist, half_size)
            smaller = ring[idx : idx + k][::-1]
            sdist = [(me - c) % size for c in smaller]
            scut = bisect.bisect_left(sdist, half_size)
            leaves = node.leaves
            leaves.larger, leaves._ldist = larger[:cut], ldist[:cut]
            leaves.smaller, leaves._sdist = smaller[:scut], sdist[:scut]
            prefer = self._prefer_for(me)
            if prefer is None:
                self._fill_table(node.table, ids)
            else:
                table = node.table
                for other in ids:
                    if other != me:
                        table.consider(other, prefer=prefer)
        return created

    def _fill_table(self, table: RoutingTable, ids: list[int]) -> None:
        """Fill each empty slot of ``table`` with the smallest live id in
        its slot interval — the first-offer-wins outcome of offering
        ``ids`` in ascending order.

        Row ``p`` draws from the ids sharing the owner's first ``p``
        digits, a contiguous run of ``ids``; the run is walked one column
        block at a time, and the owner's own block is row ``p + 1``'s
        run.  The walk stops at the first run holding only the owner.
        """
        me = table.owner
        rows = table.rows
        lo_i, hi_i = 0, len(ids)
        p = 0
        while hi_i - lo_i > 1:
            row = rows[p]
            # Column c's block is [base + c << shift, base + (c + 1) << shift).
            base, block_end = _slot_interval(self.space, me, p, 0)
            shift = (block_end - base).bit_length() - 1
            own = (me - base) >> shift
            i = lo_i
            while i < hi_i:
                other = ids[i]
                col = (other - base) >> shift
                end = bisect.bisect_left(ids, base + ((col + 1) << shift), i + 1, hi_i)
                if col == own:
                    next_lo, next_hi = i, end
                elif row[col] is None:
                    row[col] = other
                i = end
            lo_i, hi_i = next_lo, next_hi
            p += 1

    def join(
        self, node_id: int, coords: tuple[float, float] | None = None
    ) -> PastryNode:
        """Join a new node, initialising state per Pastry's join protocol.

        The new node X asks a bootstrap A to route a join message to X's
        id; X builds routing-table row ``i`` from the ``i``-th node on the
        path, takes its leaf set from the delivery node Z, then announces
        itself to every node it learned about (and, transitively, the
        announcement reaches all nodes whose state should include X —
        simulated here by offering X to all nodes whose leaf set or
        eligible routing slot it affects).
        """
        self._check_new_ids([node_id], "overlay")
        new = PastryNode(node_id, self.space, self.leaf_size)
        self.coords[node_id] = (
            coords if coords is not None else coords_for_name(self.space.format_id(node_id))
        )
        if self.nodes:
            bootstrap = self._sorted_ids[0]
            result = self._route_internal(node_id, start=bootstrap, record=False)
            # Row-by-row state transfer from the nodes along the join path.
            for hop_id in result.path:
                self._learn(new, hop_id)
                for known in self.nodes[hop_id].known_nodes():
                    self._learn(new, known)
            # Leaf set seeded from the root's leaf set.
            root = self.nodes[result.root]
            self._learn(new, result.root)
            for leaf in root.leaves.members():
                self._learn(new, leaf)
            # Announce: all live nodes fold the newcomer into their state.
            # (Pastry sends X's state to the nodes in X's tables; their
            # repair gossip reaches the rest. We apply the converged
            # outcome directly.)
            for other in self.nodes.values():
                self._learn(other, node_id)
        self.nodes[node_id] = new
        self._insert_sorted(node_id)
        self.epoch += 1
        return new

    def fail(self, node_id: int) -> None:
        """Remove a node and repair the survivors' state.

        Leaf-set repair contacts the live nodes adjacent on the ring;
        routing-table repair refills a vacated slot with a live eligible
        node (what Pastry's lazy repair converges to — §2.3 of the Pastry
        paper: ask a same-row peer for its entry).  Survivors that only
        learned the dead node via gossip (``_learn``) are covered too:
        ``forget`` purges it from both the routing table and the leaf
        set, and the vacated table slot is refilled when any eligible
        live node exists.
        """
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {self.space.format_id(node_id)}")
        del self.nodes[node_id]
        self.coords.pop(node_id, None)
        self._remove_sorted(node_id)
        self.epoch += 1
        for survivor in self.nodes.values():
            in_leaves = node_id in survivor.leaves
            vacated = survivor.table.remove(node_id)
            survivor.leaves.remove(node_id)
            if in_leaves:
                self._repair_leaves(survivor)
            if vacated:
                self._refill_slot(survivor, node_id)

    def _refill_slot(self, survivor: PastryNode, dead_id: int) -> None:
        """Refill the routing-table slot ``dead_id`` vacated at ``survivor``.

        The slot is row ``p`` = shared-prefix-length(survivor, dead) and
        column = the dead node's digit ``p``; every eligible replacement
        shares exactly that prefix-plus-digit, i.e. occupies one
        contiguous id interval, found by bisecting the sorted live ids.
        Without the proximity heuristic the first candidate fills the
        slot (deterministic); with it, every candidate is offered so the
        physically closest wins — the same rule joins use.
        """
        self._slot_refills += 1
        space = self.space
        p = space.prefix_len(survivor.node_id, dead_id)
        lo, hi = _slot_interval(space, survivor.node_id, p, space.digit(dead_id, p))
        ids = self._sorted_ids
        prefer = self._prefer_for(survivor.node_id)
        i = bisect.bisect_left(ids, lo)
        while i < len(ids) and ids[i] < hi:
            survivor.table.consider(ids[i], prefer=prefer)
            if prefer is None:
                break  # first eligible candidate keeps the slot
            i += 1

    def _repair_leaves(self, node: PastryNode) -> None:
        """Refill a node's leaf set from ring-adjacent live nodes."""
        self._leaf_repairs += 1
        n = len(self._sorted_ids)
        if n <= 1:
            return
        idx = bisect.bisect_left(self._sorted_ids, node.node_id)
        # Offer up to leaf_size neighbours on each side; LeafSet.add keeps
        # only the closest l/2 per side.
        for off in range(1, min(self.leaf_size + 1, n)):
            self._learn(node, self._sorted_ids[(idx + off) % n])
            self._learn(node, self._sorted_ids[(idx - off) % n])

    # -- placement --------------------------------------------------------

    def numerically_closest(self, key: int) -> int:
        """Ground-truth root for ``key``: live node minimising ring distance."""
        if not self._sorted_ids:
            raise RuntimeError("overlay is empty")
        ids = self._sorted_ids
        idx = bisect.bisect_left(ids, key)
        candidates = {ids[idx % len(ids)], ids[(idx - 1) % len(ids)]}
        return min(candidates, key=lambda n: (self.space.distance(n, key), n))

    def owner_of(self, key: int) -> int:
        """Pastry's placement rule: the numerically closest live node."""
        return self.numerically_closest(key)

    def bulk_owner_of(self, keys: np.ndarray) -> list[int]:
        """Vectorised :meth:`numerically_closest` for every key.

        The two ring candidates around each key's insertion point are
        compared by ``(ring_distance, nodeId)`` — the same tie-break the
        scalar ``min`` uses — over object-dtype arrays (ids exceed 64
        bits, so the modular arithmetic must stay exact).
        """
        ids = self.node_ids()
        if not ids:
            raise RuntimeError("overlay is empty")
        arr = np.empty(len(ids), dtype=object)
        arr[:] = ids
        keys = np.asarray(keys, dtype=object)
        n = len(ids)
        size = self.space.size
        pos = np.searchsorted(arr, keys)
        left = arr[(pos - 1) % n]
        right = arr[pos % n]
        dl = (left - keys) % size
        dl = np.minimum(dl, size - dl)
        dr = (right - keys) % size
        dr = np.minimum(dr, size - dr)
        pick_left = (dl < dr) | ((dl == dr) & (left < right))
        return np.where(pick_left, left, right).tolist()

    def neighbourhood(self, node_id: int) -> list[int]:
        """Pastry's repair/replica neighbourhood: the leaf set
        (``members()`` order — counter-clockwise side first, each side in
        ascending ring distance)."""
        return self.nodes[node_id].leaves.members()

    # -- routing ----------------------------------------------------------

    def expected_diameter(self) -> int:
        """Pastry resolves one base-``2**b`` digit per hop:
        ``ceil(log_{2**b} N)``."""
        n = len(self.nodes)
        if n <= 1:
            return 1
        return max(1, math.ceil(math.log(n, self.space.digit_base)))

    def _route_decision(self, current: int, key: int) -> tuple[str, int | None]:
        return self.nodes[current].route_decision(key)

    def _on_stale(self, current: int, stale_id: int) -> None:
        node = self.nodes[current]
        node.forget(stale_id)
        self._repair_leaves(node)

    def _record_route(self, result: RouteResult) -> None:
        pts = [self.coords[n] for n in result.path]
        travelled = sum(
            torus_distance(pts[i], pts[i + 1]) for i in range(len(pts) - 1)
        )
        direct = torus_distance(pts[0], pts[-1]) if len(pts) > 1 else 0.0
        self.stats.record(result.hops, path_distance=travelled, direct=direct)

    def repair_counts(self) -> dict[str, int]:
        return {
            "leaf_repairs": self._leaf_repairs,
            "slot_refills": self._slot_refills,
        }

    # -- convenience ------------------------------------------------------

    @classmethod
    def build(
        cls,
        names: list[str] | int,
        space: IdSpace | None = None,
        leaf_size: int = DEFAULT_LEAF_SET_SIZE,
        name_prefix: str = "cache",
        proximity: bool = False,
    ) -> "Overlay":
        """Construct an overlay by joining nodes one at a time.

        ``names`` may be an explicit list of node names or an int N, in
        which case nodes ``f"{name_prefix}-{i}"`` for i in 0..N-1 join.
        """
        overlay = cls(space=space, leaf_size=leaf_size, proximity=proximity)
        if isinstance(names, int):
            names = [f"{name_prefix}-{i}" for i in range(names)]
        for name in names:
            overlay.add_named(name)
        return overlay

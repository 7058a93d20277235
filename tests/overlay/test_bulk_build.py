"""Bulk overlay construction against the naive builds it replaces.

``Overlay.bulk_add_named`` fills each routing-table slot by bisecting its
id interval, and ``ChordOverlay._finger_state`` fills fingers by runs.
The reference oracles below are the straightforward versions: Pastry
offers every live id to every node in ascending order (first offer wins)
and builds leaf sets from an offer set; Chord bisects once per finger.
Node state must match them exactly, list layout included.
"""

import bisect

import pytest

from repro.overlay.chord import ChordNode, ChordOverlay
from repro.overlay.coords import coords_for_name
from repro.overlay.id_space import IdSpace
from repro.overlay.network import Overlay
from repro.overlay.pastry import PastryNode

LEAF_SIZE = 8
SIZES = [1, 2, 3, LEAF_SIZE, LEAF_SIZE + 1, 300, 2000]


def naive_pastry_bulk(ov: Overlay, names: list[str]) -> None:
    """Ascending-offer bulk build: O(N^2) routing-table offers."""
    for name in names:
        node_id = ov.space.node_id(name)
        ov.nodes[node_id] = PastryNode(node_id, ov.space, ov.leaf_size)
        ov.coords[node_id] = coords_for_name(name)
    ov._sorted_ids = ids = sorted(ov.nodes)
    ov.epoch += len(names)
    n = len(ids)
    space = ov.space
    bits, b = space.bits, space.b
    ndigits = bits // b
    mask = (1 << b) - 1
    offer_span = range(1, min(ov.leaf_size + 1, n))
    for node in ov.nodes.values():
        me = node.node_id
        idx = bisect.bisect_left(ids, me)
        offers = {ids[(idx + off) % n] for off in offer_span}
        offers.update(ids[(idx - off) % n] for off in offer_span)
        offers.discard(me)
        cw_side, ccw_side = [], []
        for cand in offers:
            cw = (cand - me) % space.size
            ccw = space.size - cw
            if cw <= ccw:
                cw_side.append((cw, cand))
            else:
                ccw_side.append((ccw, cand))
        cw_side.sort()
        ccw_side.sort()
        leaves = node.leaves
        half = leaves.half
        leaves.larger = [c for _, c in cw_side[:half]]
        leaves._ldist = [d for d, _ in cw_side[:half]]
        leaves.smaller = [c for _, c in ccw_side[:half]]
        leaves._sdist = [d for d, _ in ccw_side[:half]]
        rows = node.table.rows
        for other in ids:
            if other == me:
                continue
            p = (bits - (me ^ other).bit_length()) // b
            col = (other >> ((ndigits - 1 - p) * b)) & mask
            if rows[p][col] is None:
                rows[p][col] = other


def naive_fingers(ov: ChordOverlay, me: int) -> list[int | None]:
    """One bisect per finger: finger i = successor(me + 2**i)."""
    fingers = []
    for i in range(ov.space.bits):
        target = ov._successor_id((me + (1 << i)) % ov.space.size)
        fingers.append(target if target != me else None)
    return fingers


def names_for(n, tag="cache"):
    return [f"{tag}-{i}" for i in range(n)]


def assert_pastry_equal(got: Overlay, want: Overlay) -> None:
    assert got.node_ids() == want.node_ids()
    assert got.epoch == want.epoch
    assert got.coords == want.coords
    for nid, w in want.nodes.items():
        g = got.nodes[nid]
        assert g.table.rows == w.table.rows
        assert g.leaves.smaller == w.leaves.smaller
        assert g.leaves.larger == w.leaves.larger
        assert g.leaves._sdist == w.leaves._sdist
        assert g.leaves._ldist == w.leaves._ldist


class TestPastryBulkMatchesNaive:
    @pytest.mark.parametrize("b", [2, 4, 8])
    @pytest.mark.parametrize("n", SIZES)
    def test_fresh_build(self, n, b):
        space = IdSpace(b=b)
        got = Overlay(space=space, leaf_size=LEAF_SIZE)
        got.bulk_add_named(names_for(n))
        want = Overlay(space=space, leaf_size=LEAF_SIZE)
        naive_pastry_bulk(want, names_for(n))
        assert_pastry_equal(got, want)

    @pytest.mark.parametrize("b", [2, 4, 8])
    def test_bulk_onto_joined_nodes_keeps_incumbents(self, b):
        space = IdSpace(b=b)
        joined = names_for(30, tag="early")
        got = Overlay(space=space, leaf_size=LEAF_SIZE)
        want = Overlay(space=space, leaf_size=LEAF_SIZE)
        for ov in (got, want):
            for name in joined:
                ov.add_named(name)
        before = {nid: [list(r) for r in node.table.rows] for nid, node in got.nodes.items()}
        got.bulk_add_named(names_for(200))
        naive_pastry_bulk(want, names_for(200))
        assert_pastry_equal(got, want)
        # Join-filled slots survive the bulk add untouched.
        for nid, rows in before.items():
            for row, new_row in zip(rows, got.nodes[nid].table.rows):
                for old, new in zip(row, new_row):
                    assert old is None or old == new

    def test_small_ring_leaf_sides_follow_distance_rule(self):
        # Fewer nodes than a leaf set: both sides see the whole ring and
        # each id goes to the side it is closer on (ties clockwise).
        space = IdSpace(bits=8, b=4)
        got = Overlay(space=space, leaf_size=16)
        want = Overlay(space=space, leaf_size=16)
        got.bulk_add_named(names_for(5))
        naive_pastry_bulk(want, names_for(5))
        assert_pastry_equal(got, want)


class TestChordBulkMatchesNaive:
    @pytest.mark.parametrize("n", SIZES)
    def test_fresh_build(self, n):
        ov = ChordOverlay(successor_list_size=LEAF_SIZE)
        ov.bulk_add_named(names_for(n))
        ids = ov.node_ids()
        assert ids == sorted(ov.space.node_id(name) for name in names_for(n))
        assert ov.epoch == n
        for idx, nid in enumerate(ids):
            node = ov.node(nid)
            assert node.fingers == naive_fingers(ov, nid)
            assert node.successors == [
                ids[(idx + off) % n] for off in range(1, min(LEAF_SIZE, n - 1) + 1)
            ]
            assert node.predecessor == (ids[(idx - 1) % n] if n > 1 else None)

    def test_bulk_onto_joined_nodes(self):
        ov = ChordOverlay(successor_list_size=LEAF_SIZE)
        for name in names_for(20, tag="early"):
            ov.add_named(name)
        ov.bulk_add_named(names_for(100))
        for nid in ov.node_ids():
            assert ov.node(nid).fingers == naive_fingers(ov, nid)

    def test_fingers_on_tiny_id_space(self):
        # Dense rings exercise runs that end exactly at a power of two.
        ov = ChordOverlay(space=IdSpace(bits=8, b=4))
        for node_id in range(0, 256, 3):
            ov.nodes[node_id] = ChordNode(node_id, ov.space)
        ov._sorted_ids = sorted(ov.nodes)
        for nid in ov.node_ids():
            node = ov.node(nid)
            ov._finger_state(node)
            assert node.fingers == naive_fingers(ov, nid)


@pytest.mark.parametrize("backend", [Overlay, ChordOverlay])
class TestRejectedBulkAddChangesNothing:
    def snapshot(self, ov):
        return (
            dict(ov.nodes),
            list(ov._sorted_ids),
            dict(getattr(ov, "coords", {})),
            ov.epoch,
        )

    @pytest.mark.parametrize(
        "batch", [["b", "a"], ["b", "c", "b"]], ids=["live-dup", "batch-dup"]
    )
    def test_duplicate_rejected_without_phantom(self, backend, batch):
        ov = backend(space=IdSpace())
        ov.bulk_add_named(["a"])
        before = self.snapshot(ov)
        with pytest.raises(ValueError, match="already in"):
            ov.bulk_add_named(batch)
        assert self.snapshot(ov) == before
        (node,) = ov.bulk_add_named(["b"])
        assert ov.owner_of(node.node_id) == node.node_id
        assert ov.route(node.node_id, record=False).root == node.node_id

    def test_out_of_space_join_rejected_without_change(self, backend):
        ov = backend(space=IdSpace(bits=16, b=4))
        ov.bulk_add_named(["a"])
        before = self.snapshot(ov)
        with pytest.raises(ValueError, match="outside id space"):
            ov.join(1 << 16)
        assert self.snapshot(ov) == before

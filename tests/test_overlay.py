import math

import pytest

from distheap.overlay import (
    LEFT,
    MIDDLE,
    RIGHT,
    CycleTopology,
    VirtualId,
)


def succ(topo, vid):
    """The virtual node after ``vid`` on the label cycle."""
    return topo.order[(topo.order.index(vid) + 1) % len(topo.order)]


def two_node_topo():
    # middle labels 0.4 and 0.6 give the sorted cycle
    # 0.2 (l0), 0.3 (l1), 0.4 (m0), 0.6 (m1), 0.7 (r0), 0.8 (r1)
    return CycleTopology(2, 0, {0: 0.4, 1: 0.6})


def test_virtual_id_hashes_and_prints_as_before():
    # the hash decides dict and set order wherever vids are keys, and so
    # every run's trace; it is the one the earlier frozen dataclass had
    for owner in (0, 5, 2**40):
        for kind in (LEFT, MIDDLE, RIGHT):
            vid = VirtualId(owner, kind)
            assert hash(vid) == hash((owner, kind))
            assert repr(vid) == f"VirtualId(owner={owner}, kind={kind!r})"
            assert vid == VirtualId(owner, kind)
    assert VirtualId(5, LEFT) != VirtualId(5, MIDDLE) != VirtualId(5, RIGHT) != VirtualId(5, LEFT)
    assert VirtualId(5, MIDDLE) != VirtualId(6, MIDDLE)
    assert len({VirtualId(5, kind) for kind in (LEFT, MIDDLE, RIGHT)}) == 3


def test_hand_sorted_labels():
    topo = two_node_topo()
    labels = [topo.label(v) for v in topo.order]
    assert labels == [0.2, 0.3, 0.4, 0.6, 0.7, 0.8]


def test_three_virtual_nodes_per_real_node():
    for n in (2, 5, 17):
        topo = CycleTopology.build(n, seed=3)
        assert len(topo.order) == 3 * n
        for v in range(n):
            kinds = {vid.kind for vid in topo.order if vid.owner == v}
            assert kinds == {LEFT, MIDDLE, RIGHT}


def test_two_node_tree_shape():
    # the bold tree over six virtual nodes: root l(u), chain through l(v),
    # middles hang off lefts, rights off middles
    topo = two_node_topo()
    l0, l1 = VirtualId(0, LEFT), VirtualId(1, LEFT)
    m0, m1 = VirtualId(0, MIDDLE), VirtualId(1, MIDDLE)
    r0, r1 = VirtualId(0, RIGHT), VirtualId(1, RIGHT)
    assert topo.root == l0
    assert topo.parent[l0] is None
    assert topo.parent[l1] == l0
    assert topo.parent[m0] == l0
    assert topo.parent[m1] == l1
    assert topo.parent[r0] == m0
    assert topo.parent[r1] == m1
    assert set(topo.children[l0]) == {l1, m0}
    assert topo.children[l1] == [m1]
    assert topo.children[m0] == [r0]
    assert topo.children[m1] == [r1]


def test_cycle_consistency():
    topo = CycleTopology.build(9, seed=5)
    for vid in topo.order:
        assert succ(topo, topo.pred(vid)) == vid
        assert topo.pred(succ(topo, vid)) == vid


def test_parent_strictly_decreases_label():
    topo = CycleTopology.build(23, seed=8)
    for vid, parent in topo.parent.items():
        if parent is not None:
            assert topo.label(parent) < topo.label(vid)


def test_tree_mutual_consistency_and_child_bound():
    topo = CycleTopology.build(31, seed=2)
    for vid in topo.order:
        kids = topo.children[vid]
        assert len(kids) <= 2
        for child in kids:
            assert topo.parent[child] == vid
        if topo.parent[vid] is not None:
            assert vid in topo.children[topo.parent[vid]]
    roots = [v for v in topo.order if topo.parent[v] is None]
    assert roots == [topo.root]


def test_right_nodes_are_leaves():
    topo = CycleTopology.build(12, seed=4)
    for vid in topo.order:
        if vid.kind == RIGHT:
            assert topo.children[vid] == []


def test_responsibility_partition():
    topo = CycleTopology.build(7, seed=11)
    # keys on a fine grid map to exactly one virtual node, the predecessor
    for i in range(1000):
        key = i / 1000.0
        vid = topo.responsible(key)
        lab = topo.label(vid)
        nxt = succ(topo, vid)
        if lab <= topo.label(nxt):
            assert lab <= key < topo.label(nxt) or vid == topo.order[-1]
        else:  # wrap arc
            assert key >= lab or key < topo.label(nxt)


def test_key_at_own_label_is_length_zero_route():
    topo = CycleTopology.build(6, seed=13)
    vid = topo.order[3]
    path = topo.route(vid, topo.label(vid))
    assert path == [vid]


def test_route_terminates_at_predecessor():
    topo = CycleTopology(2, 0, {0: 0.5, 1: 0.2})
    # labels: 0.1, 0.25, 0.5, 0.6, 0.75, 0.85 -> key 0.3 belongs to label 0.25
    start = topo.order[-1]
    path = topo.route(start, 0.3)
    assert math.isclose(topo.label(path[-1]), 0.25)


def test_route_exhaustive_small():
    for n in (2, 4, 9):
        topo = CycleTopology.build(n, seed=21)
        keys = [i / 257.0 for i in range(257)] + [topo.label(v) for v in topo.order]
        for start in topo.order:
            for key in keys:
                path = topo.route(start, key)
                assert path[-1] == topo.responsible(key)


@pytest.mark.parametrize(
    "n,seed", [(n, s) for n in (16, 64, 256) for s in range(3)] + [(512, 1)]
)
def test_route_hops_logarithmic_across_the_wrap(n, seed):
    # (512, 1) is the benchmark's Skeap overlay.  Keys below the smallest
    # label belong to the largest-label node, so a route that ends near the
    # wrap must cross it rather than walk back round the ring.
    topo = CycleTopology.build(n, seed)
    labels = sorted(topo.labels.values())
    keys = [labels[0] / 2, (labels[-1] + 1) / 2]
    for lo, hi in zip(labels[:4], labels[1:5]):
        keys += [lo, (lo + hi) / 2, math.nextafter(hi, 0.0)]
    bound = 2 * topo.debruijn_hops()
    for start in topo.order:
        start_label = topo.label(start)
        for key in keys:
            current, hop = start, 0
            while (nxt := topo.route_step(current, key, start_label, hop)) is not None:
                current, hop = nxt, hop + 1
                assert hop <= bound, (start, key)
            assert current == topo.responsible(key)


@pytest.mark.parametrize("n", [2, 3, 16])
def test_route_step_stops_exactly_at_the_owner(n):
    # route_step decides arrival from the current node's own arc; keys
    # below the smallest label belong to the last index (the wrap arc).
    topo = CycleTopology.build(n, seed=3)
    labels = [topo.label(v) for v in topo.order]
    keys = labels + [math.nextafter(x, 0.0) for x in labels]
    keys += [0.0, math.nextafter(1.0, 0.0)]
    hops = (0, topo.debruijn_hops())  # a waypoint hop and a walk hop
    for vid in topo.order:
        start_label = topo.label(vid)
        for key in keys:
            owns = topo.responsible(key) == vid
            for hop in hops:
                assert (topo.route_step(vid, key, start_label, hop) is None) == owns
        for key in (-0.1, 1.0, 1.5):
            for hop in hops:
                with pytest.raises(ValueError):
                    topo.route_step(vid, key, start_label, hop)


def test_route_length_grows_affinely_in_log_n():
    import random

    means = {}
    for n in (16, 32, 64, 128, 256):
        topo = CycleTopology.build(n, seed=31)
        rng = random.Random(7)
        lengths = []
        for _ in range(200):
            start = topo.order[rng.randrange(len(topo.order))]
            key = rng.random()
            lengths.append(len(topo.route(start, key)) - 1)
        means[n] = sum(lengths) / len(lengths)
    # monotone-ish growth, and bounded by a small multiple of log2 n
    assert means[256] > means[16]
    for n, mean in means.items():
        assert mean <= 4 * math.log2(n) + 8


def test_tree_height_logarithmic():
    # measured envelope: max height stays within 8*log2(n) across seeds and
    # scales (the mean sits near 5.6*log2(n) at n=4096 and the growth per
    # doubling is flat, i.e. height is logarithmic)
    maxima = {}
    for n in (16, 64, 256):
        heights = []
        for seed in range(30):
            topo = CycleTopology.build(n, seed)
            heights.append(topo.height())
        maxima[n] = max(heights)
        assert maxima[n] <= 8 * math.log2(n)
    per_doubling = (maxima[256] - maxima[16]) / 4
    assert per_doubling <= 10


def test_collision_redraw(monkeypatch):
    import distheap.overlay as ov

    calls = []
    real = ov.hash_unit

    def forced(tag, inputs, seed):
        calls.append(inputs)
        node, attempt = inputs
        if node == 1 and attempt == 0:
            return real(tag, (0, 0), seed)  # force a collision with node 0's label
        return real(tag, inputs, seed)

    monkeypatch.setattr(ov, "hash_unit", forced)
    topo = ov.CycleTopology.build(3, seed=77)
    assert len({topo.label(v) for v in topo.order}) == 9
    assert (1, 1) in calls  # node 1 re-drew


def test_dump_schema():
    topo = CycleTopology.build(3, seed=1)
    assert topo.n == 3
    assert len(topo.order) == 9
    assert sum(len(topo.children[p]) for p in topo.order) == 8  # spanning tree over 9 nodes

import pytest

from distheap.node import OverlayNode, WaveUpMsg, split_interval
from distheap.overlay import LEFT, MIDDLE, RIGHT, CycleTopology, VirtualId
from distheap.sim import SimConfig, SimulationFault, Simulator


def test_split_interval_own_piece_first_then_children_in_order():
    assert split_interval((1, 6), [2, 3, 1]) == [(1, 2), (3, 5), (6, 6)]


def test_split_interval_zero_count_gets_an_empty_interval():
    assert split_interval((4, 5), [0, 2, 0]) == [(4, 3), (4, 5), (6, 5)]
    assert split_interval((1, 0), [0]) == [(1, 0)]


def test_split_interval_carries_rest_along():
    assert split_interval((1, 3, 9, "x"), [1, 2]) == [(1, 1, 9, "x"), (2, 3, 9, "x")]


@pytest.mark.parametrize("counts", [[1, 1], [2, 2], []])
def test_split_interval_count_mismatch_is_a_fault(counts):
    with pytest.raises(SimulationFault, match="does not match counts"):
        split_interval((1, 3), counts)


class Counter(OverlayNode):
    """Sums counts up the tree; the anchor's program hands the interval
    [1, total] down."""

    def __init__(self, sim, node_id, topo):
        super().__init__(sim, node_id, topo)
        self.shares = []
        if self.is_anchor:
            self.run_program(self.count())

    def count(self):
        combined = yield "c", (0,)
        self.wave_down("c", (0,), self.topo.root, (1, combined, "tag"))

    def wave_combine(self, kind, parts):
        return sum(parts)

    def wave_deliver(self, kind, key, share):
        self.shares.append(share)


def _system(n, cls=Counter, seed=3):
    sim = Simulator(SimConfig(n=n, seed=seed))
    topo = CycleTopology.build(n, seed)
    nodes = [cls(sim, v, topo) for v in range(n)]
    for node in nodes:
        sim.add_node(node)
    return sim, topo, nodes


def test_default_wave_split_is_by_counts():
    n = 8
    sim, _, nodes = _system(n)
    for node in nodes:
        node.contribute_all("c", (0,), node.id % 3)
    sim.run_sync()
    total = sum(v % 3 for v in range(n))
    covered = []
    for node in nodes:
        [(lo, hi, tag)] = node.shares  # one share per node, at its middle vnode
        assert tag == "tag"
        assert hi - lo + 1 == node.id % 3
        covered.extend(range(lo, hi + 1))
    assert sorted(covered) == list(range(1, total + 1))


def test_wave_down_ends_its_session():
    n = 4
    sim, topo, nodes = _system(n)
    for node in nodes:
        node.contribute_all("c", (0,), 1)
    sim.run_sync()
    assert all(not node._waves for node in nodes)
    anchor = nodes[topo.root.owner]
    with pytest.raises(SimulationFault, match="before the wave combined"):
        anchor.wave_down("c", (0,), topo.root, (1, n, "tag"))


def test_wave_value_from_a_stray_child_is_a_fault():
    # stored, a stray value would be left out of the combine without a trace
    _, topo, nodes = _system(8)
    parent = next(v for v in topo.order if topo.children[v])
    stray = next(v for v in topo.order if v != parent and v not in topo.children[parent])
    with pytest.raises(SimulationFault, match="no child"):
        nodes[parent.owner].on_message(stray.owner, WaveUpMsg("c", (0,), parent, stray, 1))


class OneWayCounter(Counter):
    """Sums counts up the tree; the anchor's program keeps the total and
    sends nothing down."""

    one_way_waves = frozenset({"c"})

    def count(self):
        self.total = yield "c", (0,)


def test_one_way_wave_sessions_end_with_their_combine():
    n = 8
    sim, topo, nodes = _system(n, OneWayCounter)
    for node in nodes:
        node.contribute_all("c", (0,), 1)
    sim.run_sync()
    anchor = nodes[topo.root.owner]
    assert anchor.total == n
    assert all(not node._waves for node in nodes)
    with pytest.raises(SimulationFault, match="before the wave combined"):
        anchor.wave_down("c", (0,), topo.root, (1, n, "tag"))


class Announced(Counter):
    """Answers the anchor's flood ``a`` with a count of one on the two-way
    wave ``c``, and records each flood and share it is handed."""

    def __init__(self, sim, node_id, topo):
        self.hooks = []
        super().__init__(sim, node_id, topo)

    def on_flood(self, kind, key, payload):
        self.hooks.append(("flood", kind, payload))
        self.contribute_all("c", key, 1)

    def wave_deliver(self, kind, key, share):
        self.hooks.append(("share", kind, share))


class _OpenedSessions(dict):
    """A node's session table that records every key ever opened in it."""

    def __init__(self):
        super().__init__()
        self.opened = []

    def __setitem__(self, key, value):
        self.opened.append(key)
        super().__setitem__(key, value)


def _announce(n):
    """One flood and the two-way wave that answers it; returns the nodes."""
    sim, topo, nodes = _system(n, Announced)
    for node in nodes:
        node._waves = _OpenedSessions()
    nodes[topo.root.owner].flood("a", (0,), "x")
    sim.run_sync()
    return nodes


def test_flood_and_share_hooks_run_once_per_real_node():
    n = 8
    nodes = _announce(n)
    positions = []
    for node in nodes:
        flooded, (hook, kind, (lo, hi, tag)) = node.hooks  # one of each, at M
        assert flooded == ("flood", "a", "x")
        assert (hook, kind, hi, tag) == ("share", "c", lo, "tag")
        positions.append(lo)
    assert sorted(positions) == list(range(1, n + 1))


def test_no_wave_session_opens_at_a_right_vnode():
    nodes = _announce(8)
    for node in nodes:
        kinds = [vid.kind for _, _, vid in node._waves.opened]
        assert sorted(kinds) == [LEFT, MIDDLE]  # L relays, M holds the part, R takes none
        assert not node._waves


@pytest.mark.parametrize("kind", [LEFT, RIGHT])
def test_a_contribution_at_a_left_or_right_vnode_is_a_fault(kind):
    _, _, nodes = _system(4)
    node = nodes[1]
    with pytest.raises(SimulationFault, match="holds no part"):
        node.wave_contribute("c", (0,), VirtualId(node.id, kind), 1)
    assert not node._waves

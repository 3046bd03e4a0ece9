from collections import Counter as Tally

import pytest

from distheap import run_skeap, run_skeap_plus
from distheap.node import (
    GetOp,
    OverlayNode,
    PutAckMsg,
    PutOp,
    RouteMsg,
    WaveUpMsg,
    split_interval,
)
from distheap.overlay import LEFT, MIDDLE, RIGHT, CycleTopology, VirtualId
from distheap.sim import (
    ASYNC,
    SYNC,
    TAG_BITS,
    Element,
    SimConfig,
    SimulationFault,
    Simulator,
)
from distheap.skeap_plus import SkeapPlusNode


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


class OneWayCounter(OverlayNode):
    """Sums counts up the tree; the anchor's program keeps the total and
    sends nothing down.  With no ``deliver_c``, ``c`` has no down half."""

    def __init__(self, sim, node_id, topo):
        super().__init__(sim, node_id, topo)
        if self.is_anchor:
            self.run_program(self.count())

    def count(self):
        self.total = yield "c", (0,)

    def combine_c(self, parts):
        return sum(parts)


class Counter(OneWayCounter):
    """Sums counts up the tree; the anchor's program hands the interval
    [1, total] down, split by counts, and each node keeps its share."""

    def __init__(self, sim, node_id, topo):
        self.shares = []
        super().__init__(sim, node_id, topo)

    def count(self):
        combined = yield "c", (0,)
        self.wave_down("c", (0,), self.topo.root, (1, combined, "tag"))

    def deliver_c(self, key, share):
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


def test_one_way_wave_sessions_end_with_their_combine():
    # no deliver_c: every session drops at its combine, and a share sent
    # down after it finds none
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


class Held(Counter):
    """A two-way count wave whose share the anchor's program does not send."""

    def count(self):
        self.total = yield "c", (0,)


def test_a_two_way_wave_keeps_its_sessions_until_its_share_comes_down():
    n = 8
    sim, topo, nodes = _system(n, Held)
    for node in nodes:
        node.contribute_all("c", (0,), 1)
    sim.run_sync()
    anchor = nodes[topo.root.owner]
    assert anchor.total == n
    for node in nodes:  # combined, and still open at M and at L
        assert {(kind, key, vid.kind) for kind, key, vid in node._waves} == {
            ("c", (0,), LEFT), ("c", (0,), MIDDLE)
        }
        assert not any(sess.missing for sess in node._waves.values())
    anchor.wave_down("c", (0,), topo.root, (1, n, "tag"))
    sim.run_sync()
    assert all(not node._waves for node in nodes)
    assert sorted(lo for node in nodes for lo, _, _ in node.shares) == list(range(1, n + 1))


def test_a_wave_that_no_node_combines_is_a_fault():
    sim, _, nodes = _system(4)
    with pytest.raises(SimulationFault, match="unhandled combine 'z'"):
        for node in nodes:
            node.contribute_all("z", (0,), 1)
        sim.run_sync()


def test_a_flood_that_no_node_handles_is_a_fault_where_it_arrives():
    sim, topo, nodes = _system(8)
    with pytest.raises(SimulationFault, match="unhandled flood 'z'") as fault:
        nodes[topo.root.owner].flood("z", (0,), None)
        sim.run_sync()
    at = fault.traceback[-2].locals  # on_FloodMsg, which looked the handler up
    assert at["msg"].kind == "z"
    assert at["msg"].vid == at["self"].middle  # L only relays


class Announced(Counter):
    """Answers the anchor's flood ``a`` with a count of one on the two-way
    wave ``c``, and records each flood and share it is handed."""

    def __init__(self, sim, node_id, topo):
        self.hooks = []
        super().__init__(sim, node_id, topo)

    def flood_a(self, key, payload):
        self.hooks.append(("flood", "a", payload))
        self.contribute_all("c", key, 1)

    def deliver_c(self, key, share):
        self.hooks.append(("share", "c", share))


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


# -- DHT puts: acknowledged only when they carry a token -------------------------------
def _acks_sent(monkeypatch):
    """Record every ``PutAckMsg`` sent as (src, dst, ns, token)."""
    acks = []
    send = Simulator.send

    def recording_send(self, src, dst, payload):
        if type(payload) is PutAckMsg:
            acks.append((src, dst, payload.ns, payload.token))
        send(self, src, dst, payload)

    monkeypatch.setattr(Simulator, "send", recording_send)
    return acks


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_skeap_sends_no_put_ack(mode, monkeypatch):
    # Skeap's puts carry no token: the get that meets a put completes both
    acks = _acks_sent(monkeypatch)
    res = run_skeap(16, seed=1, lam=2, mode=mode)
    assert res.ok
    assert res.metrics["messages_sent"] > 0
    assert acks == []


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_seap_acknowledges_exactly_its_remote_element_puts(mode, monkeypatch):
    acks = _acks_sent(monkeypatch)
    # every put that arrives at a node other than its issuer, as the ack
    # that node would send: (src, dst, ns, token)
    remote_puts = []
    arrived = OverlayNode.on_PutOp

    def recording_arrived(self, op, vid):
        if op.reply_to != self.id:
            remote_puts.append((self.id, op.reply_to, op.ns, op.token))
        arrived(self, op, vid)

    monkeypatch.setattr(OverlayNode, "on_PutOp", recording_arrived)
    res = run_skeap_plus(16, seed=1, lam=2, mode=mode)
    assert res.ok
    by_ns = Tally(ns for _, _, ns, _ in remote_puts)
    assert by_ns["elem"] > 0 and by_ns["pos"] > 0  # both kinds of put were remote
    assert {ns for _, _, ns, _ in acks} == {"elem"}
    assert Tally(acks) == Tally(put for put in remote_puts if put[2] == "elem")


def _key_owned_by_another_node(topo, issuer):
    return next(topo.label(v) for v in topo.order if v.owner != issuer)


def test_a_put_without_a_token_is_stored_and_not_acknowledged(monkeypatch):
    acks = _acks_sent(monkeypatch)
    sim, topo, nodes = _system(4, OverlayNode)
    key = _key_owned_by_another_node(topo, 0)
    element = Element(5, 0, 0)
    nodes[0].dht_put("ns", (0,), key, element, None)
    sim.run_sync()
    owner = topo.responsible(key).owner
    assert nodes[owner].storage == {("ns", (0,)): element}
    assert acks == []


def test_a_put_ack_to_a_node_that_reads_none_is_a_fault():
    sim, topo, nodes = _system(4, OverlayNode)
    key = _key_owned_by_another_node(topo, 0)
    nodes[0].dht_put("ns", (0,), key, Element(5, 0, 0), ("token",))
    with pytest.raises(SimulationFault, match="unhandled message PutAckMsg"):
        sim.run_sync()


# -- routes --------------------------------------------------------------------------------
def test_a_route_that_never_arrives_is_a_fault(monkeypatch):
    # a route_step that bounces between the first two virtual nodes of the
    # cycle: the route fails after max_route_hops hops instead of running on
    sim, topo, nodes = _system(4, OverlayNode)
    first, second = topo.order[:2]
    hops = []

    def bouncing(self, current, key, start_label, hop):
        hops.append(hop)
        return second if current == first else first

    monkeypatch.setattr(CycleTopology, "route_step", bouncing)
    nodes[first.owner].route_send(0.5, PutOp("ns", (0,), Element(5, 0, 0), first.owner, None))
    with pytest.raises(SimulationFault, match="failed to arrive"):
        sim.run_sync()
    assert hops == list(range(topo.max_route_hops + 1))
    assert sim.time <= topo.max_route_hops
    with pytest.raises(RuntimeError, match="failed to terminate"):
        topo.route(first, 0.5)


class _Fetcher(OverlayNode):
    """Keeps what its DHT gets bring back, by token."""

    def __init__(self, sim, node_id, topo):
        super().__init__(sim, node_id, topo)
        self.fetched = {}

    def on_GetReplyMsg(self, msg):
        self.fetched[msg.token] = msg.element


def test_each_route_hop_goes_along_the_oracle_path_and_is_sized_from_its_fields(monkeypatch):
    # several puts and gets in flight at once, half of the gets issued before
    # their puts; every RouteMsg send is recorded as it is sent
    n = 32
    events = []
    sim = Simulator(SimConfig(n=n, seed=3), trace=events.append)
    topo = CycleTopology.build(n, 3)
    nodes = [_Fetcher(sim, v, topo) for v in range(n)]
    for node in nodes:
        sim.add_node(node)
    sends = {}  # id of the routed operation -> [(key, start_label, hop, vid, traced bits)]
    send = Simulator.send

    def recording_send(self, src, dst, payload):
        send(self, src, dst, payload)
        if type(payload) is RouteMsg:
            p = payload
            row = (p.key, p.start_label, p.hop, p.vid, events[-1]["bits"])
            sends.setdefault(id(p.inner), []).append(row)

    monkeypatch.setattr(Simulator, "send", recording_send)
    routes = {}  # id of the routed operation -> (operation, start vid, key)
    for i in range(8):
        key = (0.1 + 0.618034 * i) % 1.0
        putter, getter = nodes[(7 * i) % n], nodes[(7 * i + 12) % n]
        put = PutOp("ns", (i,), Element(i, putter.id, 0), putter.id, None)
        get = GetOp("ns", (i,), getter.id, i)
        for node, op in ((getter, get), (putter, put)) if i % 2 else ((putter, put), (getter, get)):
            routes[id(op)] = (op, node.middle, key)
            node.route_send(key, op)
    sim.run_sync()
    assert {i: nodes[(7 * i + 12) % n].fetched[i].priority for i in range(8)} == {
        i: i for i in range(8)
    }
    assert len(sends) >= 12  # most routes leave their issuer
    for op_id, rows in sends.items():
        op, start, key = routes[op_id]
        path = topo.route(start, key)
        assert [vid for *_, vid, _ in rows] == [
            v for u, v in zip(path, path[1:]) if v.owner != u.owner
        ]
        hops = [hop for _, _, hop, _, _ in rows]
        assert hops == sorted(set(hops)) and hops[0] >= 1
        for row_key, start_label, hop, vid, bits in rows:
            assert (row_key, start_label) == (key, topo.label(start))
            fresh = RouteMsg(key, start_label, hop, vid, op, op.size_bits(sim))
            assert bits == TAG_BITS + fresh.size_bits(sim)


# -- what a protocol does not handle is a fault ----------------------------------------
class Stray:
    """A message type that no node handles: no node has ``on_Stray``.  Not a
    ``Message``, whose subclasses the size tests enumerate."""

    def size_bits(self, sim):
        return 1


def test_a_message_that_no_node_handles_is_a_fault_where_it_arrives():
    sim, _, nodes = _system(4, OverlayNode)
    nodes[0].post(1, Stray())  # sent and sized: the fault is the arrival's
    with pytest.raises(SimulationFault, match="unhandled message Stray") as fault:
        sim.run_sync()
    assert sim.time == 1
    assert fault.traceback[-1].locals["self"] is nodes[1]


def test_a_routed_operation_that_no_node_handles_is_a_fault_where_it_arrives():
    sim, topo, nodes = _system(4, OverlayNode)
    key = _key_owned_by_another_node(topo, 0)
    nodes[0].route_send(key, Stray())  # hops on: the fault is the arrival's
    with pytest.raises(SimulationFault, match="unhandled message Stray") as fault:
        sim.run_sync()
    at = fault.traceback[-1].locals
    assert at["self"] is nodes[topo.responsible(key).owner]
    assert at["vid"] == topo.responsible(key)


def test_a_flood_that_no_protocol_handles_is_a_fault(monkeypatch):
    # Seap floods "fq " for "fq": the run fails where the flood arrives,
    # not later in a stall at quiescence
    flood = SkeapPlusNode.flood

    def misspelt(self, kind, key, payload):
        flood(self, "fq " if kind == "fq" else kind, key, payload)

    monkeypatch.setattr(SkeapPlusNode, "flood", misspelt)
    with pytest.raises(SimulationFault, match="unhandled flood 'fq '"):
        run_skeap_plus(8, seed=1)


class Undelivered(OneWayCounter):
    """Combines the count wave and sends its share down, but takes no share:
    with no ``deliver_c`` the wave is one-way, so its sessions are gone."""

    count = Counter.count


def test_a_wave_share_that_no_protocol_takes_is_a_fault():
    sim, _, nodes = _system(4, Undelivered)
    for node in nodes:
        node.contribute_all("c", (0,), 1)
    with pytest.raises(SimulationFault, match="ended before the wave combined"):
        sim.run_sync()


def test_a_get_reply_that_no_protocol_reads_is_a_fault():
    sim, topo, nodes = _system(4, OverlayNode)
    key = _key_owned_by_another_node(topo, 0)
    nodes[0].dht_put("ns", (0,), key, Element(5, 0, 0), None)
    nodes[0].dht_get("ns", (0,), key, ("token",))
    with pytest.raises(SimulationFault, match="unhandled message GetReplyMsg"):
        sim.run_sync()

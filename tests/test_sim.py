import math
from collections import namedtuple
from dataclasses import dataclass

import pytest

from distheap.batches import Batch, EntryShare
from distheap.kselect import CandOp, CompareOp, CopyAggMsg, CopySplit, ProbeReport, VoteMsg
from distheap.node import (
    FloodMsg,
    GetOp,
    GetReplyMsg,
    Message,
    PutAckMsg,
    PutOp,
    RouteMsg,
    WaveDownMsg,
    WaveUpMsg,
    value_bits,
)
from distheap.overlay import VirtualId
from distheap.sim import (
    ASYNC,
    SYNC,
    Element,
    ProtocolNode,
    SimConfig,
    SimulationFault,
    Simulator,
    nat_bits,
)


@dataclass
class Ping:
    note: str = "ping"

    def size_bits(self, sim):
        return 8


class Recorder(ProtocolNode):
    """Collects everything it receives; optionally replies."""

    def __init__(self, sim, node_id):
        super().__init__(sim, node_id)
        self.got = []
        self.activations = 0

    def on_message(self, src, payload):
        self.got.append((src, payload))

    def on_activate(self):
        self.activations += 1


def make_sim(n=4, mode=SYNC, **kw):
    cfg = SimConfig(n=n, seed=1, mode=mode, **kw)
    sim = Simulator(cfg)
    nodes = [Recorder(sim, i) for i in range(n)]
    for node in nodes:
        sim.add_node(node)
    return sim, nodes


def test_nat_bits_rule():
    assert nat_bits(0) == 2
    assert nat_bits(1) == 2
    assert nat_bits(2) == 2
    assert nat_bits(3) == 2
    assert nat_bits(4) == 3
    assert nat_bits(7) == 3
    assert nat_bits(8) == 4
    assert nat_bits(2**49 - 1) == 49
    assert nat_bits(2**49) == 50
    assert nat_bits(2**53) == 54
    assert nat_bits(2**64) == 65
    with pytest.raises(SimulationFault):
        nat_bits(-1)


def _float_nat_bits(value: int) -> int:
    """The earlier float formula; exact only while log2 is (below 2**49)."""
    return math.ceil(math.log2(max(value, 2) + 1))


def test_nat_bits_matches_float_formula_below_2_20():
    assert all(nat_bits(v) == _float_nat_bits(v) for v in range(2**20))


def _chained_value_bits(sim, obj):
    """The earlier isinstance chain that value_bits' type table replaced."""
    if obj is None or isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return nat_bits(abs(obj)) + 1
    if isinstance(obj, float):
        return sim.label_bits
    if isinstance(obj, str):
        return 8
    if isinstance(obj, (Element, Batch, EntryShare)):
        return obj.bits()
    if isinstance(obj, VirtualId):
        return nat_bits(obj.owner) + 2
    if isinstance(obj, (tuple, list)):
        return nat_bits(len(obj)) + sum(_chained_value_bits(sim, x) for x in obj)
    raise SimulationFault(f"no bit accounting for {type(obj).__name__}")


def test_value_bits_matches_isinstance_chain():
    sim, _ = make_sim(n=8)
    pair = namedtuple("pair", "a b")
    fields = [
        None, True, False, 0, 1, -5, 2**60, 0.25, "k2n",
        Element(3, 1, 7), Element(2**40, 5, 1, b"xy"),
        Batch(2, (((1, 0), 2), ((0, 3), 0))),
        EntryShare(((1, 4), None), ((2, 1, 3),), 1, 5, 6, 0, 2),
        VirtualId(6, "M"), (), (1, "a", (None, 2.5)), [VirtualId(0, "L"), 9],
        pair(4, (1, 2)),
    ]
    for obj in fields:
        assert value_bits(sim, obj) == _chained_value_bits(sim, obj), obj


def test_value_bits_unknown_type_is_fault():
    sim, _ = make_sim()
    with pytest.raises(SimulationFault):
        value_bits(sim, {"no": "dicts"})
    with pytest.raises(SimulationFault):
        value_bits(sim, (1, b"bytes"))


def _vb(sim, *fields):
    return sum(value_bits(sim, x) for x in fields)


def _key(v):
    return (v, v + 1, 0)


def _elem(v):
    return Element(v, v, v)


def _vid(v):
    return VirtualId(v, "M")


# class -> (an instance whose ints are all ``v``, the hand-written size_bits
# the class had before ``Message`` derived it from the fields)
_MESSAGE_CASES = {
    FloodMsg: (
        lambda v: FloodMsg("k2", _key(v), _vid(v), (0.5, "all")),
        lambda sim, m: _vb(sim, m.kind, m.key, m.vid, m.payload),
    ),
    WaveUpMsg: (
        lambda v: WaveUpMsg("sb", _key(v), _vid(v), _vid(v + 1), (v, v)),
        lambda sim, m: _vb(sim, m.kind, m.key, m.parent, m.child, m.value),
    ),
    WaveDownMsg: (
        lambda v: WaveDownMsg("k2n", _key(v), _vid(v), (v, v, v, 0, 1, 0)),
        lambda sim, m: _vb(sim, m.kind, m.key, m.vid, m.share),
    ),
    RouteMsg: (
        lambda v: RouteMsg(0.25, 0.5, v, _vid(v), GetOp("pos", _key(v), v, None), 40 + v),
        lambda sim, m: 2 * sim.label_bits + nat_bits(m.hop) + value_bits(sim, m.vid)
        + m.inner_bits,
    ),
    PutOp: (
        lambda v: PutOp("elem", _key(v), _elem(v), v, (v,)),
        lambda sim, m: _vb(sim, m.ns, m.key_id, m.element, m.reply_to, m.token),
    ),
    GetOp: (
        lambda v: GetOp("pos", _key(v), v, (v, v)),
        lambda sim, m: _vb(sim, m.ns, m.key_id, m.requester, m.token),
    ),
    PutAckMsg: (
        lambda v: PutAckMsg("elem", (v,)),
        lambda sim, m: _vb(sim, m.ns) + _vb(sim, m.token),
    ),
    GetReplyMsg: (
        lambda v: GetReplyMsg("skeap", (v,), _elem(v)),
        lambda sim, m: _vb(sim, m.ns) + _vb(sim, m.token) + m.element.bits(),
    ),
    CandOp: (
        lambda v: CandOp(_key(v), v, v + 1, v, v + 2, v, _elem(v)),
        lambda sim, m: _vb(sim, m.key) + nat_bits(m.pos) + nat_bits(m.n_prime)
        + nat_bits(m.probe_lo) + nat_bits(m.probe_hi) + nat_bits(m.target)
        + m.element.bits(),
    ),
    CopySplit: (
        lambda v: CopySplit(
            _key(v), v, v, v + 3, v + 4, v, v + 1, 0, _elem(v), _vid(v), v, _key(v) + (v, v, v)
        ),
        lambda sim, m: _vb(sim, m.key) + nat_bits(m.i) + nat_bits(m.lo) + nat_bits(m.hi)
        + nat_bits(m.n_prime) + nat_bits(m.probe_lo) + nat_bits(m.probe_hi)
        + nat_bits(m.target) + m.element.bits() + _vb(sim, m.vid)
        + nat_bits(m.parent_node) + _vb(sim, m.parent_slot),
    ),
    CompareOp: (
        lambda v: CompareOp(_key(v), v, v + 1, _elem(v), v, _key(v) + (v, 0, v)),
        lambda sim, m: _vb(sim, m.key) + nat_bits(m.i) + nat_bits(m.j) + m.element.bits()
        + nat_bits(m.holder) + _vb(sim, m.slot),
    ),
    VoteMsg: (
        lambda v: VoteMsg(_key(v), _key(v) + (v, v, v), (v, 0)),
        lambda sim, m: _vb(sim, m.key) + _vb(sim, m.slot) + _vb(sim, m.vector),
    ),
    CopyAggMsg: (
        lambda v: CopyAggMsg(_key(v), _key(v) + (v, v, v), (v, v)),
        lambda sim, m: _vb(sim, m.key) + _vb(sim, m.slot) + _vb(sim, m.vector),
    ),
    ProbeReport: (
        lambda v: ProbeReport(_key(v), "target", v, _elem(v)),
        lambda sim, m: _vb(sim, m.key) + 8 + nat_bits(m.order) + m.element.bits(),
    ),
}


@pytest.mark.parametrize("value", [0, 1, 2**49, 2**64])
@pytest.mark.parametrize("cls", list(_MESSAGE_CASES), ids=lambda c: c.__name__)
def test_message_size_matches_hand_written_formula(cls, value):
    # by name: ``dataclass(slots=True)`` leaves the pre-slots class behind as a subclass
    covered = {c.__name__ for c in _MESSAGE_CASES}
    assert {c.__name__ for c in Message.__subclasses__()} | {"RouteMsg"} == covered
    if cls is not RouteMsg:
        assert "size_bits" not in cls.__dict__
    sim, _ = make_sim(n=8)
    build, reference = _MESSAGE_CASES[cls]
    msg = build(value)
    assert msg.size_bits(sim) == reference(sim, msg)


def test_send_appends_to_channel():
    sim, nodes = make_sim()
    sim.send(0, 1, Ping())
    assert len(sim.channels[1]) == 1
    assert isinstance(sim.channels[1][0].payload, Ping)


def test_self_send_delivered_next_round():
    sim, nodes = make_sim()
    sim.send(0, 0, Ping())
    sim.step_round()
    assert nodes[0].got == [(0, Ping())]


def test_unknown_destination_is_fault():
    sim, _ = make_sim()
    with pytest.raises(SimulationFault):
        sim.send(0, 99, Ping())


def test_quiescent_round_metrics():
    sim, nodes = make_sim(n=4)
    m = sim.step_round()
    assert m.max_congestion == 0
    assert m.delivered == 0
    assert all(node.activations == 1 for node in nodes)


def test_single_message_metrics():
    sim, nodes = make_sim()
    sim.send(0, 1, Ping())
    m = sim.step_round()
    assert m.per_node_messages == {1: 1}
    assert m.max_congestion == 1


def test_k_messages_one_round_congestion():
    sim, nodes = make_sim()
    for _ in range(5):
        sim.send(0, 2, Ping())
    m = sim.step_round()
    assert m.per_node_messages == {2: 5}
    assert m.max_congestion == 5
    assert len(nodes[2].got) == 5


def test_message_sent_during_round_arrives_next_round():
    sim, nodes = make_sim()

    class Replier(Recorder):
        def on_message(self, src, payload):
            super().on_message(src, payload)
            if src == 0:
                self.sim.send(self.id, 0, Ping("reply"))

    sim.nodes[1] = Replier(sim, 1)
    sim.send(0, 1, Ping())
    sim.step_round()
    assert nodes[0].got == []
    sim.step_round()
    assert len(nodes[0].got) == 1


def test_conservation_after_drain():
    sim, nodes = make_sim()
    for i in range(10):
        sim.send(i % 4, (i + 1) % 4, Ping())
    while sim.pending_messages():
        sim.step_round()
    assert sim.sent == sim.delivered == 10


def test_async_determinism():
    def trace_run():
        events = []
        cfg = SimConfig(n=3, seed=42, mode=ASYNC, async_delay_max=5)
        sim = Simulator(cfg, trace=events.append)
        nodes = [Recorder(sim, i) for i in range(3)]
        for node in nodes:
            sim.add_node(node)
        for i in range(20):
            sim.send(i % 3, (i + 1) % 3, Ping())
        sim.run_async(schedule_seed=7)
        return events

    assert trace_run() == trace_run()


def test_async_non_fifo_possible():
    # two messages from 0 to 1 may be delivered in reverse order for some seed
    reordered = False
    for schedule_seed in range(40):
        cfg = SimConfig(n=2, seed=5, mode=ASYNC, async_delay_max=8)
        sim = Simulator(cfg)
        nodes = [Recorder(sim, i) for i in range(2)]
        for node in nodes:
            sim.add_node(node)
        sim.send(0, 1, Ping("first"))
        sim.send(0, 1, Ping("second"))
        sim.run_async(schedule_seed)
        notes = [p.note for _, p in nodes[1].got]
        if notes == ["second", "first"]:
            reordered = True
            break
    assert reordered


def test_async_fairness_bound_and_drain():
    cfg = SimConfig(n=4, seed=9, mode=ASYNC, async_delay_max=6)
    sim = Simulator(cfg)
    nodes = [Recorder(sim, i) for i in range(4)]
    for node in nodes:
        sim.add_node(node)
    for i in range(50):
        sim.send(i % 4, (i * 3 + 1) % 4, Ping())
    sim.run_async(schedule_seed=3)
    assert sim.pending_messages() == 0
    assert sim.sent == sim.delivered == 50
    assert max(sim.delivery_delays()) <= cfg.async_delay_max


def test_async_same_seed_same_delays():
    def delays():
        cfg = SimConfig(n=3, seed=11, mode=ASYNC, async_delay_max=7)
        sim = Simulator(cfg)
        for i in range(3):
            sim.add_node(Recorder(sim, i))
        for i in range(30):
            sim.send(i % 3, (i + 2) % 3, Ping())
        sim.run_async(schedule_seed=1)
        return sim.delivery_delays()

    assert delays() == delays()


class Sleeper(Recorder):
    """Needs activation only for its first ``k`` activations."""

    def __init__(self, sim, node_id, k):
        super().__init__(sim, node_id)
        self.k = k

    @property
    def needs_activation(self):
        return self.activations < self.k


def test_sync_stops_activating_a_node_that_no_longer_needs_it():
    sim, nodes = make_sim(n=4)
    sleeper = sim.nodes[2] = Sleeper(sim, 2, k=3)
    for _ in range(7):
        sim.step_round()
    assert sleeper.activations == 3
    assert [nodes[i].activations for i in (0, 1, 3)] == [7, 7, 7]


def test_sleeping_node_still_receives_messages():
    sim, _ = make_sim(n=3)
    sleeper = sim.nodes[1] = Sleeper(sim, 1, k=0)
    sim.step_round()
    sim.send(0, 1, Ping())
    sim.step_round()
    assert sleeper.activations == 0
    assert sleeper.got == [(0, Ping())]


def test_sync_trace_logs_every_node_each_round():
    events = []
    sim = Simulator(SimConfig(n=4, seed=1), trace=events.append)
    for i in range(4):
        sim.add_node(Sleeper(sim, i, k=i))
    for _ in range(5):
        sim.step_round()
    activations = [(e["time"], e["src"]) for e in events if e["kind"] == "activate"]
    assert activations == [(t, i) for t in range(1, 6) for i in range(4)]
    assert [node.activations for node in sim.nodes] == [0, 1, 2, 3]


def test_sync_drains_only_busy_channels_in_id_order():
    events = []
    sim = Simulator(SimConfig(n=5, seed=1), trace=events.append)
    for i in range(5):
        sim.add_node(Recorder(sim, i))
    for dst in (4, 1, 4, 3):
        sim.send(0, dst, Ping())
    m = sim.step_round()
    delivered = [e["dst"] for e in events if e["kind"] == "deliver"]
    assert delivered == [1, 3, 4, 4]
    assert m.per_node_messages == {1: 1, 3: 1, 4: 2}
    assert all(not ch for ch in sim.channels)
    assert sim.step_round().delivered == 0


def test_async_run_leaves_no_envelope_behind():
    cfg = SimConfig(n=4, seed=3, mode=ASYNC, async_delay_max=5)
    sim = Simulator(cfg)
    nodes = [Recorder(sim, i) for i in range(4)]
    for node in nodes:
        sim.add_node(node)

    class Echo(Recorder):
        def on_message(self, src, payload):
            super().on_message(src, payload)
            if payload.note == "ping":
                self.sim.send(self.id, src, Ping("pong"))

    sim.nodes[2] = Echo(sim, 2)
    for i in range(12):
        sim.send(i % 4, 2, Ping())
    sim.run_async(schedule_seed=4)
    assert all(not ch for ch in sim.channels)
    assert sim.pending_messages() == 0
    assert sim.sent == sim.delivered == 24


def test_async_early_stop_keeps_undelivered_messages_in_channels():
    cfg = SimConfig(n=3, seed=2, mode=ASYNC, async_delay_max=50)
    sim = Simulator(cfg)
    for i in range(3):
        sim.add_node(Recorder(sim, i))
    for i in range(30):
        sim.send(0, 1 + i % 2, Ping())
    sim.run_async(schedule_seed=0, until=lambda s: s.delivered >= 10)
    left = [env for ch in sim.channels for env in ch]
    assert len(left) == sim.pending_messages() == 30 - sim.delivered
    assert all(list(ch) == sorted(ch, key=lambda e: e.seq) for ch in sim.channels)
    sim.run_async(schedule_seed=1)
    assert sim.pending_messages() == 0
    assert sim.delivered == 30

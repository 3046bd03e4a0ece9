import math
import random
from collections import Counter, namedtuple
from dataclasses import dataclass, fields
from enum import IntEnum
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distheap import node as node_module
from distheap import run_kselect, run_skeap, run_skeap_plus
from distheap.batches import Batch, EntryShare
from distheap.hashing import Tag, below, mix64
from distheap.kselect import CandOp, CompareOp, CopyAggMsg, CopySplit, ProbeReport, VoteMsg
from distheap.node import (
    FloodMsg,
    GetOp,
    GetReplyMsg,
    Message,
    Nat,
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
    ASYNC_DELAY_MAX,
    SYNC,
    TAG_BITS,
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
        self.starts = 0

    def on_message(self, src, payload):
        self.got.append((src, payload))

    def start(self):
        self.starts += 1


def make_sim(n=4, mode=SYNC, trace=None, **kw):
    cfg = SimConfig(n=n, seed=1, mode=mode, **kw)
    sim = Simulator(cfg, trace=trace)
    nodes = [Recorder(sim, i) for i in range(n)]
    for node in nodes:
        sim.add_node(node)
    return sim, nodes


def deliveries_per_dst(events, time):
    """How many messages each node was delivered at ``time``, from the trace."""
    return Counter(e["dst"] for e in events if e["kind"] == "deliver" and e["time"] == time)


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


class _Level(IntEnum):
    ONE = 1


# Equal tuples whose elements' types differ: (1, 2) == (True, 2) == (1.0, 2)
# == (_Level.ONE, 2), yet they cost 8, 6, 5 + label_bits and 8 bits.  Only
# their relative order can expose a wrong memo hit.
_EQUAL_TUPLES = [(1, 2), (True, 2), (1.0, 2), (_Level.ONE, 2)]
# Tuples equal to none of the above (``Tag`` members are plain ints).
_OTHER_TUPLES = [(Element(1, 0, 0),), ("x", None, VirtualId(3, "M")), (Tag.KS_PAIR, 5, 2)]


def test_tuple_memo_is_exact_in_every_order():
    reference = make_sim(n=8)[0]
    want = {t: node_module._sequence_bits(reference, t) for t in _OTHER_TUPLES}
    want_equal = [node_module._sequence_bits(reference, t) for t in _EQUAL_TUPLES]
    assert len(set(want_equal)) == 3  # the equal tuples do not all cost the same
    for order in permutations(range(len(_EQUAL_TUPLES))):
        sim, _ = make_sim(n=8)
        for t in _OTHER_TUPLES:  # sized before any of the equal tuples
            assert value_bits(sim, t) == want[t]
        for _ in range(2):  # a miss, then a hit for the memoized ones
            for i in order:
                assert value_bits(sim, _EQUAL_TUPLES[i]) == want_equal[i], (order, i)
        for t in _OTHER_TUPLES:  # and again after hits
            assert value_bits(sim, t) == want[t]
        # only the tuples of exactly int, str, None, Element and VirtualId are kept
        assert set(sim.size_memo) == {(1, 2), *_OTHER_TUPLES}
        assert {type(x) for key in sim.size_memo for x in key} == {
            int, str, type(None), Element, VirtualId
        }


def test_tuple_memo_resizes_mutable_elements():
    sim, _ = make_sim(n=8)
    share = EntryShare(((1, 4), None), ((2, 1, 3),), 1, 5, 6, 0, 2)
    key = ("sd", 3, share)
    before = value_bits(sim, key)
    share.bottoms = 2**40
    assert value_bits(sim, key) == node_module._sequence_bits(sim, key) > before
    items = [1, "a"]
    before = value_bits(sim, items)
    items.append(2**40)
    assert value_bits(sim, items) == node_module._sequence_bits(sim, items) > before
    nested = (4, items)
    before = value_bits(sim, nested)
    items.append(7)
    assert value_bits(sim, nested) == node_module._sequence_bits(sim, nested) > before
    assert sim.size_memo == {}


def test_tuple_memo_is_per_simulator():
    small, _ = make_sim(n=4)
    large, _ = make_sim(n=64)
    key = (7, 3, 11, 0, 1, 5)
    assert value_bits(small, key) == value_bits(large, key)
    assert small.size_memo == large.size_memo == {key: value_bits(small, key)}
    assert small.size_memo is not large.size_memo
    labels = (0.5, 7)  # a float depends on n and is never memoized
    assert value_bits(small, labels) != value_bits(large, labels)
    assert labels not in small.size_memo and labels not in large.size_memo


def _trace_stream(run):
    events = []
    run(lambda e: events.append((e["kind"], e["time"], e["src"], e["dst"], e["bits"])))
    return events


@pytest.mark.parametrize(
    "run",
    [
        lambda trace: run_kselect(16, m=256, k=16, seed=1, trace=trace),
        lambda trace: run_skeap(16, seed=1, trace=trace),
        lambda trace: run_skeap_plus(8, seed=1, mode=ASYNC, trace=trace),
    ],
    ids=["kselect-sync-n16", "skeap-sync-n16", "seap-async-n8"],
)
def test_tuple_memo_keeps_whole_run_trace(run, monkeypatch):
    with_memo = _trace_stream(run)
    # off in ``value_bits`` and in the built sizers' tuple fast path
    monkeypatch.setitem(node_module._FIELD_BITS, tuple, node_module._sequence_bits)
    monkeypatch.setattr(node_module, "_tuple_bits", node_module._sequence_bits)
    without_memo = _trace_stream(run)
    assert sum(event[0] == "send" for event in with_memo) > 300  # each send is sized
    assert with_memo == without_memo


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


@pytest.mark.parametrize("value", [0, 1, 2, 3, 2**49, 2**64])
@pytest.mark.parametrize("cls", list(_MESSAGE_CASES), ids=lambda c: c.__name__)
def test_message_size_matches_hand_written_formula(cls, value):
    # by name: ``dataclass(slots=True)`` leaves the pre-slots class behind as a
    # subclass; only distheap's own, so a test module's subclass changes nothing
    covered = {c.__name__ for c in _MESSAGE_CASES}
    ours = {c.__name__ for c in Message.__subclasses__() if c.__module__.startswith("distheap")}
    assert ours == covered
    assert "size_bits" not in cls.__dict__
    sim, _ = make_sim(n=8)
    build, reference = _MESSAGE_CASES[cls]
    msg = build(value)
    assert msg.size_bits(sim) == reference(sim, msg)


def _nat_fields(cls):
    return [f.name for f in fields(cls) if f.type in (Nat, "Nat")]


@pytest.mark.parametrize(
    "cls", [c for c in _MESSAGE_CASES if _nat_fields(c)], ids=lambda c: c.__name__
)
def test_negative_natural_field_is_a_fault(cls):
    sim, _ = make_sim(n=8)
    for name in _nat_fields(cls):
        msg = _MESSAGE_CASES[cls][0](1)
        setattr(msg, name, -1)
        with pytest.raises(SimulationFault, match="negative natural -1"):
            msg.size_bits(sim)


class _Int(int):
    """An int subclass: sized by its base's rule, never by a fast path."""


class _Str(str):
    """A str subclass, likewise."""


_small = st.sampled_from([0, 1, 2, 3])
_nats = st.one_of(
    _small,
    st.sampled_from([2**49, 2**64]),
    st.integers(0, 2**70),
    st.booleans(),
    st.just(_Level.ONE),
    _small.map(_Int),
)
_ints = st.one_of(_nats, st.integers(-(2**70), -1), st.integers(-3, -1).map(_Int))
_strs = st.one_of(st.sampled_from(["k2n", "elem", ""]), st.text(max_size=3))
_vids = st.builds(
    VirtualId, st.one_of(_small, st.integers(0, 2**64), st.just(-1)), st.sampled_from("LMR")
)
_elements = st.builds(Element, _small, _small, st.integers(0, 2**64), st.binary(max_size=2))
_scalars = st.one_of(
    _ints, st.sampled_from([0.0, 1.0, 2.0, 0.5]), st.none(), _strs, _vids, _elements
)
_pair = namedtuple("_pair", "a b")
# Short tuples over few numbers, so that equal tuples of differently sized
# elements, such as (1, 2), (True, 2) and (1.0, 2), meet in one simulator's memo.
_colliding = st.lists(
    st.sampled_from([1, True, 1.0, _Level.ONE, _Int(1), 2]), min_size=1, max_size=2
).map(tuple)
_tuples = st.one_of(
    _colliding,
    st.lists(st.one_of(_scalars, st.tuples(_scalars, _scalars)), max_size=6).map(tuple),
    st.builds(_pair, _scalars, _scalars),
)
_values = st.one_of(_scalars, _tuples, st.lists(_scalars, max_size=3))
# a field's annotation -> the values drawn for it: mostly its type, sometimes
# something else, which the built sizer must hand to ``value_bits``
_FIELD_VALUES = {
    "Nat": _nats,
    "int": _ints,
    "float": st.floats(0.0, 1.0, exclude_max=True),
    "str": st.one_of(_strs, _strs.map(_Str)),  # ``ProbeReport``'s reference counts 8
    "tuple": st.one_of(_tuples, _values),
    "tuple[int, int]": st.one_of(st.tuples(_ints, _ints), _values),
    "tuple | None": st.one_of(_tuples, st.none(), _values),
    "VirtualId": st.one_of(_vids, _values),
    "Element": _elements,  # the hand-written references call ``.bits()``
    "Any": _values,
    "SizeBits": st.integers(0, 2**70),  # ``RouteMsg``'s reference adds it as is
    "Presized": _values,  # costs nothing, whatever it holds
}


def _messages(cls):
    return st.builds(cls, **{f.name: _FIELD_VALUES[f.type] for f in fields(cls)})


@pytest.mark.parametrize("cls", list(_MESSAGE_CASES), ids=lambda c: c.__name__)
def test_built_sizer_matches_field_by_field_rule(cls):
    # one simulator for every example, so the built sizers meet a filled memo;
    # the reference sizes each message on a fresh one
    sim, _ = make_sim(n=8)
    reference = _MESSAGE_CASES[cls][1]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_messages(cls))
    def check(msg):
        try:
            want = reference(make_sim(n=8)[0], msg)
        except SimulationFault:  # a negative natural or VirtualId owner
            with pytest.raises(SimulationFault, match="negative natural"):
                msg.size_bits(sim)
        else:
            assert msg.size_bits(sim) == want

    check()


def test_send_appends_to_channel():
    sim, nodes = make_sim()
    sim.send(0, 1, Ping())
    assert sim.sent - sim.delivered == 1
    assert nodes[1].got == []
    sim.step_round()
    assert sim.sent - sim.delivered == 0
    assert nodes[1].got == [(0, Ping())]


def test_self_send_delivered_next_round():
    sim, nodes = make_sim()
    sim.send(0, 0, Ping())
    sim.step_round()
    assert nodes[0].got == [(0, Ping())]


def test_unknown_destination_is_fault():
    sim, _ = make_sim()
    with pytest.raises(SimulationFault):
        sim.send(0, 99, Ping())


@pytest.mark.parametrize(
    "config,match",
    [
        (dict(n=1), "at least two nodes"),
        (dict(lam=-1), "non-negative"),
        (dict(mode="lockstep"), "unknown mode"),
        (dict(priority_count=0), "at least one priority"),
    ],
    ids=["n", "lam", "mode", "priority_count"],
)
def test_config_rejects_invalid_values(config, match):
    with pytest.raises(ValueError, match=match):
        SimConfig(**{"n": 4, "seed": 1, **config})


def test_quiescent_round_metrics():
    sim, nodes = make_sim(n=4)
    m = sim.step_round()
    assert m.max_congestion == 0
    assert m.delivered == 0
    assert all(node.starts == 1 for node in nodes)


def test_single_message_metrics():
    events = []
    sim, nodes = make_sim(trace=events.append)
    sim.send(0, 1, Ping())
    m = sim.step_round()
    assert deliveries_per_dst(events, m.round) == {1: 1}
    assert m.max_congestion == 1


def test_k_messages_one_round_congestion():
    events = []
    sim, nodes = make_sim(trace=events.append)
    for _ in range(5):
        sim.send(0, 2, Ping())
    m = sim.step_round()
    assert deliveries_per_dst(events, m.round) == {2: 5}
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
    while sim.sent - sim.delivered:
        sim.step_round()
    assert sim.sent == sim.delivered == 10


def test_async_determinism():
    def trace_run():
        events = []
        cfg = SimConfig(n=3, seed=42, mode=ASYNC)
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
        cfg = SimConfig(n=2, seed=5, mode=ASYNC)
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


def record_delays(sim):
    """The ticks from send to receipt of every message ``sim`` delivers, in
    delivery order: ``sim.send`` stamps each payload with the clock, and
    each recipient, added before this is called, reads the clock when the
    payload arrives."""
    sent_at, delays = {}, []
    send = sim.send

    def stamping(src, dst, payload):
        sent_at[id(payload)] = (payload, sim.time)  # held, so that the id stays unique
        send(src, dst, payload)

    def timing(on_message):
        def received(src, payload):
            delays.append(sim.time - sent_at.pop(id(payload))[1])
            on_message(src, payload)

        return received

    sim.send = stamping
    for node in sim.nodes:
        node.on_message = timing(node.on_message)
    return delays


def test_async_fairness_bound_and_drain():
    cfg = SimConfig(n=4, seed=9, mode=ASYNC)
    sim = Simulator(cfg)
    nodes = [Recorder(sim, i) for i in range(4)]
    for node in nodes:
        sim.add_node(node)
    delays = record_delays(sim)
    for i in range(50):
        sim.send(i % 4, (i * 3 + 1) % 4, Ping())
    sim.run_async(schedule_seed=3)
    assert sim.sent - sim.delivered == 0
    assert sim.sent == sim.delivered == 50
    assert max(delays) <= ASYNC_DELAY_MAX


def test_async_same_seed_same_delays():
    def delays():
        cfg = SimConfig(n=3, seed=11, mode=ASYNC)
        sim = Simulator(cfg)
        for i in range(3):
            sim.add_node(Recorder(sim, i))
        delays = record_delays(sim)
        for i in range(30):
            sim.send(i % 3, (i + 2) % 3, Ping())
        sim.run_async(schedule_seed=1)
        return delays

    assert delays() == delays()


def test_sleeping_node_still_receives_messages():
    # the first round delivers before it starts the nodes
    sim, nodes = make_sim(n=3)
    got_at_start = []
    nodes[1].start = lambda: got_at_start.append(list(nodes[1].got))
    sim.send(0, 1, Ping())
    sim.step_round()
    assert got_at_start == [[(0, Ping())]]


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
    assert deliveries_per_dst(events, m.round) == {1: 1, 3: 1, 4: 2}
    assert sim.sent - sim.delivered == 0
    assert sim.step_round().delivered == 0


def test_sync_sends_during_a_round_arrive_in_the_next():
    events = []
    sim = Simulator(SimConfig(n=4, seed=1), trace=events.append)

    class Replier(Recorder):
        def on_message(self, src, payload):
            super().on_message(src, payload)
            if payload.note == "ping":
                for dst in (0, 3):  # a lower and a higher id than this node's
                    self.sim.send(self.id, dst, Ping("pong"))

    nodes = [Recorder(sim, 0), Recorder(sim, 1), Replier(sim, 2), Recorder(sim, 3)]
    for node in nodes:
        sim.add_node(node)
    sim.send(1, 2, Ping())
    first = sim.step_round()
    assert deliveries_per_dst(events, first.round) == {2: 1}
    assert nodes[0].got == nodes[3].got == []
    assert sim.sent - sim.delivered == 2
    second = sim.step_round()
    assert deliveries_per_dst(events, second.round) == {0: 1, 3: 1}
    assert nodes[0].got == nodes[3].got == [(2, Ping("pong"))]
    delivered = [(e["time"], e["dst"]) for e in events if e["kind"] == "deliver"]
    assert delivered == [(1, 2), (2, 0), (2, 3)]


@dataclass
class Sized:
    bits: int

    def size_bits(self, sim):
        return self.bits


def round_metrics_from_trace(events, time):
    """``(delivered, max_congestion, max_message_bits)`` of the round at
    ``time``, from its ``deliver`` events."""
    per_dst = deliveries_per_dst(events, time)
    bits = [e["bits"] for e in events if e["kind"] == "deliver" and e["time"] == time]
    return sum(per_dst.values()), max(per_dst.values(), default=0), max(bits, default=0)


SYNC_RUNS = {
    "skeap": lambda trace: run_skeap(16, seed=1, lam=2, trace=trace),
    "kselect": lambda trace: run_kselect(16, 256, 16, seed=1, trace=trace),
    "seap": lambda trace: run_skeap_plus(16, seed=1, lam=2, trace=trace),
}


@pytest.mark.parametrize("protocol", sorted(SYNC_RUNS))
def test_every_sync_round_metric_matches_its_deliveries(protocol):
    events = []
    rows = SYNC_RUNS[protocol](events.append).metrics["per_round"]
    assert [row["round"] for row in rows] == list(range(1, len(rows) + 1))
    assert sum(row["delivered"] for row in rows) == sum(e["kind"] == "deliver" for e in events)
    for row in rows:
        want = (row["delivered"], row["max_congestion"], row["max_message_bits"])
        assert round_metrics_from_trace(events, row["round"]) == want, row


def test_round_metrics_count_only_that_rounds_messages():
    events = []
    sim = Simulator(SimConfig(n=4, seed=1), trace=events.append)

    class Replier(Recorder):
        def on_message(self, src, payload):
            super().on_message(src, payload)
            if src == 0:
                self.sim.send(self.id, 0, Sized(payload.bits // 2 + 8 * self.id))

    for i in range(4):
        sim.add_node(Replier(sim, i))
    # in both rounds the largest message is neither the first nor the last
    # sent or delivered; the second round's are sent from the handlers alone
    for dst, bits in ((3, 16), (1, 24), (2, 64), (1, 40)):
        sim.send(0, dst, Sized(bits))
    first = sim.step_round()
    second = sim.step_round()
    third = sim.step_round()
    assert (first.delivered, first.max_congestion, first.max_message_bits) == (4, 2, 72)
    assert (second.delivered, second.max_congestion, second.max_message_bits) == (4, 4, 56)
    assert (third.delivered, third.max_congestion, third.max_message_bits) == (0, 0, 0)
    for m in (first, second, third):
        assert round_metrics_from_trace(events, m.round) == (
            m.delivered, m.max_congestion, m.max_message_bits
        )


def test_async_takeover_draws_starts_then_deadlines_by_destination():
    n, seed, schedule_seed = 4, 6, 2
    sim = Simulator(SimConfig(n=n, seed=seed, mode=ASYNC))
    received = {}

    class Clocked(Recorder):
        def on_message(self, src, payload):
            received[payload.note] = self.sim.time

    for i in range(n):
        sim.add_node(Clocked(sim, i))
    sends = [(3, "a"), (1, "b"), (3, "c"), (0, "d"), (2, "e"), (1, "f"), (0, "g")]
    for dst, note in sends:
        sim.send(2, dst, Ping(note))
    sim.run_async(schedule_seed)
    rng = random.Random(mix64(seed, Tag.SCHEDULE, schedule_seed))
    for _ in range(n):  # the start times
        below(rng, ASYNC_DELAY_MAX)
    # each message is delivered at its deadline, as nothing else is sent
    by_destination = sorted(sends, key=lambda send: send[0])  # stable: then in send order
    want = {note: 1 + below(rng, ASYNC_DELAY_MAX) for _, note in by_destination}
    assert received == want


def test_async_run_leaves_no_envelope_behind():
    cfg = SimConfig(n=4, seed=3, mode=ASYNC)
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
    assert sim.sent - sim.delivered == 0
    assert sim.sent == sim.delivered == 24


class Waiter(Recorder):
    """Done once a message arrives."""

    @property
    def done(self):
        return bool(self.got)


class Passer(Recorder):
    """Passes each ping on round the ring until every node has had ``LAPS``
    of them; node 0 sends the first at its start.  Logs (time, node) of
    each start."""

    LAPS = 3

    def __init__(self, sim, node_id, log):
        super().__init__(sim, node_id)
        self.log = log

    def start(self):
        super().start()
        self.log.append((self.sim.time, self.id))
        if self.id == 0:
            self.sim.send(0, 1, Ping())

    def on_message(self, src, payload):
        super().on_message(src, payload)
        if self.id or len(self.got) < self.LAPS:
            self.sim.send(self.id, (self.id + 1) % len(self.sim.nodes), Ping())

    @property
    def done(self):
        return len(self.got) == self.LAPS


def run_passers(mode, trace=None):
    """Run four ``Passer`` nodes to the end; return the simulator and the
    (time, node) of each start."""
    sim = Simulator(SimConfig(n=4, seed=4, mode=mode), trace=trace)
    starts = []
    for i in range(4):
        sim.add_node(Passer(sim, i, starts))
    if mode == SYNC:
        sim.run_sync()
    else:
        sim.run_async(schedule_seed=2)
    assert all(len(node.got) == Passer.LAPS for node in sim.nodes)
    assert sim.time > 3 * 4  # the laps outlast the starts by far
    return sim, starts


def test_sync_stops_activating_a_node_that_no_longer_needs_it():
    sim, starts = run_passers(SYNC)
    assert all(node.starts == 1 for node in sim.nodes)
    assert starts == [(1, i) for i in range(4)]  # the first round, in id order


def test_async_stops_activating_a_node_that_no_longer_needs_it():
    sim, starts = run_passers(ASYNC)
    assert all(node.starts == 1 for node in sim.nodes)
    # each at its own tick, a tick's starts from the highest id down
    assert sorted(node for _, node in starts) == list(range(4))
    assert starts == sorted(starts, key=lambda start: (start[0], -start[1]))
    assert all(1 <= time <= ASYNC_DELAY_MAX for time, _ in starts)


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_trace_activations_are_the_handler_calls(mode, monkeypatch):
    # starts are not traced; each traced delivery is one on_message call
    events = []
    calls = []  # (time, dst, src) of each on_message call, as the nodes see it
    handler = Passer.on_message

    def logged(node, src, payload):
        calls.append((node.sim.time, node.id, src))
        handler(node, src, payload)

    monkeypatch.setattr(Passer, "on_message", logged)
    run_passers(mode, trace=events.append)
    assert {e["kind"] for e in events} == {"send", "deliver"}
    assert [(e["time"], e["dst"], e["src"]) for e in events if e["kind"] == "deliver"] == calls


@pytest.mark.parametrize("traced", [False, True])
def test_async_stall_is_a_fault_at_once(traced):
    # node 1 starts, then waits for a message nobody sends
    sim = Simulator(
        SimConfig(n=3, seed=1, mode=ASYNC),
        trace=[].append if traced else None,
    )
    stuck = Waiter(sim, 1)
    for node in (Recorder(sim, 0), stuck, Recorder(sim, 2)):
        sim.add_node(node)
    sim.send(0, 2, Ping())
    with pytest.raises(SimulationFault, match=r"run_async stalled .* nodes \[1\]"):
        sim.run_async(schedule_seed=0, max_picks=100_000)
    assert stuck.starts == 1
    assert sim.delivered == 1
    assert sim.time <= 3 * ASYNC_DELAY_MAX


def test_sync_stall_is_a_fault_at_once():
    sim, _ = make_sim(n=3)
    stuck = sim.nodes[1] = Waiter(sim, 1)
    sim.send(0, 2, Ping())
    with pytest.raises(SimulationFault, match=r"run_sync stalled .* nodes \[1\]"):
        sim.run_sync(max_rounds=100_000)
    assert stuck.starts == 1
    assert sim.time <= 3


def test_async_tick_runs_starts_from_the_highest_id_then_deliveries_in_send_order(
    monkeypatch,
):
    # messages sent before the run and at three different ticks of it, and
    # two starts, all fall due on tick T
    T = 10
    log = []

    class Logged(Recorder):
        # what a node sends at its start or when handed a note: (dst, note)
        sends = {("start", 0): (2, "c"), ("start", 2): (0, "d"), "x": (1, "e")}

        def start(self):
            log.append((self.sim.time, "start", self.id))
            self._send_for(("start", self.id))

        def on_message(self, src, payload):
            log.append((self.sim.time, "got", payload.note))
            self._send_for(payload.note)

        def _send_for(self, cause):
            if cause in self.sends:
                dst, note = self.sends[cause]
                self.sim.send(self.id, dst, Ping(note))

    sim = Simulator(SimConfig(n=4, seed=1, mode=ASYNC))
    for i in range(4):
        sim.add_node(Logged(sim, i))
    for dst, note in ((3, "a"), (1, "b"), (2, "x")):  # seq 0, 1, 2
        sim.send(0, dst, Ping(note))
    # drawn: the starts of nodes 0-3, the takeover by destination (b, x, a),
    # then c at tick 1, d at tick 2 and e at tick 3, as they are sent
    plan = iter([1, T, 2, T, T, 3, T, T, T, T])
    monkeypatch.setattr(Simulator, "_deadline", lambda sim: next(plan))
    sim.run_async(schedule_seed=0)
    assert next(plan, None) is None
    assert log == [
        (1, "start", 0),
        (2, "start", 2),
        (3, "got", "x"),
        (T, "start", 3),
        (T, "start", 1),
        (T, "got", "a"),
        (T, "got", "b"),
        (T, "got", "c"),
        (T, "got", "d"),
        (T, "got", "e"),
    ]


class Starter(Recorder):
    """Sends node 1 a ping at its start."""

    def start(self):
        super().start()
        self.sim.send(self.id, 1, Ping("started"))


@pytest.mark.parametrize("delay", [0, ASYNC_DELAY_MAX + 1])
@pytest.mark.parametrize("good", [0, 2, 3], ids=["start", "takeover", "send"])
def test_async_deadline_outside_the_window_is_a_fault(delay, good, monkeypatch):
    # the first ``good`` draws are 1 tick ahead: two starts, then the
    # message sent before the run; the next is ``delay`` ticks ahead
    sim = Simulator(SimConfig(n=2, seed=1, mode=ASYNC))
    for i in range(2):
        sim.add_node(Starter(sim, i))
    sim.send(0, 1, Ping())
    draws = []

    def deadline(sim):
        draws.append(sim.time)
        return sim.time + (1 if len(draws) <= good else delay)

    monkeypatch.setattr(Simulator, "_deadline", deadline)
    with pytest.raises(SimulationFault, match=r"deadline \d+ is outside the window at \d+"):
        sim.run_async(schedule_seed=0)
    assert len(draws) == good + 1


@pytest.mark.parametrize("fault", ["stall", "max_picks"])
def test_a_failed_async_run_leaves_no_schedule_behind(fault):
    # after the fault, a send goes to the outbox again, not to the dead run
    sim = Simulator(SimConfig(n=2, seed=1, mode=ASYNC))
    for i in range(2):
        sim.add_node(Waiter(sim, i))
    if fault == "stall":
        with pytest.raises(SimulationFault, match="run_async stalled"):
            sim.run_async(schedule_seed=0)
    else:
        sim.send(0, 1, Ping("in flight"))
        with pytest.raises(SimulationFault, match="run_async exceeded max_picks"):
            sim.run_async(schedule_seed=0, max_picks=1)
    seq = sim.sent
    sim.send(1, 0, Ping("late"))
    assert sim._outbox == {0: [(1, Ping("late"), TAG_BITS + 8, seq)]}
    assert sim._sched_rng is None

"""A real node's own virtual nodes talk by local hand-off, not by message.

One real node emulates three virtual nodes, so a link between two of them
is local state.  ``OverlayNode.post`` hands a payload that a node addresses
to itself to ``Simulator.hand_off``: it is not sized, counted or traced,
and it runs after the current handler, before the next event.
``Simulator.send`` stays a message whatever its endpoints.
"""
from dataclasses import dataclass

import pytest

from distheap import run_kselect, run_skeap, run_skeap_plus
from distheap.kselect import KSelectNode
from distheap.node import FloodMsg
from distheap.sim import ASYNC, SYNC, ProtocolNode, SimConfig, SimulationFault, Simulator

RUNS = {
    "skeap": lambda mode, trace: run_skeap(16, seed=1, lam=2, mode=mode, trace=trace),
    "seap": lambda mode, trace: run_skeap_plus(16, seed=1, lam=2, mode=mode, trace=trace),
    "kselect": lambda mode, trace: run_kselect(16, 256, 16, seed=1, mode=mode, trace=trace),
}


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
@pytest.mark.parametrize("protocol", sorted(RUNS))
def test_no_message_goes_from_a_node_to_itself(protocol, mode):
    sends = []

    def trace(event):
        if event["kind"] == "send":
            sends.append((event["src"], event["dst"]))

    res = RUNS[protocol](mode, trace)
    assert res.correct if protocol == "kselect" else res.ok
    assert sends and res.metrics["messages_sent"] == len(sends)
    assert [pair for pair in sends if pair[0] == pair[1]] == []


@pytest.mark.parametrize("n", [4, 16, 64])
def test_a_flood_sends_one_message_per_edge_between_real_nodes(n, monkeypatch):
    # 2n of the tree's 3n - 1 edges join a node's own virtual nodes
    floods = []
    flood_sends = []
    flood, send = KSelectNode.flood, Simulator.send

    def recording_flood(self, kind, key, payload):
        floods.append(kind)
        flood(self, kind, key, payload)

    def recording_send(self, src, dst, payload):
        if type(payload) is FloodMsg:
            flood_sends.append((src, dst))
        send(self, src, dst, payload)

    monkeypatch.setattr(KSelectNode, "flood", recording_flood)
    monkeypatch.setattr(Simulator, "send", recording_send)
    assert run_kselect(n, n * n, n, seed=1).correct
    assert floods and len(flood_sends) == len(floods) * (n - 1)


@dataclass
class Note:
    text: str

    def size_bits(self, sim):
        return 8


class Local(ProtocolNode):
    """Logs what it handles; a ``"hop"`` note hands ``"local"`` to itself
    and then logs ``"after"``."""

    def __init__(self, sim, node_id, log):
        super().__init__(sim, node_id)
        self.log = log

    def on_message(self, src, payload):
        self.log.append((self.sim.time, self.id, src, payload.text))
        if payload.text == "hop":
            self.sim.hand_off(self.id, Note("local"))
            self.log.append((self.sim.time, self.id, src, "after"))


def _system(mode=SYNC, n=3, trace=None):
    sim = Simulator(SimConfig(n=n, seed=1, mode=mode), trace=trace)
    log = []
    for i in range(n):
        sim.add_node(Local(sim, i, log))
    return sim, log


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_a_hand_off_runs_after_its_handler_and_before_the_next_event(mode):
    sim, log = _system(mode)
    sim.send(0, 1, Note("hop"))
    sim.send(2, 1, Note("next"))
    if mode == SYNC:
        sim.run_sync()
    else:
        sim.run_async(0)
    texts = [(node, src, text) for _, node, src, text in log]
    hop = texts.index((1, 0, "hop"))
    assert texts[hop:hop + 3] == [(1, 0, "hop"), (1, 0, "after"), (1, 1, "local")]
    assert sorted(texts) == sorted([*texts[hop:hop + 3], (1, 2, "next")])
    assert log[hop][0] == log[hop + 2][0]  # at the hop's time: no round, no tick
    assert sim.sent == sim.delivered == 2


def test_a_hand_off_is_neither_counted_nor_traced():
    events = []
    sim, log = _system(n=2, trace=events.append)
    sim.hand_off(1, Note("outside"))
    assert not sim._quiescent("test")  # a queued hand-off is pending work
    assert sim.run_sync() == 1  # the hand-off runs first, then the round that starts the nodes
    assert log == [(0, 1, 1, "outside")]
    assert events == [] and sim.sent == 0 and sim.max_message_bits == 0


def test_a_hand_off_to_an_unknown_node_is_a_fault():
    sim, _ = _system()
    with pytest.raises(SimulationFault, match="unknown node"):
        sim.hand_off(3, Note("lost"))


def test_a_send_from_a_node_to_itself_is_still_a_message():
    events = []
    sim, log = _system(n=2, trace=events.append)
    sim.send(1, 1, Note("self"))
    assert sim.sent == 1 and sim.sent - sim.delivered == 1 and log == []
    assert [(e["kind"], e["src"], e["dst"]) for e in events] == [("send", 1, 1)]
    assert sim.run_sync() == 1
    assert log == [(1, 1, 1, "self")]
    assert sim.delivered == 1
    delivered = [e["dst"] for e in events if e["kind"] == "deliver"]
    assert delivered == [1] and sim.round_metrics[0].max_congestion == 1
    assert sim.max_message_bits == 8 + 8  # the tag and the note

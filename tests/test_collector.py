"""The engine pauses the cyclic collector while it runs, and that is safe.

A run makes no reference cycles, so the collector's passes during a run
would find nothing to free; ``Simulator.run_sync`` and ``run_async``
turn it off for the run and put back the caller's state afterwards.
"""
from __future__ import annotations

import gc

import pytest

from distheap import run_kselect, run_skeap, run_skeap_plus
from distheap.batches import DELETE, INSERT
from distheap.consistency import BOTTOM
from distheap.sim import ASYNC, SYNC, ProtocolNode, SimConfig, SimulationFault, Simulator


@pytest.fixture
def cyclic_garbage(monkeypatch):
    """Wrap both run loops so that each run starts after a full collection
    and, with the simulator and its nodes still referenced, counts the
    unreachable objects the run left.  The collector stays off from that
    first collection to the count, so a cycle made during the run cannot
    be freed unseen, whatever the engine does."""
    found = []

    def counting(loop):
        def run(sim, *args, **kwargs):
            gc.disable()
            try:
                gc.collect()
                result = loop(sim, *args, **kwargs)
                found.append(gc.collect())
            finally:
                gc.enable()
            return result

        return run

    monkeypatch.setattr(Simulator, "run_sync", counting(Simulator.run_sync))
    monkeypatch.setattr(Simulator, "run_async", counting(Simulator.run_async))
    return found


RUNS = {
    "skeap": lambda n, mode: run_skeap(n, seed=1, priorities=3, lam=2, epochs=3, mode=mode),
    "seap": lambda n, mode: run_skeap_plus(n, seed=1, lam=2, epochs=3, mode=mode),
    "seap-bottom": lambda n, mode: run_skeap_plus(
        n, seed=2, epochs=2, mode=mode,
        script={1: {0: [(INSERT, 3), (DELETE, None)]}, 2: {1: [(DELETE, None)] * 2}},
    ),
    "kselect": lambda n, mode: run_kselect(n, n * n, n, seed=1, mode=mode),
    "kselect-k-past-m": lambda n, mode: run_kselect(n, 10, 11, seed=5, mode=mode),
}


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("run", RUNS)
def test_a_run_leaves_no_cyclic_garbage(cyclic_garbage, run, n, mode):
    result = RUNS[run](n, mode)
    assert cyclic_garbage == [0]
    if run == "seap-bottom":
        assert BOTTOM in [r.returned for r in result.records]
    elif run == "kselect-k-past-m":
        assert result.answer is None and result.error is not None
    else:
        assert result.correct if run == "kselect" else result.ok


class Ping:
    def size_bits(self, sim):
        return 8


class Node(ProtocolNode):
    """Node 0 sends one ping to node 1 at its start; each node records
    whether the collector was on in its start and its handler."""

    def __init__(self, sim, node_id):
        super().__init__(sim, node_id)
        self.collector_on = []

    def start(self):
        self.collector_on.append(gc.isenabled())
        if self.id == 0:
            self.sim.send(0, 1, Ping())

    def on_message(self, src, payload):
        self.collector_on.append(gc.isenabled())

    @property
    def done(self):
        return len(self.collector_on) == (1 if self.id == 0 else 2)


class Stuck(Node):
    """Never done: the run stalls once the ping is handled."""

    @property
    def done(self):
        return False


class Chatter(Node):
    """Pings itself forever: the run outlives any round or pick limit."""

    def start(self):
        super().start()
        self.sim.send(self.id, self.id, Ping())

    def on_message(self, src, payload):
        super().on_message(src, payload)
        self.sim.send(self.id, self.id, Ping())


def make_sim(mode, second=Node):
    sim = Simulator(SimConfig(n=2, seed=1, mode=mode))
    for node in (Node(sim, 0), second(sim, 1)):
        sim.add_node(node)
    return sim


def run(sim, **limit):
    if sim.cfg.mode == SYNC:
        return sim.run_sync(**limit)
    return sim.run_async(schedule_seed=1, **limit)


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_starts_and_handlers_run_with_the_collector_paused(mode):
    sim = make_sim(mode)
    run(sim)
    assert sim.nodes[0].collector_on == [False]
    assert sim.nodes[1].collector_on == [False, False]  # its start and the ping
    assert gc.isenabled()


@pytest.fixture(params=[True, False], ids=["on", "off"])
def collector_before(request):
    """The collector's state when the run starts; it is on again afterwards."""
    if not request.param:
        gc.disable()
    try:
        yield request.param
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_a_run_puts_back_the_collector_state(collector_before, mode):
    run(make_sim(mode))
    assert gc.isenabled() is collector_before


@pytest.mark.parametrize(
    "mode, second, limit, match",
    [
        (SYNC, Stuck, {}, "run_sync stalled"),
        (ASYNC, Stuck, {}, "run_async stalled"),
        (SYNC, Chatter, {"max_rounds": 20}, "run_sync exceeded max_rounds"),
        (ASYNC, Chatter, {"max_picks": 20}, "run_async exceeded max_picks"),
    ],
    ids=["sync-stall", "async-stall", "max-rounds", "max-picks"],
)
def test_a_run_that_raises_puts_back_the_collector_state(
    collector_before, mode, second, limit, match
):
    sim = make_sim(mode, second)
    with pytest.raises(SimulationFault, match=match):
        run(sim, **limit)
    assert gc.isenabled() is collector_before
    assert sim.nodes[1].collector_on[0] is False

"""Every request a node issues reaches the checkers exactly once.

The protocols fill in the requests that ``RequestSource`` issues, and the
run hands those same objects to the checkers, so a request can be neither
dropped nor counted twice between issue and verdict.  Each record carries
the epoch whose snapshot took it.
"""
from collections import Counter

import pytest

from distheap import experiments, run_skeap, run_skeap_plus
from distheap.batches import DELETE, INSERT
from distheap.sim import ASYNC, ASYNC_DELAY_MAX, SYNC, SimConfig, SimulationFault
from distheap.workload import HeapNode, RequestSource
from oracles import brute_force_order

RUNS = pytest.mark.parametrize("run", [run_skeap, run_skeap_plus], ids=["skeap", "seap"])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("mode", [SYNC, ASYNC])
@RUNS
def test_each_issued_request_is_recorded_once(run, mode, n, seed, monkeypatch):
    built = []
    run_heap = experiments._run_heap

    def keeping_nodes(*args, **kwargs):
        sim, nodes, anchor = run_heap(*args, **kwargs)
        built.extend(nodes)
        return sim, nodes, anchor

    monkeypatch.setattr(experiments, "_run_heap", keeping_nodes)
    res = run(n, seed=seed, mode=mode, schedule_seed=seed)
    issued = Counter((node.id, req.seq) for node in built for req in node.source.issued)
    recorded = Counter((r.node, r.seq) for r in res.records)
    assert issued and set(issued.values()) == {1}
    assert recorded == issued


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
@RUNS
def test_records_carry_their_epoch_in_serial_order(run, mode):
    epochs = 3
    res = run(16, seed=1, lam=1, epochs=epochs, mode=mode, schedule_seed=1)
    stamps = [r.epoch for r in sorted(res.records, key=lambda r: r.serial_index)]
    assert all(0 <= epoch < epochs for epoch in stamps)
    assert stamps == sorted(stamps)
    assert len(set(stamps)) > 1


SCRIPTS = {
    run_skeap: {
        0: {0: [(INSERT, 2), (DELETE, None), (INSERT, 1)]},
        3: {0: [(DELETE, None), (INSERT, 2), (DELETE, None), (DELETE, None)]},
    },
    run_skeap_plus: {
        1: {0: [(INSERT, 9), (DELETE, None), (INSERT, 4)]},
        2: {0: [(INSERT, 7), (DELETE, None), (DELETE, None)]},
    },
}


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
@RUNS
def test_brute_force_finds_an_order_for_scripted_runs(run, mode):
    # the search ignores the protocol's serial indices
    script = SCRIPTS[run]
    res = run(4, seed=1, epochs=2, mode=mode, schedule_seed=3, script=script)
    assert res.ok, res.verdict.violation
    issued = [req for by_epoch in script.values() for reqs in by_epoch.values() for req in reqs]
    assert len(res.records) == len(issued) <= 10
    assert brute_force_order(res.records) is not None


@pytest.mark.parametrize("seed", [0, 1])
@RUNS
def test_requests_issued_after_the_last_epoch_began_are_recorded(run, seed):
    # at n=2 an async node reaches its last epoch before its budget is spent;
    # it issues the rest just before that epoch's snapshot
    n, lam, epochs = 2, 2, 2
    res = run(n, seed=seed, lam=lam, epochs=epochs, mode=ASYNC, schedule_seed=seed)
    assert res.ok
    assert len(res.records) == n * 2 * lam * epochs


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
@RUNS
def test_generated_requests_arrive_lam_at_start_and_lam_per_period(run, mode, monkeypatch):
    lam, epochs = 2, 4
    budget, last = 2 * lam * epochs, epochs - 1
    started = {}  # node id -> (simulator, start time)
    seen = []  # (epoch, time, start time, requests issued in all) per snapshot
    start, snapshot = HeapNode.start, RequestSource.snapshot

    def starting(self):
        started[self.id] = (self.sim, self.sim.time)
        start(self)

    def snapshotting(self, epoch, kind=None):
        sim, t0 = started[self.node_id]
        seen.append((epoch, sim.time, t0, len(self.issued)))
        return snapshot(self, epoch, kind)

    monkeypatch.setattr(HeapNode, "start", starting)
    monkeypatch.setattr(RequestSource, "snapshot", snapshotting)
    res = run(8, seed=1, lam=lam, epochs=epochs, mode=mode, schedule_seed=1)
    assert res.ok and len(res.records) == 8 * budget
    period = ASYNC_DELAY_MAX
    for epoch, t, t0, issued in seen:
        if epoch == last:  # the last epoch issues everything left
            assert issued == budget
        elif mode == SYNC:  # every node starts in round 1; t is the round
            assert t0 == 1 and issued == min(lam * max(1, t - 1), budget)
        else:
            assert issued == min(lam * (1 + (t - t0) // period), budget)
    # the cases met: the start's slot, later slots and a spent budget
    before_last = {issued for epoch, _, _, issued in seen if epoch < last}
    assert {lam, budget} <= before_last and len(before_last) > 2


def test_a_request_outside_every_epoch_is_a_fault():
    source = RequestSource(0, SimConfig(n=2, seed=1))
    source.arrive(1)
    source.snapshot(0)
    source.arrive(2)
    with pytest.raises(SimulationFault, match="never taken into an epoch"):
        source.recorded()

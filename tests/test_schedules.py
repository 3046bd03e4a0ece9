"""Schedule independence: for a fixed set of requests per epoch, what a run
records does not depend on the order in which messages are delivered.

A scripted Skeap or Seap run records the same thing, field by field, in
synchronous mode and under every asynchronous schedule; a KSelect run
reports the same answer, retries and pruning steps.  The checkers of
``consistency`` cannot see a protocol that is correct under each schedule
yet decides differently under different ones (say, one that combines a
wave's children in arrival order); this equality can.

The schedules are the seeded ones, and four adversarial delay rules that
replace ``Simulator._deadline``, each within ``[time + 1, time +
ASYNC_DELAY_MAX]`` as the engine promises:

* every delay the maximum;
* 1 or the maximum, nothing between;
* later sends first: each send's deadline is one tick earlier than the
  previous send's, cycling through the delay window;
* PCT's priorities (Burckhardt et al., "A Randomized Scheduler with
  Probabilistic Guarantees of Finding Bugs", ASPLOS 2010), over
  destinations: the nodes rank in a random order, a message waits longer
  the lower its destination ranks, and at 3 change points, sends drawn
  among as many as the synchronous run sends, the destination of the send
  drops to the last rank (``_pct``).

The PCT rule and one more schedule, which slows every message to one
node, read the destination, so they also wrap ``Simulator.send``.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from distheap import run_kselect, run_skeap, run_skeap_plus
from distheap.batches import DELETE, INSERT
from distheap.sim import ASYNC, ASYNC_DELAY_MAX, SYNC, Simulator
from distheap.skeap_plus import SkeapPlusNode

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_scripts import scripted_runs  # noqa: E402

SEEDS = range(4)  # the seeded schedules


def _slowest(sim: Simulator) -> int:
    return sim.time + ASYNC_DELAY_MAX


def _fastest_or_slowest(sim: Simulator) -> int:
    return sim.time + (1 if sim._sched_rng.random() < 0.5 else ASYNC_DELAY_MAX)


def _later_sends_first(sim: Simulator) -> int:
    return sim.time + ASYNC_DELAY_MAX - sim.sent % ASYNC_DELAY_MAX


CHANGE_POINTS = 3


def _pct(patch: pytest.MonkeyPatch, sends: int) -> None:
    """Install PCT's priorities for one run of about ``sends`` sends.

    At the run's first send the nodes are ranked in a random order, highest
    priority first, and ``CHANGE_POINTS`` of its first ``sends`` sends are
    drawn as change points, both from ``sim._sched_rng``.  A message waits 1
    tick if its destination ranks first and ``ASYNC_DELAY_MAX`` if it ranks
    last, evenly between; at a change point the send's destination drops
    to the last rank.  A deadline drawn outside a send, a node's start
    time, is the engine's own.
    """
    send, engine_deadline = Simulator.send, Simulator._deadline
    run = {"dst": None, "sent": 0}

    def noting_send(sim, src, dst, payload):
        run["dst"] = dst
        try:
            send(sim, src, dst, payload)
        finally:
            run["dst"] = None

    def deadline(sim: Simulator) -> int:
        dst, n = run["dst"], len(sim.nodes)
        if dst is None:
            return engine_deadline(sim)
        if "ranked" not in run:
            run["ranked"] = sim._sched_rng.sample(range(n), n)
            steps = range(max(sends, CHANGE_POINTS))
            run["changes"] = set(sim._sched_rng.sample(steps, CHANGE_POINTS))
        ranked = run["ranked"]
        if run["sent"] in run["changes"]:
            ranked.remove(dst)
            ranked.append(dst)
        run["sent"] += 1
        return sim.time + 1 + ranked.index(dst) * (ASYNC_DELAY_MAX - 1) // (n - 1)

    patch.setattr(Simulator, "send", noting_send)
    patch.setattr(Simulator, "_deadline", deadline)


def _delays(rule):
    """Install ``rule`` as the run's ``Simulator._deadline``."""
    return lambda patch, sends: patch.setattr(Simulator, "_deadline", rule)


RULES = {
    "every-delay-the-maximum": _delays(_slowest),
    "1-or-the-maximum": _delays(_fastest_or_slowest),
    "later-sends-first": _delays(_later_sends_first),
    "pct-3-change-points": _pct,
}


def _async_runs(run, sends, **args):
    """``run(**args)`` in asynchronous mode under every schedule, each
    yielded with its name; ``sends`` is what its synchronous run sends."""
    for seed in SEEDS:
        yield f"seed-{seed}", run(**args, mode=ASYNC, schedule_seed=seed)
    for name, install in RULES.items():
        with pytest.MonkeyPatch.context() as patch:
            install(patch, sends)
            yield name, run(**args, mode=ASYNC, schedule_seed=0)


def _records(result) -> dict:
    return {(r.node, r.seq): (r.to_json(), r.epoch) for r in result.records}


def _skeap(top, **args):
    return run_skeap(priorities=top, **args)


def _seap(top, **args):
    return run_skeap_plus(**args)


@pytest.mark.parametrize("run", [_skeap, _seap], ids=["skeap", "seap"])
@given(case=scripted_runs())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_heap_records_do_not_depend_on_the_schedule(run, case):
    args, top = case
    args = dict(args, top=top)
    del args["mode"], args["schedule_seed"]
    sync = run(**args, mode=SYNC)
    want = _records(sync)
    for schedule, result in _async_runs(run, sync.metrics["messages_sent"], **args):
        assert result.ok, (schedule, result.verdict.violation)
        assert _records(result) == want, schedule


def _selection(result) -> tuple:
    return result.answer, result.error, result.retries, result.phase2_iterations, result.diag


# (n, m, k, seed): the extremes, phase-2 sorts, sizes that are not powers
# of two, and a re-drawn empty sample (16, 256, 128, 25)
SELECTIONS = [
    (2, 4, 1, 0), (3, 9, 9, 1), (5, 25, 13, 2), (8, 64, 8, 1),
    (8, 64, 20, 9), (8, 512, 8, 1), (7, 20, 5, 3), (16, 256, 128, 25), (16, 256, 16, 1),
]


@pytest.mark.parametrize("n,m,k,seed", SELECTIONS)
def test_a_selection_does_not_depend_on_the_schedule(n, m, k, seed):
    sync = run_kselect(n, m, k, seed)
    want = _selection(sync)
    assert want[1] is None
    sends = sync.metrics["messages_sent"]
    for schedule, result in _async_runs(run_kselect, sends, n=n, m=m, k=k, seed=seed):
        assert _selection(result) == want, schedule


def test_a_later_epochs_element_never_qualifies_under_an_earlier_bound(monkeypatch):
    # every message to node 2 takes the maximum delay and every other one
    # tick, so a node below node 2 gets its sq share of epoch 0 after epoch 1
    # has stored an element under epoch 0's bound there; what qualifies is
    # what the node counted at the fq flood
    slow = {"now": False}
    send, flood_fq = Simulator.send, SkeapPlusNode.flood_fq
    move = SkeapPlusNode.deliver_sq
    bounds, late = {}, []

    def noting_send(self, src, dst, payload):
        slow["now"] = dst == 2
        send(self, src, dst, payload)

    def noting_flood(self, key, payload):
        bounds[key[0]] = payload.key
        flood_fq(self, key, payload)

    def noting_move(self, key, share):
        epoch = key[0]
        qual = self.qualifying[epoch]
        late.extend(
            e for e in self.selection_universe() if e.key <= bounds[epoch] and e not in qual
        )
        move(self, key, share)

    D, I = (DELETE, None), INSERT
    script = {
        0: {1: [(I, 1)], 2: [D, D, (I, 1)]},
        1: {0: [D, D, D], 1: [D, (I, 2), D], 2: [(I, 2)]},
        4: {0: [D, (I, 2)], 2: [(I, 2)]},
        6: {2: [D]},
        7: {1: [D, (I, 1)], 2: [(I, 2), (I, 2), D]},
    }
    args = dict(n=8, seed=3, epochs=3, script=script)
    want = _records(run_skeap_plus(**args))
    monkeypatch.setattr(Simulator, "send", noting_send)
    monkeypatch.setattr(
        Simulator, "_deadline",
        lambda sim: sim.time + (ASYNC_DELAY_MAX if slow["now"] else 1),
    )
    monkeypatch.setattr(SkeapPlusNode, "flood_fq", noting_flood)
    monkeypatch.setattr(SkeapPlusNode, "deliver_sq", noting_move)
    result = run_skeap_plus(**args, mode=ASYNC)
    assert late, "no element of a later epoch reached a node before its sq share"
    assert result.ok
    assert _records(result) == want

"""Seap end to end: every run must be serializable and phase optimal.

The generated workloads issue each node's whole request budget in its first
few arrival periods, so only epoch 0 has deletes, and its one selection picks
the whole heap (k* = m).  The later delete phases of the generated runs are
empty; the scripted runs cover k* = 0.
"""
import pytest

from distheap import experiments, kselect
from distheap.batches import DELETE, INSERT
from distheap.consistency import BOTTOM
from distheap.experiments import _run_heap, make_elements, run_skeap_plus
from distheap.kselect import KSelectError, KSelectNode, exponent_for
from distheap.node import build
from distheap.overlay import CycleTopology
from distheap.sim import ASYNC, SYNC, Element, SimConfig, SimulationFault, Simulator
from distheap.skeap import build_skeap
from distheap.skeap_plus import SkeapPlusNode, build_skeap_plus


def checked(res):
    assert res.ok, res.verdict.violation
    assert res.extra["phase_optimal"], res.extra["phase_violation"]
    return res


def run_script(mode, script, n=4, seed=1, epochs=1):
    return checked(
        run_skeap_plus(n, seed=seed, epochs=epochs, mode=mode, schedule_seed=3, script=script)
    )


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_deletes_on_an_empty_heap_take_the_k_star_zero_path(mode):
    res = run_script(mode, {0: {0: [(DELETE, None)]}, 2: {0: [(DELETE, None), (DELETE, None)]}})
    assert res.extra["epochs"] == [{"epoch": 0, "k": 3, "k_star": 0, "m": 0}]
    assert len(res.records) == 3
    assert all(r.kind == DELETE and r.returned == BOTTOM for r in res.records)


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_insert_then_two_deletes_gives_the_element_and_one_bottom(mode):
    res = run_script(mode, {1: {0: [(INSERT, 5), (DELETE, None), (DELETE, None)]}})
    assert res.extra["epochs"] == [{"epoch": 0, "k": 2, "k_star": 1, "m": 1}]
    returned = [r.returned for r in res.records if r.kind == DELETE]
    assert returned == [Element(5, 1, 1), BOTTOM]


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_elements_left_in_the_heap_count_in_the_next_epoch(mode):
    # epoch 0 stores three elements and deletes one; node 1 issues one more
    # insert and two deletes as it enters epoch 1, which must see m = 2 + 1
    script = {
        1: {
            0: [(INSERT, 5), (INSERT, 7), (INSERT, 3), (DELETE, None)],
            1: [(INSERT, 9), (DELETE, None), (DELETE, None)],
        }
    }
    res = run_script(mode, script, epochs=2)
    assert res.extra["epochs"] == [
        {"epoch": 0, "k": 1, "k_star": 1, "m": 3},
        {"epoch": 1, "k": 2, "k_star": 2, "m": 3},
    ]
    returned = [r.returned.priority for r in res.records if r.kind == DELETE]
    assert returned == [3, 5, 7]


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_deletes_past_the_stored_elements_return_bottom_in_a_later_epoch(mode):
    # epoch 0 keeps one of its two elements; node 2 issues three deletes as
    # it enters epoch 1, where k = 3 > m = 1
    script = {1: {0: [(INSERT, 5), (INSERT, 7), (DELETE, None)]}, 2: {1: [(DELETE, None)] * 3}}
    res = run_script(mode, script, epochs=2)
    assert res.extra["epochs"] == [
        {"epoch": 0, "k": 1, "k_star": 1, "m": 2},
        {"epoch": 1, "k": 3, "k_star": 1, "m": 1},
    ]
    returned = [r.returned for r in res.records if r.kind == DELETE]
    assert returned == [Element(5, 1, 1), Element(7, 1, 2), BOTTOM, BOTTOM]


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
@pytest.mark.parametrize(
    "script", [None, {0: {0: [(DELETE, None)]}}], ids=["generated", "scripted"]
)
def test_no_wave_session_outlives_a_run(mode, script):
    # si and KSelect's reply waves end with their combine; every other wave
    # ends at its share, which the anchor sends even when it is empty
    n = 16
    _, nodes, anchor = _run_heap(
        build_skeap_plus, 3, None, script,
        n=n, seed=1, priority_universe=n * n, lam=2, mode=mode, epochs=3,
    )
    assert sum(len(node._waves) for node in nodes) == 0
    assert anchor._programs == {}  # every epoch program ran to its end


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_anchor_sends_only_what_nodes_read(mode, monkeypatch):
    # the fq flood carries the bound alone; sd shares carry (lo, hi, k*) and
    # sq shares (lo, hi): the epoch is already the wave key
    sent = []

    def noting(kind, handler):
        def noted(self, key, value):
            sent.append((kind, value))
            handler(self, key, value)

        return noted

    for name in ("flood_fq", "deliver_sd", "deliver_sq"):
        kind = name.split("_")[1]
        monkeypatch.setattr(SkeapPlusNode, name, noting(kind, getattr(SkeapPlusNode, name)))
    run_script(
        mode, {1: {0: [(INSERT, 5), (INSERT, 7), (DELETE, None)]}, 2: {0: [(DELETE, None)] * 3}}
    )
    limits = {payload for kind, payload in sent if kind == "fq"}
    assert limits == {Element(7, 1, 2)}
    assert {len(share) for kind, share in sent if kind == "sd"} == {3}
    assert {len(share) for kind, share in sent if kind == "sq"} == {2}


def _recorded_roots(monkeypatch):
    """Every barrier that reaches the anchor, in order: the (kind, key) of
    each wave, and KSelect's ("probes", key)."""
    roots = []
    resume = SkeapPlusNode.resume

    def recording(self, barrier, answer):
        roots.append(barrier)
        resume(self, barrier, answer)

    monkeypatch.setattr(SkeapPlusNode, "resume", recording)
    return roots


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_an_epoch_that_moves_no_element_ends_at_its_sd_share(mode, monkeypatch):
    # one delete on an empty heap: k = 1 but k* = 0, so the anchor floods no
    # fq and waits for no sq; the sd share is the epoch's last message, and
    # no node enters epoch e+1 before it, so each si(e+1) follows sd(e)
    roots = _recorded_roots(monkeypatch)
    floods = []
    flood = SkeapPlusNode.flood

    def recording(self, kind, key, payload):
        floods.append((kind, key))
        flood(self, kind, key, payload)

    monkeypatch.setattr(SkeapPlusNode, "flood", recording)
    for schedule_seed in range(12) if mode == ASYNC else [0]:
        roots.clear()
        floods.clear()
        res = checked(
            run_skeap_plus(
                16, seed=1, epochs=3, mode=mode, schedule_seed=schedule_seed,
                script={0: {0: [(DELETE, None)]}},
            )
        )
        assert [(row["k"], row["k_star"]) for row in res.extra["epochs"]] == [
            (1, 0), (0, 0), (0, 0)
        ]
        assert floods == [("fi", (epoch,)) for epoch in range(3)]
        assert roots == [(kind, (epoch,)) for epoch in range(3) for kind in ("si", "sd")]
        # per epoch: si up, fi down, sd up and sd down, n - 1 messages each
        assert res.metrics["messages_sent"] == 3 * 4 * 15
        assert [r.returned for r in res.records] == [BOTTOM]


@pytest.mark.parametrize(
    "kind", ["si", "sq"], ids=["second-insert-count", "qualifying-count-before-deletes"]
)
def test_anchor_rejects_a_count_no_epoch_waits_for(kind, monkeypatch):
    roots = _recorded_roots(monkeypatch)
    n = 4
    sim = Simulator(SimConfig(n=n, seed=1, priority_universe=n * n, lam=1, epochs=1))
    topo = CycleTopology.build(n, 1)
    anchor = build_skeap_plus(sim, topo)[topo.root.owner]
    while ("si", (0,)) not in roots:  # then epoch 0 waits for its delete count
        assert sim.time < 100, "the insert count never reached the anchor"
        sim.step_round()
    with pytest.raises(SimulationFault, match="unasked"):
        anchor.resume((kind, (0,)), 0)


def test_ok_requires_phase_optimality(monkeypatch):
    monkeypatch.setattr(
        experiments, "check_phase_optimality", lambda records, reported: (False, "forced")
    )
    res = run_skeap_plus(4, seed=1)
    assert res.verdict.ok(require_local=False)
    assert not res.ok


def test_a_failed_selection_stops_the_run(monkeypatch):
    monkeypatch.setattr(kselect, "sample_probability", lambda n, candidates: 1e-9)
    with pytest.raises(KSelectError, match="^sampling repeatedly produced no candidates$"):
        run_skeap_plus(16, seed=1, lam=2, epochs=1)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [4, 16, 64])
def test_generated_sync_runs_are_correct(n, seed):
    checked(run_skeap_plus(n, seed=seed, lam=2))


@pytest.mark.parametrize("schedule_seed", range(4))
@pytest.mark.parametrize("n", [4, 16, 64])
def test_generated_async_schedules_are_correct(n, schedule_seed):
    checked(run_skeap_plus(n, seed=schedule_seed, lam=2, mode=ASYNC, schedule_seed=schedule_seed))


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_equal_seeds_give_identical_records(mode):
    first, again = (
        run_skeap_plus(16, seed=2, lam=2, mode=mode, schedule_seed=5) for _ in range(2)
    )
    assert [r.to_json() for r in first.records] == [r.to_json() for r in again.records]
    assert first.extra == again.extra


def _selected(mode, n=16):
    """The nodes of a finished selection of rank n among n^2 elements,
    placed as ``run_kselect`` places them."""
    sim = Simulator(SimConfig(n=n, seed=1, mode=mode))
    topo = CycleTopology.build(n, 1)
    nodes = build(KSelectNode, sim, topo)
    for node, elems in zip(nodes, make_elements(n, n * n, 1, n ** exponent_for(n, n * n))):
        node.seed_elements(elems)
    anchor = nodes[topo.root.owner]
    anchor.run_program(anchor.select(n))
    if mode == SYNC:
        sim.run_sync()
    else:
        sim.run_async(0)
    assert anchor.selection.result is not None
    return nodes


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_no_per_epoch_state_outlives_a_run(mode):
    # every protocol releases what an epoch or a selection keeps when it
    # ends: requests in flight, gets, put counts and selection bounds, each
    # selection's candidate lists and sorting state, and every node's wave
    # sessions, anchor programs and parked gets
    n = 16
    heap = dict(n=n, seed=1, lam=2, mode=mode, epochs=3)
    _, skeap, _ = _run_heap(build_skeap, 0, None, None, **heap)
    _, seap, _ = _run_heap(build_skeap_plus, 0, None, None, priority_universe=n * n, **heap)
    selection = ("candidates", "chosen", "copy_slots", "rendezvous")
    epoch = ("ins_snapshot", "del_snapshot", "outstanding_gets", "qualifying")
    for protocol, nodes, names in (
        ("skeap", skeap, ("inflight", "outstanding")),
        ("seap", seap, selection + epoch),
        ("kselect", _selected(mode), selection),
    ):
        for node in nodes:
            for name in ("_waves", "_programs", "waiting_gets") + names:
                assert not getattr(node, name), (protocol, node.id, name)
    assert all(node.pending_put_acks == 0 for node in seap)


def _stepped_until(ready):
    """A sync two-epoch run in which node 0 inserts two elements and deletes
    them in epoch 0, stepped until ``ready(node 0)``; returns node 0."""
    n = 16  # at n = 4 and 8 node 0's puts are acknowledged within their round
    sim = Simulator(SimConfig(n=n, seed=1, priority_universe=n * n, lam=1, epochs=2))
    script = {0: {0: [(INSERT, 1), (INSERT, 2), (DELETE, None), (DELETE, None)]}}
    node = build_skeap_plus(sim, CycleTopology.build(n, 1), script)[0]
    while not ready(node):
        assert sim.time < 1000, "node 0 never reached the state"
        sim.step_round()
    return node


def test_next_epoch_may_not_store_inserts_with_puts_still_open():
    node = _stepped_until(lambda node: node.pending_put_acks)
    node.ins_snapshot[1] = []
    with pytest.raises(SimulationFault, match="puts still open"):
        node.flood_fi((1,), None)


def test_next_epoch_may_not_assign_deletes_with_gets_still_out():
    node = _stepped_until(lambda node: node.outstanding_gets)
    node.del_snapshot[1] = []
    with pytest.raises(SimulationFault, match="gets still out"):
        node.deliver_sd((1,), (1, 0, 0))

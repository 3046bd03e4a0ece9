import pytest

import re

from distheap.batches import DELETE, INSERT, Batch
from distheap.consistency import (
    BOTTOM,
    check_heap_consistency,
    check_local_consistency,
    check_serializable,
)
from distheap.experiments import _run_heap, run_skeap
from distheap.node import WaveUpMsg
from distheap.overlay import CycleTopology
from distheap.sim import ASYNC, SYNC, Element, SimConfig, SimulationFault, Simulator
from distheap.skeap import build_skeap


def test_single_issuer_insert_then_delete():
    res = run_skeap(
        n=2,
        seed=1,
        priorities=2,
        epochs=2,
        script={0: {0: [(INSERT, 1), (DELETE, None)]}},
    )
    recs = {(r.node, r.seq): r for r in res.records}
    ins = recs[(0, 1)]
    dele = recs[(0, 2)]
    assert dele.returned == ins.element
    assert ins.assigned == dele.assigned
    assert res.ok


def test_delete_on_empty_heap_returns_bottom():
    res = run_skeap(n=2, seed=2, priorities=2, epochs=1, script={1: {0: [(DELETE, None)]}})
    (rec,) = res.records
    assert rec.returned == BOTTOM
    assert rec.assigned == BOTTOM
    assert res.ok


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_requests_issued_in_later_epochs(mode):
    # node 1 inserts in epoch 0, node 2 takes the element in epoch 1, and
    # node 1's delete in epoch 2 finds the heap empty
    script = {1: {0: [(INSERT, 2)], 2: [(DELETE, None)]}, 2: {1: [(DELETE, None)]}}
    res = run_skeap(n=3, seed=1, priorities=2, epochs=3, mode=mode, schedule_seed=4, script=script)
    recs = {(r.node, r.seq): r for r in res.records}
    assert len(recs) == 3
    ins, late, empty = recs[(1, 1)], recs[(2, 1)], recs[(1, 2)]
    assert [ins.epoch, late.epoch, empty.epoch] == [0, 1, 2]
    assert ins.element == Element(2, 1, 1)
    assert late.returned == ins.element
    assert empty.returned == BOTTOM
    assert res.ok, res.verdict.violation  # includes local consistency


def _run(mode, epochs):
    """A small generated Skeap run; returns (nodes, anchor)."""
    _, nodes, anchor = _run_heap(
        build_skeap, 3, None, None,
        n=8, seed=1, priority_count=2, lam=2, mode=mode, epochs=epochs,
    )
    return nodes, anchor


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_no_wave_session_or_anchor_program_outlives_a_run(mode):
    epochs = 3
    nodes, anchor = _run(mode, epochs)
    assert sum(len(node._waves) for node in nodes) == 0
    assert anchor._programs == {}  # every epoch program ran to its end
    assert anchor.batches_processed == epochs


@pytest.mark.parametrize("epoch", [0, 2], ids=["already-assigned", "past-the-last-epoch"])
def test_anchor_rejects_an_sb_root_no_epoch_program_waits_for(epoch):
    # the epoch's sb wave combines at the root once more: the anchor's own
    # value and one from each child of the root
    epochs = 2
    _, anchor = _run(SYNC, epochs)
    root, key, empty = anchor.topo.root, (epoch,), Batch(anchor.priorities)
    for child in anchor.topo.children[root]:
        anchor.on_message(child.owner, WaveUpMsg("sb", key, root, child, empty))
    refused = re.escape(f"barrier {('sb', key)} reached the anchor unasked")
    with pytest.raises(SimulationFault, match=refused):
        anchor.wave_contribute("sb", key, root, empty)
    assert anchor.batches_processed == epochs  # nothing was assigned again


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_a_run_whose_anchor_program_still_waits_is_a_stall(mode):
    epochs = 2
    sim = Simulator(SimConfig(n=4, seed=1, priority_count=2, lam=1, mode=mode, epochs=epochs))
    topo = CycleTopology.build(4, 1)
    anchor = build_skeap(sim, topo)[topo.root.owner]

    def waits_past_the_last_epoch():
        yield "sb", (epochs,)

    anchor.run_program(waits_past_the_last_epoch())
    with pytest.raises(SimulationFault, match=re.escape(f"nodes {[anchor.id]} are not done")):
        sim.run_sync() if mode == SYNC else sim.run_async(0)


def test_three_node_mixed_scenario():
    # per-node buffers chosen so the combined batch is ((4,1),3)
    script = {
        0: {0: [(INSERT, 1), (DELETE, None), (DELETE, None)]},
        1: {0: [(INSERT, 1)]},
        2: {0: [(INSERT, 1), (INSERT, 1), (INSERT, 2), (DELETE, None)]},
    }
    res = run_skeap(n=3, seed=3, priorities=2, epochs=2, script=script)
    assert len(res.records) == 8
    assert res.ok, res.verdict.violation
    # every delete that returned an element got a priority-1 element
    # (three p1 inserts are available for the three deletes)
    for rec in res.records:
        if rec.kind == DELETE:
            assert rec.returned != BOTTOM
            assert rec.returned.priority == 1
    # exactly one p1 insert and the p2 insert stay stored
    matched = {r.returned.ident for r in res.records if r.kind == DELETE}
    unmatched = [
        r for r in res.records if r.kind == INSERT and r.element.ident not in matched
    ]
    assert sorted(r.element.priority for r in unmatched) == [1, 2]


def test_position_uniqueness_across_epochs():
    res = run_skeap(n=4, seed=7, priorities=3, lam=2, epochs=4, mode=SYNC)
    ins_keys = [r.assigned for r in res.records if r.kind == INSERT]
    assert len(ins_keys) == len(set(ins_keys))
    del_keys = [
        r.assigned for r in res.records if r.kind == DELETE and r.assigned != BOTTOM
    ]
    assert len(del_keys) == len(set(del_keys))
    # matching bijectivity: matched deletes consume exactly their insert's pair
    ins_by_pair = {
        r.assigned: r.element for r in res.records if r.kind == INSERT
    }
    for rec in res.records:
        if rec.kind == DELETE and rec.assigned != BOTTOM:
            assert ins_by_pair[rec.assigned] == rec.returned


def test_count_conservation_per_run():
    res = run_skeap(n=4, seed=11, priorities=2, lam=3, epochs=3)
    inserts = [r for r in res.records if r.kind == INSERT]
    deletes = [r for r in res.records if r.kind == DELETE]
    matched = [r for r in deletes if r.returned != BOTTOM]
    bottoms = [r for r in deletes if r.returned == BOTTOM]
    assert len(matched) + len(bottoms) == len(deletes)
    assert len(matched) <= len(inserts)


def test_serial_indices_unique_and_dense_enough():
    res = run_skeap(n=3, seed=5, priorities=2, lam=2, epochs=3)
    serials = [r.serial_index for r in res.records]
    assert len(serials) == len(set(serials))


@pytest.mark.parametrize("seed", range(6))
def test_sync_random_workloads_pass_all_checks(seed):
    res = run_skeap(n=5, seed=seed, priorities=3, lam=2, epochs=3, mode=SYNC)
    assert res.records, "expected completed requests"
    ok, why = check_serializable(res.records)
    assert ok, why
    ok, why = check_local_consistency(res.records)
    assert ok, why
    ok, why = check_heap_consistency(res.records)
    assert ok, why


@pytest.mark.parametrize("schedule_seed", range(8))
def test_async_adversarial_schedules_pass_all_checks(schedule_seed):
    res = run_skeap(
        n=4,
        seed=100 + schedule_seed,
        priorities=2,
        lam=2,
        epochs=3,
        mode=ASYNC,
        schedule_seed=schedule_seed,
    )
    assert res.ok, res.verdict.violation


def test_async_same_seeds_identical_records():
    def run():
        res = run_skeap(
            n=4, seed=42, priorities=2, lam=2, epochs=3, mode=ASYNC, schedule_seed=9
        )
        return [r.to_json() for r in res.records]

    assert run() == run()


def test_metrics_shape():
    res = run_skeap(n=3, seed=1, priorities=2, lam=1, epochs=2)
    m = res.metrics
    assert m["rounds"] > 0
    assert m["messages_sent"] == m["messages_delivered"]
    assert m["max_message_bits"] > 0
    assert len(m["per_round"]) == m["rounds"]


@pytest.mark.parametrize(
    "n,seed", [(n, s) for n in (16, 64, 256) for s in range(3)] + [(512, 1)]
)
def test_sync_rounds_bounded_by_tree_height(n, seed):
    # an epoch is a wave up the aggregation tree and a share back down, so
    # about 2 * height rounds; a DHT route that circles the ring breaks the
    # bound.  (512, 1) is the benchmark's Skeap workload.
    epochs = 4
    res = run_skeap(n, seed=seed, priorities=4, lam=2, epochs=epochs)
    assert res.ok, res.verdict.violation
    assert res.metrics["rounds"] <= 2 * epochs * CycleTopology.build(n, seed).height()

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distheap.consistency import (
    BOTTOM,
    DELETE,
    INSERT,
    OperationRecord,
    check_heap_consistency,
    check_local_consistency,
    check_phase_optimality,
    check_serializable,
    make_verdict,
)
from distheap.experiments import run_skeap_plus
from distheap.sim import Element
from oracles import brute_force_order, sequential_oracle


def history_from_ops(ops, node_of=None, seq_of=None):
    """Build records from (kind, element) ops executed by the oracle."""
    results, _ = sequential_oracle(ops)
    records = []
    seqs = {}
    for i, ((kind, element), res) in enumerate(zip(ops, results)):
        node = node_of(i) if node_of else (element.origin if element else 0)
        seqs[node] = seqs.get(node, 0) + 1
        records.append(
            OperationRecord(
                node=node,
                seq=seq_of(i) if seq_of else seqs[node],
                kind=kind,
                element=element,
                serial_index=i,
                returned=res,
            )
        )
    return records


def test_oracle_minimum_selection():
    e1 = Element(2, 0, 1)
    e2 = Element(1, 0, 2)
    results, matching = sequential_oracle([(INSERT, e1), (INSERT, e2), (DELETE, None)])
    assert results == [None, None, e2]
    assert matching == {((0, 2), 2)}


def test_oracle_empty_returns_bottom():
    results, matching = sequential_oracle([(DELETE, None)])
    assert results == [BOTTOM]
    assert matching == set()


def test_oracle_refill_sequence():
    a = Element(1, 0, 1)
    b = Element(1, 0, 2)
    ops = [(INSERT, a), (DELETE, None), (DELETE, None), (INSERT, b), (DELETE, None)]
    results, _ = sequential_oracle(ops)
    assert results == [None, a, BOTTOM, None, b]


def test_oracle_history_passes_all_checks():
    rng = random.Random(4)
    ops = []
    seq = 0
    for _ in range(40):
        if rng.random() < 0.6:
            seq += 1
            ops.append((INSERT, Element(rng.randint(1, 3), rng.randrange(3), seq)))
        else:
            ops.append((DELETE, None))
    hist = history_from_ops(ops, node_of=lambda i: i % 3, seq_of=lambda i: i)
    ok, why = check_serializable(hist)
    assert ok, why
    ok, why = check_local_consistency(hist)
    assert ok, why
    ok, why = check_heap_consistency(hist)
    assert ok, why


def test_swapped_returns_fail_serializable():
    a = Element(1, 0, 1)
    b = Element(2, 1, 1)
    ops = [(INSERT, a), (INSERT, b), (DELETE, None), (DELETE, None)]
    hist = history_from_ops(ops, node_of=lambda i: i % 2, seq_of=lambda i: i)
    # swap the two delete outcomes: now the first delete returns the
    # larger-priority element while the smaller is available
    hist[2].returned, hist[3].returned = hist[3].returned, hist[2].returned
    ok, why = check_serializable(hist)
    assert not ok
    assert "priority" in why


def test_unavailable_return_fails():
    a = Element(1, 0, 1)
    hist = [
        OperationRecord(0, 1, DELETE, serial_index=0, returned=a),
        OperationRecord(0, 2, INSERT, element=a, serial_index=1),
    ]
    ok, why = check_serializable(hist)
    assert not ok


def test_bottom_with_elements_available_fails():
    a = Element(1, 0, 1)
    hist = [
        OperationRecord(0, 1, INSERT, element=a, serial_index=0),
        OperationRecord(1, 1, DELETE, serial_index=1, returned=BOTTOM),
    ]
    ok, why = check_serializable(hist)
    assert not ok
    assert "empty return" in why


def test_empty_history_passes():
    assert check_serializable([]) == (True, None)
    assert check_local_consistency([]) == (True, None)
    assert check_heap_consistency([]) == (True, None)


def test_local_consistency_single_node_in_order():
    a = Element(1, 0, 1)
    hist = [
        OperationRecord(0, 1, INSERT, element=a, serial_index=5),
        OperationRecord(0, 2, DELETE, serial_index=9, returned=a),
    ]
    assert check_local_consistency(hist)[0]


def test_local_consistency_transposed_fails():
    a = Element(1, 0, 2)
    hist = [
        OperationRecord(0, 2, INSERT, element=a, serial_index=1),
        OperationRecord(0, 1, DELETE, serial_index=2, returned=BOTTOM),
    ]
    ok, why = check_local_consistency(hist)
    assert not ok


def test_heap_property1_insert_after_delete_fails():
    a = Element(1, 0, 1)
    hist = [
        OperationRecord(1, 1, DELETE, serial_index=0, returned=a),
        OperationRecord(0, 1, INSERT, element=a, serial_index=1),
    ]
    ok, why = check_heap_consistency(hist)
    assert not ok
    assert "after its delete" in why


def test_heap_property2_bottom_inside_pair_fails():
    a = Element(1, 0, 1)
    hist = [
        OperationRecord(0, 1, INSERT, element=a, serial_index=0),
        OperationRecord(1, 1, DELETE, serial_index=1, returned=BOTTOM),
        OperationRecord(2, 1, DELETE, serial_index=2, returned=a),
    ]
    ok, why = check_heap_consistency(hist)
    assert not ok
    assert "between matched pair" in why


def test_heap_property3_smaller_unmatched_insert_fails():
    small = Element(1, 0, 1)
    big = Element(5, 1, 1)
    hist = [
        OperationRecord(0, 1, INSERT, element=small, serial_index=0),
        OperationRecord(1, 1, INSERT, element=big, serial_index=1),
        OperationRecord(2, 1, DELETE, serial_index=2, returned=big),
    ]
    ok, why = check_heap_consistency(hist)
    assert not ok
    assert "unmatched insert" in why


def test_heap_consistency_allows_equal_priority_any_order():
    x = Element(3, 0, 1)
    y = Element(3, 1, 1)
    # the delete returns y while x (same priority) is available: fine
    hist = [
        OperationRecord(0, 1, INSERT, element=x, serial_index=0),
        OperationRecord(1, 1, INSERT, element=y, serial_index=1),
        OperationRecord(2, 1, DELETE, serial_index=2, returned=y),
    ]
    assert check_heap_consistency(hist)[0]
    assert check_serializable(hist)[0]


def phased_history(phases):
    """Records of a phased heap: per epoch, the inserted priorities (all
    distinct) and what each delete returns (an inserted priority or BOTTOM)."""
    records, elements, seq = [], {}, 0
    for epoch, (inserts, returns) in enumerate(phases):
        for prio in inserts:
            seq += 1
            elements[prio] = Element(prio, 0, seq)
            records.append(OperationRecord(0, seq, INSERT, element=elements[prio], epoch=epoch))
        for ret in returns:
            seq += 1
            returned = BOTTOM if ret == BOTTOM else elements[ret]
            records.append(OperationRecord(1, seq, DELETE, returned=returned, epoch=epoch))
    return records


def rows(*k_and_k_star):
    return [{"epoch": e, "k": k, "k_star": ks} for e, (k, ks) in enumerate(k_and_k_star)]


# epoch 0 stores 5, 3, 8 and deletes one; epoch 1 adds 1 and deletes four
VALID_PHASES = [([5, 3, 8], [3]), ([1], [1, 5, 8, BOTTOM])]


def test_phase_check_accepts_a_valid_two_epoch_history():
    ok, why = check_phase_optimality(phased_history(VALID_PHASES), rows((1, 1), (4, 3)))
    assert ok, why


@pytest.mark.parametrize(
    "phases",
    [
        # k* - 1 elements and one extra bottom while 8 is still stored
        [([5, 3, 8], [3]), ([1], [1, 5, BOTTOM, BOTTOM])],
        # 3 returned in both epochs
        [([5, 3, 8], [3]), ([1], [1, 3, 5, 8])],
        # epoch 1 returns its own insert and ignores the 5 and 8 left over
        [([5, 3, 8], [3]), ([9], [9])],
    ],
    ids=["k-star-minus-one", "returned-twice", "leftovers-ignored"],
)
def test_phase_check_rejects_a_wrong_delete_phase(phases):
    k = len(phases[1][1])
    reported = rows((1, 1), (k, min(k, 3)))  # every case enters epoch 1 with m = 3
    ok, why = check_phase_optimality(phased_history(phases), reported)
    assert not ok
    assert why == "epoch 1: returned set is not the k* smallest"


@pytest.mark.parametrize(
    "reported",
    [rows((1, 1), (4, 2)), rows((1, 1), (3, 3)), rows((1, 1))],
    ids=["k-star", "k", "missing-row"],
)
def test_phase_check_rejects_a_reported_row_the_replay_disagrees_with(reported):
    ok, why = check_phase_optimality(phased_history(VALID_PHASES), reported)
    assert not ok
    assert why.startswith("epoch 1: reported (k, k*)")


def test_brute_force_finds_order_for_shuffled_serializable_history():
    a = Element(1, 0, 1)
    b = Element(2, 1, 1)
    hist = [
        OperationRecord(0, 1, INSERT, element=a, serial_index=3),
        OperationRecord(1, 1, DELETE, serial_index=1, returned=a),
        OperationRecord(0, 2, INSERT, element=b, serial_index=2),
        OperationRecord(1, 2, DELETE, serial_index=0, returned=b),
    ]
    # as recorded the order is invalid (delete before its insert)
    assert not check_serializable(hist)[0]
    found = brute_force_order(hist)
    assert found is not None
    assert check_serializable(found)[0]
    assert check_heap_consistency(found)[0]


def test_brute_force_none_for_corrupted_matching():
    a = Element(5, 0, 1)
    # one element returned by two different deletes: no order can explain it
    hist = [
        OperationRecord(0, 1, INSERT, element=a, serial_index=0),
        OperationRecord(2, 1, DELETE, serial_index=1, returned=a),
        OperationRecord(2, 2, DELETE, serial_index=2, returned=a),
    ]
    assert brute_force_order(hist) is None
    # and a delete returning an element nobody inserted
    ghost = [OperationRecord(0, 1, DELETE, serial_index=0, returned=Element(1, 9, 9))]
    assert brute_force_order(ghost) is None


def test_brute_force_empty_history():
    assert brute_force_order([]) == []


def test_verdict_roundtrip_json():
    a = Element(1, 0, 1)
    hist = [
        OperationRecord(0, 1, INSERT, element=a, assigned=(1, 1), serial_index=0),
        OperationRecord(1, 1, DELETE, assigned=(1, 1), serial_index=1, returned=a),
    ]
    verdict = make_verdict(hist)
    assert verdict.serializable and verdict.heap_consistent and verdict.locally_consistent
    assert verdict.to_json() == {
        "serializable": True, "locally_consistent": True, "heap_consistent": True,
        "violation": None,
    }


def test_seap_history_read_back_keeps_its_epochs():
    # the records a run hands back carry the epochs that the phase check replays
    res = run_skeap_plus(8, 1, lam=2, epochs=3)
    assert {r.epoch for r in res.records} != {-1}
    assert check_phase_optimality(res.records, res.extra["epochs"]) == (True, None)


@st.composite
def random_history(draw):
    n_ops = draw(st.integers(1, 8))
    ops = []
    elements = []
    seqs = {}
    for i in range(n_ops):
        node = draw(st.integers(0, 2))
        seqs[node] = seqs.get(node, 0) + 1
        if draw(st.booleans()):
            e = Element(draw(st.integers(1, 3)), node, seqs[node])
            elements.append(e)
            ops.append(OperationRecord(node, seqs[node], INSERT, element=e, serial_index=i))
        else:
            ops.append(OperationRecord(node, seqs[node], DELETE, serial_index=i))
    # fill delete outcomes arbitrarily: element or bottom (possibly invalid)
    used = set()
    for rec in ops:
        if rec.kind == DELETE:
            pick = draw(st.integers(0, len(elements)))
            if pick == 0 or elements[pick - 1].ident in used:
                rec.returned = BOTTOM
            else:
                rec.returned = elements[pick - 1]
                used.add(elements[pick - 1].ident)
    return ops


@given(random_history())
@settings(max_examples=120, deadline=None)
def test_brute_force_agrees_with_checker(hist):
    found = brute_force_order(hist)
    if found is not None:
        ok, why = check_serializable(found)
        assert ok, why
        assert check_heap_consistency(found)[0]
    else:
        # spot check: a few random orders must also fail
        rng = random.Random(0)
        for _ in range(5):
            shuffled = list(hist)
            rng.shuffle(shuffled)
            for i, rec in enumerate(shuffled):
                rec.serial_index = i
            assert not check_serializable(shuffled)[0]

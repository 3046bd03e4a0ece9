import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distheap.batches import (
    DELETE,
    INSERT,
    AnchorState,
    Batch,
    EntryShare,
    anchor_assign,
    combine,
    combine_all,
    decompose,
    snapshot_batch,
)
from distheap.sim import SimulationFault


def B(*entries, priorities=2):
    return Batch(priorities, tuple((tuple(v), d) for v, d in entries))


def test_snapshot_worked_example():
    # ins(p1), ins(p1), del, ins(p2), del  ->  ((2,0),1,(0,1),1)
    reqs = [(INSERT, 1), (INSERT, 1), (DELETE, None), (INSERT, 2), (DELETE, None)]
    batch, runs = snapshot_batch(reqs, 2)
    assert batch == B(((2, 0), 1), ((0, 1), 1))
    assert runs == [([0, 1], [2]), ([3], [4])]


def test_snapshot_empty():
    batch, runs = snapshot_batch([], 3)
    assert batch.entries == ()
    assert runs == []
    assert all(sum(vec) == 0 and d == 0 for vec, d in batch.entries)


def test_snapshot_leading_deletes():
    batch, runs = snapshot_batch([(DELETE, None), (DELETE, None)], 2)
    assert batch == B(((0, 0), 2))
    assert runs == [([], [0, 1])]


def test_snapshot_trailing_inserts():
    batch, _ = snapshot_batch([(DELETE, None), (INSERT, 1)], 2)
    assert batch == B(((0, 0), 1), ((1, 0), 0))


def test_combine_worked_example():
    total = combine_all([B(((1, 0), 2)), B(((1, 0), 0)), B(((2, 1), 1))], 2)
    assert total == B(((4, 1), 3))


def test_combine_identity():
    b = B(((1, 2), 3), ((0, 1), 0))
    assert combine(b, Batch(2)) == b
    assert combine(Batch(2), b) == b


def test_combine_padding():
    # ((1),1,(1),0) + ((2),0) = ((3),1,(1),0)
    b1 = Batch(1, (((1,), 1), ((1,), 0)))
    b2 = Batch(1, (((2,), 0),))
    assert combine(b1, b2) == Batch(1, (((3,), 1), ((1,), 0)))


@given(
    st.lists(
        st.tuples(st.lists(st.integers(0, 5), min_size=2, max_size=2), st.integers(0, 5)),
        max_size=5,
    ),
    st.lists(
        st.tuples(st.lists(st.integers(0, 5), min_size=2, max_size=2), st.integers(0, 5)),
        max_size=5,
    ),
)
@settings(max_examples=60, deadline=None)
def test_combine_commutes_as_value(e1, e2):
    b1, b2 = B(*e1), B(*e2)
    assert combine(b1, b2) == combine(b2, b1)
    def inserts(b):
        return sum(sum(vec) for vec, _ in b.entries)

    assert inserts(combine(b1, b2)) == inserts(b1) + inserts(b2)


@st.composite
def batches_with_zeros(draw, priorities=2):
    """A batch that may be empty or end in all-zero entries."""
    entries = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 3)] * priorities), st.integers(0, 3)
            ),
            max_size=4,
        )
    )
    entries += [((0,) * priorities, 0)] * draw(st.integers(0, 2))
    return Batch(priorities, tuple(entries))


@given(st.lists(st.one_of(st.just(Batch(2)), batches_with_zeros()), max_size=6))
@settings(max_examples=80, deadline=None)
def test_combine_all_is_the_fold_of_combine(parts):
    assert combine_all(parts, 2) == functools.reduce(combine, parts, Batch(2))


def test_combine_all_checks_the_priority_count_of_empty_parts():
    with pytest.raises(SimulationFault):
        combine_all([Batch(3)], 2)
    with pytest.raises(SimulationFault):
        combine_all([B(((1, 0), 1)), Batch(3)], 2)


def test_anchor_assign_worked_example():
    # fresh state, batch ((4,1),3): inserts [1,4] at p1 and [1,1] at p2,
    # deletes [1,3] at p1, ending at first=(4,1), last=(4,1)
    state = AnchorState(2)
    share, counter = anchor_assign(state, B(((4, 1), 3)), 1)
    assert len(share) == 1
    entry = share[0]
    assert entry.ins == ((1, 4), (1, 1))
    assert entry.dels == ((1, 1, 3),)
    assert entry.bottoms == 0
    assert state.first == [4, 1]
    assert state.last == [4, 1]
    assert counter == 1 + 5 + 3
    assert entry.ins_base == 1 and entry.del_base == 6


def test_anchor_assign_multi_priority_delete():
    # occupied p1 [3,4] and p2 [1,2]; delete 3 drains p1 fully then one from p2
    state = AnchorState(2)
    state.first = [3, 1]
    state.last = [4, 2]
    share, _ = anchor_assign(state, B(((0, 0), 3)), 1)
    assert share[0].dels == ((1, 3, 4), (2, 1, 1))
    assert share[0].bottoms == 0
    assert state.first == [5, 2]
    assert state.last == [4, 2]


def test_anchor_assign_empty_heap_bottoms():
    state = AnchorState(2)
    share, _ = anchor_assign(state, B(((0, 0), 2)), 1)
    assert share[0].dels == ()
    assert share[0].bottoms == 2


def test_anchor_invariant_violation_detected():
    state = AnchorState(1)
    state.first = [5]
    state.last = [2]
    with pytest.raises(SimulationFault):
        anchor_assign(state, Batch(1, (((1,), 0),)), 1)


def test_decompose_worked_example():
    # root share from ((4,1),3) split over own ((1,0),0) and children
    # ((1,0),2), ((2,1),1) reproduces the published per-node assignment
    state = AnchorState(2)
    share, _ = anchor_assign(state, B(((4, 1), 3)), 1)
    own = B(((1, 0), 0))
    c1 = B(((1, 0), 2))
    c2 = B(((2, 1), 1))
    own_share, c1_share, c2_share = decompose(share, [own, c1, c2])
    assert own_share[0].ins == ((1, 1), None)
    assert own_share[0].dels == ()
    assert c1_share[0].ins == ((2, 2), None)
    assert c1_share[0].dels == ((1, 1, 2),)
    assert c2_share[0].ins == ((3, 4), (1, 1))
    assert c2_share[0].dels == ((1, 3, 3),)


def test_decompose_offsets_accumulate():
    state = AnchorState(2)
    share, _ = anchor_assign(state, B(((4, 1), 3)), 1)
    own_share, c1_share, c2_share = decompose(
        share, [B(((1, 0), 0)), B(((1, 0), 2)), B(((2, 1), 1))]
    )
    assert own_share[0].ins_offset == 0 and own_share[0].del_offset == 0
    assert c1_share[0].ins_offset == 1 and c1_share[0].del_offset == 0
    assert c2_share[0].ins_offset == 2 and c2_share[0].del_offset == 2


def test_decompose_leaf_identity():
    state = AnchorState(2)
    b = B(((2, 1), 1), ((0, 0), 2))
    share, _ = anchor_assign(state, b, 1)
    (only,) = decompose(share, [b])
    assert only[0].ins == share[0].ins
    assert [e.dels for e in only] == [e.dels for e in share]


def test_decompose_all_zero_subbatch_gets_empty_share():
    state = AnchorState(2)
    share, _ = anchor_assign(state, B(((2, 0), 1)), 1)
    z, full = decompose(share, [Batch(2), B(((2, 0), 1))])
    assert z[0].ins_count() == 0 and z[0].del_count() == 0
    assert full[0].ins == ((1, 2), None)


def test_decompose_bottoms_go_to_latest_parts():
    # three deletes on an empty heap: first two parts matched nothing,
    # bottoms flow in combine order
    state = AnchorState(1)
    state.first, state.last = [1], [1]  # one stored element
    share, _ = anchor_assign(state, Batch(1, (((0,), 3),)), 1)
    assert share[0].bottoms == 2
    p1, p2 = decompose(share, [Batch(1, (((0,), 2),)), Batch(1, (((0,), 1),))])
    assert p1[0].dels == ((1, 1, 1),) and p1[0].bottoms == 1
    assert p2[0].dels == () and p2[0].bottoms == 1


def test_decompose_mismatch_is_fault():
    state = AnchorState(1)
    share, _ = anchor_assign(state, Batch(1, (((2,), 0),)), 1)
    with pytest.raises(SimulationFault):
        decompose(share, [Batch(1, (((1,), 0),))])  # covers only half


@pytest.mark.parametrize(
    "stored,total,parts",
    [
        (3, 2, [1]),  # the share matches two deletes, the parts consume one
        (0, 2, [1]),  # the share has two bottoms, the parts consume one
        (0, 1, [1, 1]),  # the parts need more deletes than the share holds
    ],
)
def test_decompose_delete_cardinality_faults(stored, total, parts):
    state = AnchorState(1)
    state.first, state.last = [1], [stored]
    share, _ = anchor_assign(state, Batch(1, (((0,), total),)), 1)
    with pytest.raises(SimulationFault):
        decompose(share, [Batch(1, (((0,), d),)) for d in parts])


@st.composite
def request_lists(draw):
    kinds = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(1, 3)),
            min_size=0,
            max_size=12,
        )
    )
    return [(INSERT, p) if ins else (DELETE, None) for ins, p in kinds]


@given(request_lists(), request_lists(), request_lists())
@settings(max_examples=60, deadline=None)
def test_assign_then_decompose_conserves_counts(r1, r2, r3):
    batches = [snapshot_batch(r, 3)[0] for r in (r1, r2, r3)]
    total = combine_all(batches, 3)
    state = AnchorState(3)
    share, _ = anchor_assign(state, total, 1)
    state.check()
    parts = decompose(share, batches)
    for part_share, part_batch in zip(parts, batches):
        for j, (vec, d) in enumerate(part_batch.entries):
            assert part_share[j].ins_count() == sum(vec)
            assert part_share[j].del_count() == d
    # every assigned position is unique
    seen = set()
    for part_share in parts:
        for entry in part_share:
            for p, iv in enumerate(entry.ins):
                if iv:
                    for pos in range(iv[0], iv[1] + 1):
                        assert ("i", p, pos) not in seen
                        seen.add(("i", p, pos))
            for p, lo, hi in entry.dels:
                for pos in range(lo, hi + 1):
                    assert ("d", p, pos) not in seen
                    seen.add(("d", p, pos))


@given(request_lists())
@settings(max_examples=40, deadline=None)
def test_anchor_invariant_preserved(reqs):
    state = AnchorState(3)
    for chunk_start in range(0, len(reqs), 4):
        batch, _ = snapshot_batch(reqs[chunk_start : chunk_start + 4], 3)
        anchor_assign(state, batch, 1)
        state.check()


@given(request_lists(), request_lists(), request_lists())
@settings(max_examples=60, deadline=None)
def test_decompose_carries_bases_and_running_offsets(r1, r2, r3):
    batches = [snapshot_batch(r, 3)[0] for r in (r1, r2, r3)]
    batches.insert(1, Batch(3))
    share, _ = anchor_assign(AnchorState(3), combine_all(batches, 3), 5)
    # a subtree's share starts at nonzero offsets
    share = tuple(
        dataclasses.replace(e, ins_offset=7 + j, del_offset=11 + j)
        for j, e in enumerate(share)
    )
    parts = decompose(share, batches)
    for j, entry in enumerate(share):
        ins_off, del_off = entry.ins_offset, entry.del_offset
        for part_share, part_batch in zip(parts, batches):
            assert len(part_share) == len(share)
            got = part_share[j]
            assert (got.ins_base, got.del_base) == (entry.ins_base, entry.del_base)
            assert (got.ins_offset, got.del_offset) == (ins_off, del_off)
            if j < len(part_batch.entries):
                vec, d = part_batch.entries[j]
                ins_off += sum(vec)
                del_off += d
            else:
                assert got.ins == (None,) * 3
                assert got.dels == () and got.bottoms == 0

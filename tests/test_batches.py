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


def _expand(entry, vec, d):
    """An entry share expanded with its receiver's counts ``(vec, d)``: the
    insert interval per priority it inserts into, the delete positions in
    order and the bottoms."""
    inserted = [p for p, count in enumerate(vec, 1) if count]
    assert len(entry.ins) == len(inserted)  # one start per priority inserted into
    intervals = {p: (start, start + vec[p - 1] - 1) for p, start in zip(inserted, entry.ins)}
    deletes = [(p, pos) for p, lo, hi in entry.dels for pos in range(lo, hi + 1)]
    return intervals, deletes, d - len(deletes)


def test_anchor_assign_worked_example():
    # fresh state, batch ((4,1),3): inserts [1,4] at p1 and [1,1] at p2,
    # deletes [1,3] at p1, ending at first=(4,1), last=(4,1)
    state = AnchorState(2)
    share, counter = anchor_assign(state, B(((4, 1), 3)), 1)
    assert len(share) == 1
    entry = share[0]
    assert entry.ins == (1, 1)  # the starts; the counts give the ends
    assert entry.dels == ((1, 1, 3),)
    assert _expand(entry, (4, 1), 3) == ({1: (1, 4), 2: (1, 1)}, [(1, 1), (1, 2), (1, 3)], 0)
    assert state.first == [4, 1]
    assert state.last == [4, 1]
    assert counter == 1 + 5 + 3
    assert entry.ins_first == 1 and entry.del_first == 6


def test_anchor_assign_multi_priority_delete():
    # occupied p1 [3,4] and p2 [1,2]; delete 3 drains p1 fully then one from p2
    state = AnchorState(2)
    state.first = [3, 1]
    state.last = [4, 2]
    share, _ = anchor_assign(state, B(((0, 0), 3)), 1)
    assert share[0].ins == ()
    assert share[0].dels == ((1, 3, 4), (2, 1, 1))
    assert _expand(share[0], (0, 0), 3)[2] == 0  # no bottoms
    assert state.first == [5, 2]
    assert state.last == [4, 2]


def test_anchor_assign_empty_heap_bottoms():
    state = AnchorState(2)
    share, _ = anchor_assign(state, B(((0, 0), 2)), 1)
    assert share[0].dels == ()
    assert _expand(share[0], (0, 0), 2)[2] == 2


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
    assert own_share[0].ins == (1,)
    assert own_share[0].dels == ()
    assert c1_share[0].ins == (2,)
    assert c1_share[0].dels == ((1, 1, 2),)
    assert c2_share[0].ins == (3, 1)
    assert c2_share[0].dels == ((1, 3, 3),)
    assert _expand(c2_share[0], (2, 1), 1)[0] == {1: (3, 4), 2: (1, 1)}


def test_decompose_offsets_accumulate():
    # the entry's inserts are serialized from 1 and its deletes from 6; each
    # part starts after the inserts and deletes of the parts before it
    state = AnchorState(2)
    share, _ = anchor_assign(state, B(((4, 1), 3)), 1)
    own_share, c1_share, c2_share = decompose(
        share, [B(((1, 0), 0)), B(((1, 0), 2)), B(((2, 1), 1))]
    )
    assert own_share[0].ins_first == 1 and own_share[0].del_first == 6
    assert c1_share[0].ins_first == 2 and c1_share[0].del_first == 6
    assert c2_share[0].ins_first == 3 and c2_share[0].del_first == 8


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
    assert z == ()
    assert full[0].ins == (1,)


def test_decompose_bottoms_go_to_latest_parts():
    # three deletes on an empty heap: first two parts matched nothing,
    # bottoms flow in combine order
    state = AnchorState(1)
    state.first, state.last = [1], [1]  # one stored element
    share, _ = anchor_assign(state, Batch(1, (((0,), 3),)), 1)
    assert _expand(share[0], (0,), 3)[2] == 2
    p1, p2 = decompose(share, [Batch(1, (((0,), 2),)), Batch(1, (((0,), 1),))])
    assert p1[0].dels == ((1, 1, 1),) and _expand(p1[0], (0,), 2)[2] == 1
    assert p2[0].dels == () and _expand(p2[0], (0,), 1)[2] == 1


def test_decompose_mismatch_is_fault():
    # the share starts priorities 1 and 2; the parts insert into 2 alone
    share, _ = anchor_assign(AnchorState(2), B(((2, 1), 0)), 1)
    with pytest.raises(SimulationFault, match="insert starts do not match"):
        decompose(share, [B(((0, 1), 0))])
    # the share starts priority 1; the parts insert into 1 and 2
    share, _ = anchor_assign(AnchorState(2), B(((2, 0), 0)), 1)
    with pytest.raises(SimulationFault, match="insert starts do not match"):
        decompose(share, [B(((1, 0), 0)), B(((1, 1), 0))])
    # the share's second entry has no starts and no runs (its delete finds
    # the heap empty), but no part has a second entry to take it
    share, _ = anchor_assign(AnchorState(2), B(((1, 0), 1), ((0, 0), 1)), 1)
    assert share[1].ins == () and share[1].dels == ()
    with pytest.raises(SimulationFault, match="share length does not match"):
        decompose(share, [B(((1, 0), 1))])


@pytest.mark.parametrize(
    "stored,total,parts",
    [
        (3, 2, [1]),  # the share matches two deletes, the parts consume one
        (2, 2, [1, 0]),  # a part with no deletes takes none of the runs
        (3, 3, [1, 1]),  # the runs outlast the last part
    ],
)
def test_decompose_delete_cardinality_faults(stored, total, parts):
    # the parts' derived bottoms would be negative
    state = AnchorState(1)
    state.first, state.last = [1], [stored]
    share, _ = anchor_assign(state, Batch(1, (((0,), total),)), 1)
    with pytest.raises(SimulationFault, match="delete runs exceed the parts' deletes"):
        decompose(share, [Batch(1, (((0,), d),)) for d in parts])


def test_decompose_derives_bottoms_from_the_parts_counts():
    # the share carries no bottom count: deletes past the runs are bottoms,
    # however many the parts have
    share, _ = anchor_assign(AnchorState(1), Batch(1, (((0,), 2),)), 1)
    for parts in ([1], [1, 1], [3]):
        split = decompose(share, [Batch(1, (((0,), d),)) for d in parts])
        assert [_expand(s[0], (0,), d) for s, d in zip(split, parts)] == [
            ({}, [], d) for d in parts
        ]


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
    # every assigned position is unique
    seen = set()
    for part_share, part_batch in zip(parts, batches):
        for entry, (vec, d) in zip(part_share, part_batch.entries, strict=True):
            intervals, deletes, bottoms = _expand(entry, vec, d)
            assert bottoms >= 0
            for p, (lo, hi) in intervals.items():
                for pos in range(lo, hi + 1):
                    assert ("i", p, pos) not in seen
                    seen.add(("i", p, pos))
            for p, pos in deletes:
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
    # a subtree's share starts after the requests of other subtrees
    share = tuple(
        dataclasses.replace(e, ins_first=e.ins_first + 7 + j, del_first=e.del_first + 11 + j)
        for j, e in enumerate(share)
    )
    parts = decompose(share, batches)
    for part_share, part_batch in zip(parts, batches):
        assert len(part_share) == len(part_batch.entries)  # no share past its batch
    for j, entry in enumerate(share):
        ins_next, del_next = entry.ins_first, entry.del_first
        for part_share, part_batch in zip(parts, batches):
            if j < len(part_batch.entries):
                got = part_share[j]
                assert (got.ins_first, got.del_first) == (ins_next, del_next)
                vec, d = part_batch.entries[j]
                ins_next += sum(vec)
                del_next += d


@st.composite
def batch_trees(draw, depth=2):
    """A tree node's own batch and its children's subtrees; any batch may
    be empty or end in all-zero entries."""
    own = draw(batches_with_zeros(priorities=3))
    children = draw(st.lists(batch_trees(depth - 1), max_size=3)) if depth else []
    return own, children


def _combined(tree):
    own, children = tree
    return combine_all([own] + [_combined(child) for child in children], 3)


def _check_split(tree, share):
    """Decompose ``share`` at the root of ``tree``, check every part's share
    against the root's, and recurse into the children."""
    own, children = tree
    parts = [own] + [_combined(child) for child in children]
    split = decompose(share, parts)
    for j, (entry, (vec, d)) in enumerate(zip(share, combine_all(parts, 3).entries, strict=True)):
        intervals, deletes, bottoms = _expand(entry, vec, d)
        assert bottoms >= 0
        positions = {p: [] for p in intervals}
        part_deletes, part_bottoms = [], 0
        ins_next, del_next = entry.ins_first, entry.del_first
        for part, part_share in zip(parts, split):
            if j >= len(part.entries):
                assert len(part_share) == len(part.entries)
                continue
            part_vec, part_d = part.entries[j]
            got = part_share[j]
            part_intervals, part_dels, part_bots = _expand(got, part_vec, part_d)
            for p, (lo, hi) in part_intervals.items():
                positions[p] += range(lo, hi + 1)
            # each part's deletes are answered: matched positions plus bottoms
            assert part_bots >= 0 and len(part_dels) + part_bots == part_d
            part_deletes += part_dels
            part_bottoms += part_bots
            # the serial starts follow the parts before this one
            assert (got.ins_first, got.del_first) == (ins_next, del_next)
            ins_next += sum(part_vec)
            del_next += part_d
        # the parts' intervals tile the root's, in combine order, without overlap
        assert positions == {p: list(range(lo, hi + 1)) for p, (lo, hi) in intervals.items()}
        assert (part_deletes, part_bottoms) == (deletes, bottoms)
    for child, child_share in zip(children, split[1:]):
        _check_split(child, child_share)


@given(batch_trees(), st.integers(0, 6), st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_decompose_down_a_batch_tree_tiles_the_anchors_positions(tree, stored, serial_base):
    state = AnchorState(3)
    state.first, state.last = [1, 4, 2], [stored, 3, 2 + stored // 2]  # some stored elements
    share, _ = anchor_assign(state, _combined(tree), serial_base)
    _check_split(tree, share)

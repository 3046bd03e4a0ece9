"""Batch algebra for the constant-priority heap protocol.

A batch compresses a node's buffered heap requests, in issue order, into
alternating entries: a per-priority insert-count vector followed by a
delete count.  Consecutive requests of the same kind share an entry.
Batches combine by entrywise addition (shorter batches are padded with
zeros), which is what flows up the aggregation tree.  The empty batch
is the identity of that addition, and ``combine_all`` skips it: most
nodes buffer nothing in a given epoch.

The anchor turns a combined batch into position intervals per entry:
inserts extend the occupied interval of their priority at the top,
deletes consume from the bottom of the most-prioritized non-empty
interval, spilling into the next priority until satisfied or the heap is
empty; the deletes left unmatched are bottoms (they return nothing).
Shares are decomposed back down the tree in the exact order the batches
were combined: own contribution first, then children ascending by label.
Alongside the positions each share carries the global serialization
index of this subtree's first insert and first delete of the entry, so
every request can compute a unique serialization index locally.  A part
gets a share only for the entries its own batch has, so its share is
exactly as long as its batch.

A share carries only what its receiver cannot derive.  The receiver
still holds the batch it combined on the way up, so for entry j it knows
the counts ``vec`` and ``d``; from them it derives the rest:

* an insert interval's end: the interval of priority p starts at its
  start and holds ``vec[p]`` positions, so it ends at
  ``start + vec[p] - 1``.  The share carries one start per priority the
  subtree inserts into, in priority order, and nothing for a priority
  with a zero count: the receiver knows which counts are zero;
* the bottoms: the delete runs come first and the bottoms last, so there
  are ``d`` minus the runs' lengths of them.

What the counts cannot give stays: the starts, the delete runs
``(priority, lo, hi)`` and the two serial starts.  ``decompose`` checks
what the dropped values used to check: the starts must match the
priorities the parts insert into, and the runs may not exceed the parts'
deletes (which would make their bottoms negative).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add
from typing import Iterable, Sequence

from .sim import SimulationFault, nat_bits

INSERT = "insert"
DELETE = "deletemin"


@dataclass(frozen=True, slots=True)
class Batch:
    """Alternating (insert-vector, delete-count) entries; all vectors share
    one priority count."""

    priorities: int
    entries: tuple[tuple[tuple[int, ...], int], ...] = ()

    def bits(self) -> int:
        # ``nat_bits`` inlined; a negative count still faults there
        entries = self.entries
        k = len(entries)
        total = (2 if 2 > k else k).bit_length()
        for vec, d in entries:
            for x in vec:
                total += (2 if 2 > x else x).bit_length() if x >= 0 else nat_bits(x)
            total += (2 if 2 > d else d).bit_length() if d >= 0 else nat_bits(d)
        return total


def snapshot_batch(
    requests: Sequence[tuple[str, int | None]], priorities: int
) -> tuple[Batch, list[tuple[list[int], list[int]]]]:
    """Compress ``requests`` (kind, priority) into a batch.

    Returns the batch plus, per entry, the request indices covered by its
    insert run and its delete run, in issue order.
    """
    entries: list[tuple[tuple[int, ...], int]] = []
    runs: list[tuple[list[int], list[int]]] = []
    vec = [0] * priorities
    ins_idx: list[int] = []
    del_idx: list[int] = []
    in_deletes = False
    for i, (kind, prio) in enumerate(requests):
        if kind == INSERT:
            if in_deletes:
                entries.append((tuple(vec), len(del_idx)))
                runs.append((ins_idx, del_idx))
                vec = [0] * priorities
                ins_idx, del_idx = [], []
                in_deletes = False
            if not 1 <= prio <= priorities:
                raise SimulationFault(f"priority {prio} outside universe")
            vec[prio - 1] += 1
            ins_idx.append(i)
        elif kind == DELETE:
            in_deletes = True
            del_idx.append(i)
        else:
            raise SimulationFault(f"unknown request kind {kind!r}")
    if ins_idx or del_idx:
        entries.append((tuple(vec), len(del_idx)))
        runs.append((ins_idx, del_idx))
    return Batch(priorities, tuple(entries)), runs


def combine(b1: Batch, b2: Batch) -> Batch:
    """Entrywise sum; the shorter batch is padded with zero entries."""
    if b1.priorities != b2.priorities:
        raise SimulationFault("cannot combine batches over different priority sets")
    p = b1.priorities
    zero = (tuple([0] * p), 0)
    k = max(len(b1.entries), len(b2.entries))
    e1 = list(b1.entries) + [zero] * (k - len(b1.entries))
    e2 = list(b2.entries) + [zero] * (k - len(b2.entries))
    merged = tuple(
        (tuple(a + b for a, b in zip(v1, v2)), d1 + d2)
        for (v1, d1), (v2, d2) in zip(e1, e2)
    )
    return Batch(p, merged)


def combine_all(batches: Iterable[Batch], priorities: int) -> Batch:
    """Fold ``batches`` with ``combine``, in order.

    The empty batch is ``combine``'s identity, so parts without entries are
    skipped (after their priority count is checked); a single non-empty
    part comes back unchanged.
    """
    nonempty: list[Batch] = []
    for b in batches:
        if b.priorities != priorities:
            raise SimulationFault("cannot combine batches over different priority sets")
        if b.entries:
            nonempty.append(b)
    if not nonempty:
        return Batch(priorities)
    out = nonempty[0]
    for b in nonempty[1:]:
        out = combine(out, b)
    return out


class AnchorState:
    """Occupied position intervals [first_p, last_p] per priority."""

    def __init__(self, priorities: int):
        self.priorities = priorities
        self.first = [1] * priorities
        self.last = [0] * priorities

    def check(self) -> None:
        for p in range(self.priorities):
            if self.first[p] > self.last[p] + 1:
                raise SimulationFault(
                    f"anchor invariant broken at priority {p + 1}: "
                    f"first={self.first[p]} last={self.last[p]}"
                )


@dataclass(slots=True)
class EntryShare:
    """One batch entry's share of positions for some subtree; the counts
    of the subtree's entry give the rest (see the module docstring)."""

    ins: tuple[int, ...]  # the first position of each priority inserted into, in order
    dels: tuple[tuple[int, int, int], ...]  # ordered (priority, lo, hi)
    ins_first: int  # global serialization index of this subtree's first insert
    del_first: int  # global serialization index of this subtree's first delete

    def bits(self) -> int:
        # a natural per start, three per delete run and the two serial
        # starts; ``nat_bits`` inlined, a negative value still faults there
        total = 0
        for x in self.ins:
            total += (2 if 2 > x else x).bit_length() if x >= 0 else nat_bits(x)
        for run in self.dels:
            for x in run:
                total += (2 if 2 > x else x).bit_length() if x >= 0 else nat_bits(x)
        for x in (self.ins_first, self.del_first):
            total += (2 if 2 > x else x).bit_length() if x >= 0 else nat_bits(x)
        return total


Share = tuple  # tuple[EntryShare, ...]


def anchor_assign(state: AnchorState, batch: Batch, serial_base: int) -> tuple[Share, int]:
    """Assign positions to every entry of a combined batch.

    Entries are processed left to right.  Returns the root share and the
    serialization counter after this batch.
    """
    state.check()
    shares: list[EntryShare] = []
    counter = serial_base
    last = state.last
    for vec, d in batch.entries:
        starts: list[int] = []
        for p, count in enumerate(vec):
            if count:
                starts.append(last[p] + 1)
                last[p] += count
        dels: list[tuple[int, int, int]] = []
        rem = d  # what no run matches is the entry's bottoms, which the share omits
        for p in range(state.priorities):  # most-prioritized first
            if rem == 0:
                break
            avail = last[p] - state.first[p] + 1
            take = min(rem, avail)
            if take > 0:
                dels.append((p + 1, state.first[p], state.first[p] + take - 1))
                state.first[p] += take
                rem -= take
        del_first = counter + sum(vec)
        shares.append(EntryShare(tuple(starts), tuple(dels), counter, del_first))
        counter = del_first + d
        state.check()
    return tuple(shares), counter


def decompose(share: Share, parts: Sequence[Batch]) -> list[Share]:
    """Split a share among sub-batches, consuming positions in combine order.

    ``parts`` must be the exact batches combined at this tree node, own
    batch first, then children ascending by label; the share must be as
    long as their combined batch.  Each part's share has one entry per
    entry of its batch, and its serial starts follow the inserts and
    deletes of the parts before it.  The starts advance part by part, by
    each part's counts of the priorities the subtree inserts into, and a
    part gets a start only where its count is not zero.
    """
    length = 0  # of the parts' combined batch
    for part in parts:
        if len(part.entries) > length:
            length = len(part.entries)
    if len(share) != length:
        raise SimulationFault("share length does not match the parts' combined batch")
    out: list[list[EntryShare]] = [[] for _ in parts]
    for j, entry_share in enumerate(share):
        # the priorities that some part with an entry j inserts into
        inserted = tuple(
            map(any, zip(*[part.entries[j][0] for part in parts if j < len(part.entries)]))
        )
        cursor = entry_share.ins  # the next start of each of them, in priority order
        if sum(inserted) != len(cursor):
            raise SimulationFault("insert starts do not match the priorities the parts insert into")
        del_stream = entry_share.dels
        del_stream_pos = 0  # index into del_stream
        del_inner = 0  # positions consumed within del_stream[del_stream_pos]
        ins_off = entry_share.ins_first  # the serial index of the next part's first insert
        del_off = entry_share.del_first
        for shares, part in zip(out, parts):
            if j >= len(part.entries):  # no receiver reads a share past its batch
                continue
            vec, d = part.entries[j]
            counts = tuple(compress(vec, inserted))  # this part's counts of those priorities
            part_starts = tuple(compress(cursor, counts))  # a start where its count is not zero
            cursor = tuple(map(add, cursor, counts))
            part_dels: list[tuple[int, int, int]] = []
            need = d  # what the runs leave unmatched is this part's bottoms
            while need > 0 and del_stream_pos < len(del_stream):
                prio, lo, hi = del_stream[del_stream_pos]
                start = lo + del_inner
                take = min(need, hi - start + 1)
                part_dels.append((prio, start, start + take - 1))
                need -= take
                del_inner += take
                if start + take - 1 == hi:
                    del_stream_pos += 1
                    del_inner = 0
            shares.append(EntryShare(part_starts, tuple(part_dels), ins_off, del_off))
            ins_off += sum(vec)
            del_off += d
        if del_stream_pos < len(del_stream):  # the parts' bottoms would be negative
            raise SimulationFault("delete runs exceed the parts' deletes")
    return list(map(tuple, out))

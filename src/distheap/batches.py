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
empty; the unmatched remainder is a bottom count (those deletes return
nothing).  Shares are decomposed back down the tree in the exact order
the batches were combined: own contribution first, then children
ascending by label.  Alongside the intervals each share carries the
entry's global serialization bases and this subtree's offsets, so every
request can compute a unique serialization index locally.  A part with
no entry j, or no inserts in it, gets an all-``None`` insert share
without a walk over the priorities.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .sim import SimulationFault, interval_bits, nat_bits

INSERT = "insert"
DELETE = "deletemin"


@dataclass(frozen=True, slots=True)
class Batch:
    """Alternating (insert-vector, delete-count) entries; all vectors share
    one priority count."""

    priorities: int
    entries: tuple[tuple[tuple[int, ...], int], ...] = ()

    def bits(self) -> int:
        total = nat_bits(len(self.entries))
        for vec, d in self.entries:
            total += sum(nat_bits(x) for x in vec) + nat_bits(d)
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
    """One batch entry's share of positions for some subtree."""

    ins: tuple[tuple[int, int] | None, ...]  # interval per priority, or None
    dels: tuple[tuple[int, int, int], ...]  # ordered (priority, lo, hi)
    bottoms: int
    ins_base: int  # global serialization index of the entry's first insert
    del_base: int  # global serialization index of the entry's first delete
    ins_offset: int  # inserts of this entry serialized before this subtree
    del_offset: int

    def ins_count(self) -> int:
        return sum(iv[1] - iv[0] + 1 for iv in self.ins if iv is not None)

    def del_count(self) -> int:
        return sum(hi - lo + 1 for _, lo, hi in self.dels) + self.bottoms

    def bits(self) -> int:
        total = nat_bits(self.bottoms) + nat_bits(self.ins_base) + nat_bits(self.del_base)
        total += nat_bits(self.ins_offset) + nat_bits(self.del_offset)
        for iv in self.ins:
            total += interval_bits(*iv) if iv else 1
        for prio, lo, hi in self.dels:
            total += nat_bits(prio) + interval_bits(lo, hi)
        return total


Share = tuple  # tuple[EntryShare, ...]


def anchor_assign(state: AnchorState, batch: Batch, serial_base: int) -> tuple[Share, int]:
    """Assign position intervals to every entry of a combined batch.

    Entries are processed left to right.  Returns the root share and the
    serialization counter after this batch.
    """
    state.check()
    shares: list[EntryShare] = []
    counter = serial_base
    for vec, d in batch.entries:
        ins: list[tuple[int, int] | None] = []
        for p, count in enumerate(vec):
            if count == 0:
                ins.append(None)
            else:
                lo = state.last[p] + 1
                hi = state.last[p] + count
                state.last[p] = hi
                ins.append((lo, hi))
        dels: list[tuple[int, int, int]] = []
        rem = d
        for p in range(state.priorities):  # most-prioritized first
            if rem == 0:
                break
            avail = state.last[p] - state.first[p] + 1
            take = min(rem, avail)
            if take > 0:
                dels.append((p + 1, state.first[p], state.first[p] + take - 1))
                state.first[p] += take
                rem -= take
        ins_base = counter
        del_base = counter + sum(vec)
        counter = del_base + d
        shares.append(
            EntryShare(
                ins=tuple(ins),
                dels=tuple(dels),
                bottoms=rem,
                ins_base=ins_base,
                del_base=del_base,
                ins_offset=0,
                del_offset=0,
            )
        )
        state.check()
    return tuple(shares), counter


def decompose(share: Share, parts: Sequence[Batch]) -> list[Share]:
    """Split a share among sub-batches, consuming positions in combine order.

    ``parts`` must be the exact batches combined at this tree node, own
    batch first, then children ascending by label.
    """
    priorities = parts[0].priorities if parts else 0
    no_ins: tuple[None, ...] = (None,) * priorities
    out: list[list[EntryShare]] = [[] for _ in parts]
    for j, entry_share in enumerate(share):
        share_ins = entry_share.ins
        ins_cursor: list[int] = [iv[0] if iv else 0 for iv in share_ins]
        del_stream = entry_share.dels
        del_stream_pos = 0  # index into del_stream
        del_inner = 0  # positions consumed within del_stream[del_stream_pos]
        bottoms_left = entry_share.bottoms
        ins_base = entry_share.ins_base
        del_base = entry_share.del_base
        ins_off = entry_share.ins_offset
        del_off = entry_share.del_offset
        for part_i, part in enumerate(parts):
            if j >= len(part.entries):
                out[part_i].append(
                    EntryShare(no_ins, (), 0, ins_base, del_base, ins_off, del_off)
                )
                continue
            vec, d = part.entries[j]
            n_ins = sum(vec)
            if n_ins:
                part_ins: list[tuple[int, int] | None] = []
                for p, count in enumerate(vec):
                    if count == 0:
                        part_ins.append(None)
                        continue
                    iv = share_ins[p]
                    if iv is None or ins_cursor[p] + count - 1 > iv[1]:
                        raise SimulationFault("insert share does not cover sub-batch")
                    part_ins.append((ins_cursor[p], ins_cursor[p] + count - 1))
                    ins_cursor[p] += count
                ins_tuple: tuple[tuple[int, int] | None, ...] = tuple(part_ins)
            else:
                ins_tuple = no_ins
            part_dels: list[tuple[int, int, int]] = []
            need = d
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
            part_bottoms = 0
            if need > 0:
                if need > bottoms_left:
                    raise SimulationFault("delete share does not cover sub-batch")
                part_bottoms = need
                bottoms_left -= need
            out[part_i].append(
                EntryShare(
                    ins=ins_tuple,
                    dels=tuple(part_dels),
                    bottoms=part_bottoms,
                    ins_base=ins_base,
                    del_base=del_base,
                    ins_offset=ins_off,
                    del_offset=del_off,
                )
            )
            ins_off += n_ins
            del_off += d
        if (
            del_stream_pos != len(del_stream)
            or bottoms_left != 0
            or ins_cursor != [iv[1] + 1 if iv else 0 for iv in share_ins]
        ):
            raise SimulationFault("share cardinality does not match combined batch")
    return [tuple(entries) for entries in out]

"""History recording and verification of heap semantics.

The records are the issued requests themselves: ``workload.RequestSource``
issues each heap request as an ``OperationRecord``, stamps it with the
``epoch`` whose snapshot takes it, and the protocol fills in its outcome.
The checkers read nothing else.  They consume the protocol's own
serialization order (records sorted by ``serial_index``) and the matching
induced by returned elements:

* ``check_serializable`` replays the order against a serial priority
  queue.  A matched delete must return an element that is present and of
  minimal priority at its point in the order; an unmatched delete must
  hit an empty heap.  Elements of equal priority are interchangeable in
  a serial execution, so any minimal-priority return is accepted; the
  n elements' tiebreakers only break ties for rank-based protocols.
* ``check_local_consistency`` additionally requires every node's own
  requests to appear in issue order.
* ``check_heap_consistency`` verifies the three matching properties:
  matched inserts precede their deletes; no unmatched delete sits
  between a matched pair; no unmatched insert of strictly smaller
  priority precedes a matched delete.
* ``check_phase_optimality`` replays Seap's epochs from the records'
  ``epoch`` stamps: each delete phase must return exactly the k* = min(k, m)
  smallest stored elements and k - k* bottoms, and the anchor's reported
  (k, k*) rows must agree with the replay.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Sequence

from .batches import DELETE, INSERT
from .sim import ELEMENT_KEY, Element

BOTTOM = "bottom"


@dataclass(slots=True)
class OperationRecord:
    node: int
    seq: int
    kind: str
    element: Element | None = None  # the inserted element, for inserts
    assigned: Any = None  # (p, pos), pos, or BOTTOM
    serial_index: int = -1
    returned: Element | str | None = None  # element, BOTTOM, or None for inserts
    epoch: int = -1  # the epoch whose snapshot took the request

    def to_json(self) -> dict:
        def elem(e: Element | None) -> Any:
            if e is None:
                return None
            return {"priority": e.priority, "origin": e.origin, "origin_seq": e.seq}

        returned: Any
        if isinstance(self.returned, Element):
            returned = elem(self.returned)
        else:
            returned = self.returned
        return {
            "node": self.node,
            "seq": self.seq,
            "kind": self.kind,
            "priority": self.element.priority if self.element else None,
            "assigned": list(self.assigned)
            if isinstance(self.assigned, tuple)
            else self.assigned,
            "serial_index": self.serial_index,
            "returned": returned,
        }


@dataclass(slots=True)
class Verdict:
    serializable: bool
    locally_consistent: bool
    heap_consistent: bool
    violation: str | None = None

    def ok(self, require_local: bool) -> bool:
        base = self.serializable and self.heap_consistent
        return base and (self.locally_consistent or not require_local)

    def to_json(self) -> dict:
        return {
            "serializable": self.serializable,
            "locally_consistent": self.locally_consistent,
            "heap_consistent": self.heap_consistent,
            "violation": self.violation,
        }


# -- matchings ---------------------------------------------------------------


def build_matching(history: Sequence[OperationRecord]) -> dict[tuple[int, int], OperationRecord]:
    """Map insert element identity -> the delete record that returned it."""
    matching: dict[tuple[int, int], OperationRecord] = {}
    inserts = {rec.element.ident for rec in history if rec.kind == INSERT}
    for rec in history:
        if rec.kind == DELETE and isinstance(rec.returned, Element):
            ident = rec.returned.ident
            if ident not in inserts:
                raise ValueError(f"delete returned unknown element {ident}")
            if ident in matching:
                raise ValueError(f"element {ident} returned twice")
            matching[ident] = rec
    return matching


def ordered(history: Sequence[OperationRecord]) -> list[OperationRecord]:
    out = sorted(history, key=lambda r: r.serial_index)
    if len({r.serial_index for r in out}) != len(out):
        raise ValueError("serial indices are not unique")
    return out


# -- the three checkers --------------------------------------------------------


def check_serializable(history: Sequence[OperationRecord]) -> tuple[bool, str | None]:
    """Replay the protocol's order; equivalence to a serial heap execution."""
    try:
        build_matching(history)
        order = ordered(history)
    except ValueError as exc:
        return False, str(exc)
    available: dict[tuple[int, int], Element] = {}
    prio_counts: dict[int, int] = {}
    for rec in order:
        if rec.kind == INSERT:
            available[rec.element.ident] = rec.element
            prio_counts[rec.element.priority] = prio_counts.get(rec.element.priority, 0) + 1
        else:
            if rec.returned == BOTTOM:
                if available:
                    return False, (
                        f"empty return at serial {rec.serial_index} with "
                        f"{len(available)} elements available"
                    )
            elif isinstance(rec.returned, Element):
                got = available.pop(rec.returned.ident, None)
                if got is None:
                    return False, (
                        f"delete at serial {rec.serial_index} returned an element "
                        "that is not available"
                    )
                prio_counts[got.priority] -= 1
                if not prio_counts[got.priority]:
                    del prio_counts[got.priority]
                if available and min(prio_counts) < got.priority:
                    return False, (
                        f"delete at serial {rec.serial_index} returned priority "
                        f"{got.priority} while priority {min(prio_counts)} was available"
                    )
            else:
                return False, f"delete at serial {rec.serial_index} has no outcome"
    return True, None


def check_local_consistency(history: Sequence[OperationRecord]) -> tuple[bool, str | None]:
    try:
        order = ordered(history)
    except ValueError as exc:
        return False, str(exc)
    last_seq: dict[int, int] = {}
    last_serial: dict[int, int] = {}
    for rec in order:
        prev = last_seq.get(rec.node)
        if prev is not None and rec.seq <= prev:
            return False, (
                f"node {rec.node}: seq {rec.seq} serialized after seq {prev} "
                f"(serial {last_serial[rec.node]} < {rec.serial_index})"
            )
        last_seq[rec.node] = rec.seq
        last_serial[rec.node] = rec.serial_index
    return True, None


def check_heap_consistency(history: Sequence[OperationRecord]) -> tuple[bool, str | None]:
    try:
        matching = build_matching(history)
        order = ordered(history)
    except ValueError as exc:
        return False, str(exc)
    position = {id(rec): i for i, rec in enumerate(order)}
    insert_pos: dict[tuple[int, int], int] = {}
    for i, rec in enumerate(order):
        if rec.kind == INSERT:
            insert_pos[rec.element.ident] = i
    pairs: list[tuple[int, int, int]] = []  # (insert pos, delete pos, priority)
    for ident, del_rec in matching.items():
        ins_i = insert_pos[ident]
        del_i = position[id(del_rec)]
        if ins_i >= del_i:
            return False, (
                f"matched insert {ident} serialized at {ins_i} after its delete at {del_i}"
            )
        pairs.append((ins_i, del_i, del_rec.returned.priority))
    # property 2: no unmatched delete strictly inside a matched pair's span
    bottom_positions = sorted(
        i for i, rec in enumerate(order) if rec.kind == DELETE and rec.returned == BOTTOM
    )
    for ins_i, del_i, _ in pairs:
        j = bisect_left(bottom_positions, ins_i + 1)
        if j < len(bottom_positions) and bottom_positions[j] < del_i:
            return False, (
                f"unmatched delete at order position {bottom_positions[j]} lies "
                f"between matched pair ({ins_i}, {del_i})"
            )
    # property 3: no unmatched insert of smaller priority before a matched delete
    unmatched_ins = sorted(
        (insert_pos[rec.element.ident], rec.element.priority)
        for rec in order
        if rec.kind == INSERT and rec.element.ident not in matching
    )
    best_prio: list[int] = []  # prefix minima of unmatched insert priorities
    cur = None
    for _, prio in unmatched_ins:
        cur = prio if cur is None else min(cur, prio)
        best_prio.append(cur)
    starts = [pos for pos, _ in unmatched_ins]
    for ins_i, del_i, prio in sorted(pairs, key=lambda t: t[1]):
        j = bisect_left(starts, del_i)
        if j and best_prio[j - 1] < prio:
            return False, (
                f"unmatched insert with priority {best_prio[j - 1]} precedes matched "
                f"delete at {del_i} returning priority {prio}"
            )
    return True, None


def make_verdict(history: Sequence[OperationRecord]) -> Verdict:
    ser, v1 = check_serializable(history)
    loc, v2 = check_local_consistency(history)
    heap, v3 = check_heap_consistency(history)
    violation = v1 or (v3 if not heap else None)
    if violation is None and not loc:
        violation = v2
    return Verdict(ser, loc, heap, violation)


def check_phase_optimality(
    records: Sequence[OperationRecord], reported: Sequence[dict]
) -> tuple[bool, str | None]:
    """Replay the epochs of a phased heap from the records alone.

    Epoch e sees the m elements inserted up to and in e and not returned
    before it; with k deletes and k* = min(k, m), they must return exactly
    the k* smallest of those elements and k - k* bottoms.  Its
    ``reported`` row must give the same k and k*; an epoch without a row
    must have k = 0.
    """
    log = {row["epoch"]: (row["k"], row["k_star"]) for row in reported}
    phases: dict[int, list[OperationRecord]] = {epoch: [] for epoch in log}
    for rec in records:
        phases.setdefault(rec.epoch, []).append(rec)
    store: set[Element] = set()
    for epoch in sorted(phases):
        store.update(r.element for r in phases[epoch] if r.kind == INSERT)
        deletes = [r.returned for r in phases[epoch] if r.kind == DELETE]
        returned = sorted((e for e in deletes if isinstance(e, Element)), key=ELEMENT_KEY)
        k_star = min(len(deletes), len(store))
        if log.get(epoch, (0, 0)) != (len(deletes), k_star):
            return False, (
                f"epoch {epoch}: reported (k, k*) = {log.get(epoch)}, "
                f"replay gives ({len(deletes)}, {k_star})"
            )
        if returned != sorted(store, key=ELEMENT_KEY)[:k_star]:
            return False, f"epoch {epoch}: returned set is not the k* smallest"
        store.difference_update(returned)
    return True, None

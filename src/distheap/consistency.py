"""History recording and verification of heap semantics.

A completed run yields one record per heap request.  The checkers
consume the protocol's own serialization order (records sorted by
``serial_index``) and the matching induced by returned elements:

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

``sequential_oracle`` is the reference executor (a deterministic heap
ordered by priority then tiebreaker) used to generate known-good
histories and expected outcomes.  ``brute_force_order`` exhaustively
searches small histories for a satisfying order, validating the
checkers themselves.
"""
from __future__ import annotations

import heapq
import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .batches import DELETE, INSERT
from .sim import Element

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


def record_from_json(row: dict) -> OperationRecord:
    element = None
    if row["kind"] == INSERT:
        element = Element(row["priority"], row["node"], row["seq"])
    returned = row["returned"]
    if isinstance(returned, dict):
        returned = Element(returned["priority"], returned["origin"], returned["origin_seq"])
    assigned = row["assigned"]
    if isinstance(assigned, list):
        assigned = tuple(assigned)
    return OperationRecord(
        node=row["node"],
        seq=row["seq"],
        kind=row["kind"],
        element=element,
        assigned=assigned,
        serial_index=row["serial_index"],
        returned=returned,
    )


def write_records(path, records: Iterable[OperationRecord]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")


def read_records(path) -> list[OperationRecord]:
    with open(path) as fh:
        return [record_from_json(json.loads(line)) for line in fh if line.strip()]


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


# -- reference executor ------------------------------------------------------


def sequential_oracle(
    ops: Sequence[tuple[str, Element | None]]
) -> tuple[list[Element | str | None], set[tuple[tuple[int, int], int]]]:
    """Replay ops against a serial heap ordered by (priority, tiebreaker).

    Returns per-op results (None for inserts, an element or BOTTOM for
    deletes) and the induced matching as (insert element identity, delete
    op index) pairs.
    """
    heap: list[tuple[tuple[int, int, int], Element]] = []
    results: list[Element | str | None] = []
    matching: set[tuple[tuple[int, int], int]] = set()
    for i, (kind, element) in enumerate(ops):
        if kind == INSERT:
            assert element is not None
            heapq.heappush(heap, (element.key, element))
            results.append(None)
        else:
            if heap:
                _, smallest = heapq.heappop(heap)
                results.append(smallest)
                matching.add((smallest.ident, i))
            else:
                results.append(BOTTOM)
    return results, matching


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


# -- exhaustive witness search ---------------------------------------------------


def brute_force_order(history: Sequence[OperationRecord]) -> list[OperationRecord] | None:
    """Search all orders (pruned) for one under which every check passes.

    Only feasible for histories of at most ~10 records; used to validate
    the checkers and to certify serializability without a protocol order.
    """
    if len(history) > 10:
        raise ValueError("brute force is limited to 10 records")
    try:
        build_matching(history)
    except ValueError:
        return None
    records = list(history)

    def replay_ok(prefix: list[OperationRecord]) -> bool:
        available: dict[tuple[int, int], int] = {}
        for rec in prefix:
            if rec.kind == INSERT:
                available[rec.element.ident] = rec.element.priority
            elif rec.returned == BOTTOM:
                if available:
                    return False
            else:
                ident = rec.returned.ident
                if ident not in available:
                    return False
                prio = available.pop(ident)
                if available and min(available.values()) < prio:
                    return False
        return True

    found: list[OperationRecord] | None = None

    def search(prefix: list[OperationRecord], rest: list[OperationRecord]) -> bool:
        nonlocal found
        if not rest:
            found = list(prefix)
            return True
        seen: set[tuple] = set()
        for i, rec in enumerate(rest):
            sig = (rec.kind, rec.element.key if rec.element else None, rec.returned)
            if sig in seen:
                continue
            seen.add(sig)
            prefix.append(rec)
            if replay_ok(prefix) and search(prefix, rest[:i] + rest[i + 1 :]):
                return True
            prefix.pop()
        return False

    if search([], records):
        renumbered = []
        for i, rec in enumerate(found):
            renumbered.append(
                OperationRecord(
                    node=rec.node,
                    seq=rec.seq,
                    kind=rec.kind,
                    element=rec.element,
                    assigned=rec.assigned,
                    serial_index=i,
                    returned=rec.returned,
                )
            )
        return renumbered
    return None

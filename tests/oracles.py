"""Reference implementations that the tests check the protocols and the
checkers against.

``sequential_oracle`` is the reference executor (a deterministic heap
ordered by priority then tiebreaker) used to generate known-good
histories and expected outcomes.  ``brute_force_order`` exhaustively
searches small histories for a satisfying order, validating the
checkers themselves.
"""
from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Sequence

from distheap.batches import INSERT
from distheap.consistency import BOTTOM, OperationRecord, build_matching
from distheap.sim import Element


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
        return [replace(rec, serial_index=i) for i, rec in enumerate(found)]
    return None

"""Request generation for the heap protocols.

Each node owns a deterministic RNG derived from (run seed, node id).  On
every activation a node injects up to ``lam`` requests until its budget
is exhausted, mixing inserts and delete-mins; inserted elements carry
the issuing node and a per-node sequence number as tiebreaker.  A test
may instead preload a script of requests.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from .batches import DELETE, INSERT
from .hashing import Tag, mix64
from .sim import Element, SimConfig

INSERT_RATIO = 0.6  # share of generated requests that are inserts


@dataclass(slots=True)
class HeapRequest:
    kind: str
    seq: int
    element: Element | None = None  # only for inserts
    assigned: Any = None
    serial_index: int = -1
    returned: Any = None


class RequestSource:
    """Buffers issued requests until a protocol snapshots them.

    A node issues ``2 * lam * epochs`` random requests in all, with
    priorities drawn from ``[1, priority_universe]``.
    """

    def __init__(self, node_id: int, cfg: SimConfig, priority_universe: int):
        self.node_id = node_id
        self.lam = cfg.lam
        self.budget = cfg.lam * cfg.epochs * 2
        self.priority_universe = priority_universe
        self.rng = random.Random(mix64(cfg.seed, Tag.WORKLOAD, node_id))
        self.seq = 0
        self.buffer: list[HeapRequest] = []
        self.issued: list[HeapRequest] = []

    def preload(self, script: list[tuple[str, int | None]]) -> None:
        for kind, prio in script:
            self._issue(kind, prio)
        self.budget = 0

    def _issue(self, kind: str, prio: int | None) -> HeapRequest:
        self.seq += 1
        element = None
        if kind == INSERT:
            element = Element(prio, self.node_id, self.seq)
        req = HeapRequest(kind=kind, seq=self.seq, element=element)
        self.buffer.append(req)
        self.issued.append(req)
        return req

    def inject(self) -> int:
        """Generate up to ``lam`` random requests; returns how many."""
        count = min(self.lam, self.budget)
        for _ in range(count):
            if self.rng.random() < INSERT_RATIO:
                self._issue(INSERT, self.rng.randint(1, self.priority_universe))
            else:
                self._issue(DELETE, None)
        self.budget -= count
        return count

    def snapshot(self, kind: str | None = None) -> list[HeapRequest]:
        """Remove and return buffered requests (optionally one kind only)."""
        if kind is None:
            taken, self.buffer = self.buffer, []
            return taken
        taken = [r for r in self.buffer if r.kind == kind]
        self.buffer = [r for r in self.buffer if r.kind != kind]
        return taken

    @property
    def exhausted(self) -> bool:
        return self.budget <= 0

"""Request generation for the heap protocols.

Each node owns a deterministic RNG derived from (run seed, node id).  On
every activation a node injects up to ``lam`` requests until its budget
is exhausted, mixing inserts and delete-mins; inserted elements carry
the issuing node and a per-node sequence number as tiebreaker.  Just
before a node snapshots its last epoch it issues whatever budget is
left, so every issued request falls in an epoch.  A test may instead
preload a script of requests.

Every request is issued as an ``OperationRecord``.  The snapshot that
takes it into an epoch stamps its ``epoch``, the protocol fills in its
``assigned``, ``serial_index`` and ``returned`` fields, and the checkers
of ``consistency`` read those same objects, gathered by ``recorded``.
"""
from __future__ import annotations

import random

from .batches import DELETE, INSERT
from .consistency import OperationRecord
from .hashing import Tag, mix64
from .sim import Element, SimConfig, SimulationFault

INSERT_RATIO = 0.6  # share of generated requests that are inserts


class RequestSource:
    """Issues requests as ``OperationRecord``s, which the protocol fills in,
    and buffers them until the protocol snapshots them into an epoch.
    ``issued`` keeps them all in issue order; ``recorded`` returns them
    after checking that every one was snapshotted, the node's share of a
    run's records.

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
        self.buffer: list[OperationRecord] = []
        self.issued: list[OperationRecord] = []

    def preload(self, script: list[tuple[str, int | None]]) -> None:
        for kind, prio in script:
            self._issue(kind, prio)
        self.budget = 0

    def _issue(self, kind: str, prio: int | None) -> OperationRecord:
        self.seq += 1
        element = None
        if kind == INSERT:
            element = Element(prio, self.node_id, self.seq)
        req = OperationRecord(self.node_id, self.seq, kind, element)
        self.buffer.append(req)
        self.issued.append(req)
        return req

    def inject(self, count: int | None = None) -> int:
        """Generate ``count`` (by default ``lam``) random requests, at most
        the remaining budget; returns how many."""
        count = min(self.lam if count is None else count, self.budget)
        for _ in range(count):
            if self.rng.random() < INSERT_RATIO:
                self._issue(INSERT, self.rng.randint(1, self.priority_universe))
            else:
                self._issue(DELETE, None)
        self.budget -= count
        return count

    def snapshot(self, epoch: int, kind: str | None = None) -> list[OperationRecord]:
        """Remove and return buffered requests (optionally one kind only),
        stamping each with ``epoch``."""
        if kind is None:
            taken, self.buffer = self.buffer, []
        else:
            taken = [r for r in self.buffer if r.kind == kind]
            self.buffer = [r for r in self.buffer if r.kind != kind]
        for req in taken:
            req.epoch = epoch
        return taken

    def recorded(self) -> list[OperationRecord]:
        """Every issued request, in issue order; each must have been
        snapshotted into an epoch."""
        out = self.issued
        if any(req.epoch < 0 for req in out):
            raise SimulationFault("request issued but never taken into an epoch")
        if any(req.kind == DELETE and req.returned is None for req in out):
            raise SimulationFault("delete finished without an outcome")
        return out

    @property
    def exhausted(self) -> bool:
        return self.budget <= 0

"""Request generation for the heap protocols, and the epoch lifecycle both
heaps share.

Requests enter a node's buffer in two ways.  On every activation a
generated source injects up to ``lam`` random requests until its budget
is spent, mixing inserts and delete-mins; inserted elements carry the
issuing node and a per-node sequence number as tiebreaker.  And just
before a node snapshots an epoch it calls ``issue_for(epoch)``: a script
issues that epoch's requests there, and a generated source issues its
leftover budget at the last epoch, so every issued request falls in an
epoch.  A script is ``{node: {epoch: [(kind, priority), ...]}}``, with
``None`` as a delete's priority; a scripted run issues nothing else.

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
from .overlay import CycleTopology
from .sim import Element, SimConfig, SimulationFault, Simulator

INSERT_RATIO = 0.6  # share of generated requests that are inserts

Script = dict[int, dict[int, list[tuple[str, int | None]]]]


def check_script(script: Script, cfg: SimConfig) -> None:
    """Raise ``ValueError`` unless every scripted request can be issued:
    its node lies in ``[0, n)``, its epoch in ``[0, epochs)``, and it is an
    insert with a priority in ``[1, priority_universe]`` or a delete
    without one."""
    for node_id, by_epoch in script.items():
        if not 0 <= node_id < cfg.n:
            raise ValueError(f"script names node {node_id}, outside [0, {cfg.n})")
        for epoch, requests in by_epoch.items():
            if not 0 <= epoch < cfg.epochs:
                raise ValueError(
                    f"node {node_id}: script epoch {epoch} outside [0, {cfg.epochs})"
                )
            for kind, prio in requests:
                if kind == INSERT:
                    if not (isinstance(prio, int) and 1 <= prio <= cfg.priority_universe):
                        raise ValueError(
                            f"node {node_id}: insert priority {prio!r} outside "
                            f"[1, {cfg.priority_universe}]"
                        )
                elif kind == DELETE:
                    if prio is not None:
                        raise ValueError(f"node {node_id}: a delete has priority {prio!r}")
                else:
                    raise ValueError(f"node {node_id}: unknown request kind {kind!r}")


class RequestSource:
    """Issues requests as ``OperationRecord``s, which the protocol fills in,
    and buffers them until the protocol snapshots them into an epoch.
    ``issued`` keeps them all in issue order; ``recorded`` returns them
    after checking that every one was snapshotted, the node's share of a
    run's records.

    Without a script a node issues ``2 * lam * epochs`` random requests
    in all, with priorities drawn from ``[1, priority_universe]``.  With a
    script it issues the script's requests for this node, epoch by epoch.
    """

    def __init__(
        self, node_id: int, cfg: SimConfig, priority_universe: int, script: Script | None = None
    ):
        self.node_id = node_id
        self.lam = cfg.lam
        self.last_epoch = cfg.epochs - 1
        self.script = None if script is None else script.get(node_id, {})
        self.budget = 0 if script is not None else cfg.lam * cfg.epochs * 2
        self.priority_universe = priority_universe
        self.rng = random.Random(mix64(cfg.seed, Tag.WORKLOAD, node_id))
        self.seq = 0
        self.buffer: list[OperationRecord] = []
        self.issued: list[OperationRecord] = []

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

    def issue_for(self, epoch: int) -> None:
        """Issue the requests that enter ``epoch``, just before its snapshot:
        the script's for this epoch, or at the last epoch every request
        left in the budget."""
        if self.script is not None:
            for kind, prio in self.script.get(epoch, ()):
                self._issue(kind, prio)
        elif epoch == self.last_epoch:
            self.inject(self.budget)

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


class HeapNode:
    """The epoch lifecycle of Skeap and Seap, mixed in before the overlay
    base class.

    A node enters epoch 0 at its first activation, and each later epoch
    when its protocol calls ``_enter``.  Entering an epoch issues its
    requests (``RequestSource.issue_for``) and opens it with the
    protocol's first snapshot, which the protocol defines as
    ``_open_epoch(epoch)``; entering past the last epoch finishes the
    node.  Activations inject generated requests until the budget is
    spent.  Priorities lie in ``[1, priority_universe]``, which
    ``SimConfig`` sets to ``priority_count`` unless it is given.

    The anchor answers each epoch with one program, which the protocol
    defines as ``_epoch(epoch)``; all of them start here, on the driver of
    ``node.OverlayNode``, and each runs to the first barrier it waits for.
    That is before the protocol's own constructor body, so a program reads
    no protocol state before its first ``yield``.
    """

    def __init__(self, sim: Simulator, node_id: int, topo: CycleTopology, script: Script | None):
        super().__init__(sim, node_id, topo)
        self.source = RequestSource(node_id, sim.cfg, sim.cfg.priority_universe, script)
        self.epoch = -1  # last epoch entered
        self.finished = False
        if self.is_anchor:
            for epoch in range(sim.cfg.epochs):
                self.run_program(self._epoch(epoch))

    def on_activate(self) -> None:
        self.source.inject()
        if self.epoch < 0:
            self._enter(0)

    @property
    def needs_activation(self) -> bool:
        # activations inject requests and enter epoch 0; epoch and budget are monotone
        return self.epoch < 0 or not self.source.exhausted

    def _enter(self, epoch: int) -> None:
        if epoch > self.source.last_epoch:
            self.finished = True
            return
        self.epoch = epoch
        self.source.issue_for(epoch)
        self._open_epoch(epoch)

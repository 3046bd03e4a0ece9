"""Request generation for the heap protocols, and the epoch lifecycle both
heaps share.

A generated source issues random requests, mixing inserts and
delete-mins; inserted elements carry the issuing node and a per-node
sequence number as tiebreaker.  They arrive at the injection rate λ
(``SimConfig.lam``): λ requests at a node's start and λ per period, until
the budget of 2λ requests per epoch, 2λ · epochs in all, is spent.  The period is one round in
synchronous mode, where a round's arrivals follow its deliveries, and
``ASYNC_DELAY_MAX`` ticks in asynchronous mode, where a tick's arrivals
precede its deliveries.  A node issues the arrivals due just before each
snapshot (``RequestSource.arrive``).  And when a node enters an epoch it
calls ``issue_for(epoch)``: a script issues that epoch's requests there,
and a generated source issues its leftover budget at the last epoch, so
every issued request falls in an epoch.  A script is ``{node: {epoch:
[(kind, priority), ...]}}``, with ``None`` as a delete's priority; a
scripted run issues nothing else.

Every request is issued as an ``OperationRecord``.  The snapshot that
takes it into an epoch stamps its ``epoch``, the protocol fills in its
``assigned``, ``serial_index`` and ``returned`` fields, and the checkers
of ``consistency`` read those same objects, gathered by ``recorded``.
"""
from __future__ import annotations

import random

from .batches import DELETE, INSERT
from .consistency import OperationRecord
from .hashing import Tag, below, mix64
from .overlay import CycleTopology
from .sim import ASYNC_DELAY_MAX, SYNC, Element, SimConfig, SimulationFault, Simulator

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

    def __init__(self, node_id: int, cfg: SimConfig, script: Script | None = None):
        self.node_id = node_id
        self.lam = cfg.lam
        self.last_epoch = cfg.epochs - 1
        self.script = None if script is None else script.get(node_id, {})
        self.budget = 0 if script is not None else cfg.lam * cfg.epochs * 2
        self.priority_universe = cfg.priority_universe
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

    def inject(self, count: int) -> None:
        """Generate ``count`` random requests, at most the remaining budget."""
        count = min(count, self.budget)
        for _ in range(count):
            if self.rng.random() < INSERT_RATIO:
                self._issue(INSERT, 1 + below(self.rng, self.priority_universe))
            else:
                self._issue(DELETE, None)
        self.budget -= count

    def arrive(self, slots: int) -> None:
        """Issue the generated requests of the first ``slots`` arrival
        slots, ``lam`` per slot, that are not issued yet; at most the
        remaining budget."""
        due = self.lam * slots - len(self.issued)
        if due > 0:
            self.inject(due)

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


class HeapNode:
    """The epoch lifecycle of Skeap and Seap, mixed in before the overlay
    base class.

    A node enters epoch 0 at its start, and each later epoch when its
    protocol calls ``_enter``.  Entering an epoch issues its requests
    (``RequestSource.issue_for``) and opens it with the protocol's first
    snapshot, which the protocol defines as ``_open_epoch(epoch)``;
    entering past the last epoch finishes the node.  Each snapshot
    (``_snapshot``) first issues the generated requests that have
    arrived: λ at the node's start and λ per period, as the module
    docstring sets out.  Priorities lie in ``[1, priority_universe]``,
    which ``SimConfig`` sets to ``priority_count`` unless it is given.

    The anchor answers each epoch with one program, which the protocol
    defines as ``_epoch(epoch)``; all of them start here, on the driver of
    ``node.OverlayNode``, and each runs to the first barrier it waits for.
    That is before the protocol's own constructor body, so a program reads
    no protocol state before its first ``yield``.
    """

    def __init__(self, sim: Simulator, node_id: int, topo: CycleTopology, script: Script | None):
        super().__init__(sim, node_id, topo)
        self.source = RequestSource(node_id, sim.cfg, script)
        self.started = -1  # the time of the node's start
        self.finished = False
        if self.is_anchor:
            for epoch in range(sim.cfg.epochs):
                self.run_program(self._epoch(epoch))

    def start(self) -> None:
        self.started = self.sim.time
        self._enter(0)

    def _enter(self, epoch: int) -> None:
        if epoch > self.source.last_epoch:
            self.finished = True
            return
        self.source.issue_for(epoch)
        self._open_epoch(epoch)

    def _snapshot(self, epoch: int, kind: str | None = None) -> list[OperationRecord]:
        """Issue the generated requests that have arrived by now, then
        snapshot the buffer into ``epoch`` (``RequestSource.snapshot``)."""
        cfg, elapsed = self.sim.cfg, self.sim.time - self.started
        if cfg.mode == SYNC:  # a slot per round, after the round's deliveries
            self.source.arrive(max(1, elapsed))
        else:  # a slot per ASYNC_DELAY_MAX ticks, before the tick's deliveries
            self.source.arrive(1 + elapsed // ASYNC_DELAY_MAX)
        return self.source.snapshot(epoch, kind)

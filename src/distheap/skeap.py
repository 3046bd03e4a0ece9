"""Constant-priority distributed heap protocol.

Each epoch runs four phases, pipelined per node:

1. every node snapshots its buffered requests as a batch and the batches
   aggregate up the tree (each virtual node combines own batch first,
   then children ascending by label, remembering the parts);
2. the anchor assigns position intervals to every entry of the combined
   batch and serialization bases per entry;
3. the intervals decompose back down the tree in the combine order, so
   every request obtains a unique (priority, position) pair or a bottom
   mark, plus its global serialization index;
4. inserts put their element under the hash of (priority, position),
   matched deletes get the same key (rendezvous in the DHT), bottom
   deletes return empty immediately.  A node re-enters phase 1 for the
   next epoch as soon as its DHT requests are issued.

Positions per priority grow monotonically, so a put/get pair for the
same (priority, position) can never collide with any other pair, even
across epochs.
"""
from __future__ import annotations

from typing import Any

from . import batches
from .batches import AnchorState, Batch, DELETE, anchor_assign, decompose
from .consistency import BOTTOM, OperationRecord
from .hashing import Tag, hash_unit
from .node import OverlayNode
from .overlay import MIDDLE, CycleTopology, VirtualId
from .sim import Element, SimulationFault, Simulator
from .workload import HeapRequest, RequestSource

_NS = "skeap"
_WAVE = "sb"


class _EpochWork:
    __slots__ = ("requests", "runs", "batch")

    def __init__(self, requests: list[HeapRequest], runs, batch: Batch):
        self.requests = requests
        self.runs = runs
        self.batch = batch


class SkeapNode(OverlayNode):
    def __init__(self, sim: Simulator, node_id: int, topo: CycleTopology):
        super().__init__(sim, node_id, topo)
        cfg = sim.cfg
        self.priorities = cfg.priority_count
        self.source = RequestSource(
            node_id, cfg.seed, cfg.lam, cfg.requests_per_node, cfg.insert_ratio,
            cfg.priority_count,
        )
        self.epoch = -1  # last epoch entered
        self.total_epochs = cfg.epochs
        self.inflight: dict[int, _EpochWork] = {}
        self.outstanding: dict[Any, HeapRequest] = {}
        self.finished = False
        if self.is_anchor:
            self.anchor_state = AnchorState(self.priorities)
            self.serial_counter = 1
            self.batches_processed = 0

    # -- lifecycle -------------------------------------------------------------
    def on_activate(self) -> None:
        self.source.inject()
        if self.epoch < 0:
            self._enter_epoch(0)

    def _enter_epoch(self, epoch: int) -> None:
        if epoch >= self.total_epochs:
            self.finished = True
            return
        self.epoch = epoch
        snapshot = self.source.snapshot()
        kinds = [(r.kind, r.element.priority if r.element else None) for r in snapshot]
        batch, runs = batches.snapshot_batch(kinds, self.priorities)
        for req in snapshot:
            req.epoch = epoch
        self.inflight[epoch] = _EpochWork(snapshot, runs, batch)
        self.contribute_all(_WAVE, (epoch,), batch, Batch(self.priorities))

    @property
    def needs_activation(self) -> bool:
        # activations inject requests and enter epoch 0; epoch and budget are monotone
        return self.epoch < 0 or not self.source.exhausted

    @property
    def done(self) -> bool:
        return self.finished and not self.outstanding and not self.waiting_gets

    # -- wave plumbing ------------------------------------------------------------
    def wave_combine(self, kind: str, parts: list[Any]) -> Any:
        return batches.combine_all(parts, self.priorities)

    def wave_root(self, kind: str, key: tuple, combined: Batch) -> None:
        share, self.serial_counter = anchor_assign(
            self.anchor_state, combined, self.serial_counter
        )
        self.batches_processed += 1
        self.wave_down(kind, key, self.topo.root, share)

    def wave_split(self, kind, key, vid, sess, share):
        kids = self.topo.children[vid]
        parts = [sess.own] + [sess.child_values[c] for c in kids]
        pieces = decompose(share, parts)
        return pieces[0], pieces[1:]

    def wave_deliver(self, kind: str, key: tuple, vid: VirtualId, share: Any) -> None:
        if vid.kind == MIDDLE:
            self._apply_share(key[0], share)
        elif any(e.ins_count() or e.del_count() for e in share):
            raise SimulationFault("positions assigned to a virtual node without requests")

    # -- phases 3 and 4 --------------------------------------------------------------
    def _apply_share(self, epoch: int, share) -> None:
        work = self.inflight.pop(epoch)
        for j, (ins_idx, del_idx) in enumerate(work.runs):
            entry = share[j]
            cursors = [iv[0] if iv else None for iv in entry.ins]
            for offset, req_i in enumerate(ins_idx):
                req = work.requests[req_i]
                p = req.element.priority
                pos = cursors[p - 1]
                cursors[p - 1] += 1
                req.assigned = (p, pos)
                req.serial_index = entry.ins_base + entry.ins_offset + offset
                self._execute_insert(req)
            flat: list[tuple[int, int]] = [
                (p, pos)
                for p, lo, hi in entry.dels
                for pos in range(lo, hi + 1)
            ]
            for offset, req_i in enumerate(del_idx):
                req = work.requests[req_i]
                req.serial_index = entry.del_base + entry.del_offset + offset
                if offset < len(flat):
                    req.assigned = flat[offset]
                    self._execute_delete(req)
                else:
                    req.assigned = BOTTOM
                    req.returned = BOTTOM
        self._enter_epoch(epoch + 1)

    def _key(self, p: int, pos: int) -> float:
        return hash_unit(Tag.SKEAP_KEY, (p, pos), self.sim.cfg.seed)

    def _execute_insert(self, req: HeapRequest) -> None:
        p, pos = req.assigned
        self.dht_put(_NS, (p, pos), self._key(p, pos), req.element, None)

    def _execute_delete(self, req: HeapRequest) -> None:
        p, pos = req.assigned
        token = (req.seq,)
        self.outstanding[token] = req
        self.dht_get(_NS, (p, pos), self._key(p, pos), token)

    def on_get_reply(self, ns: str, token: Any, element: Element) -> None:
        req = self.outstanding.pop(token)
        req.returned = element

    # -- reporting --------------------------------------------------------------------
    def records(self) -> list[OperationRecord]:
        out = []
        for req in self.source.issued:
            if req.serial_index < 0:
                continue  # never snapshotted within the configured epochs
            if req.kind == DELETE and req.returned is None:
                raise SimulationFault("delete finished without an outcome")
            out.append(
                OperationRecord(
                    node=self.id,
                    seq=req.seq,
                    kind=req.kind,
                    element=req.element,
                    assigned=req.assigned,
                    serial_index=req.serial_index,
                    returned=req.returned,
                )
            )
        return out


def build_skeap(sim: Simulator, topo: CycleTopology) -> list[SkeapNode]:
    nodes = [SkeapNode(sim, v, topo) for v in range(sim.cfg.n)]
    for node in nodes:
        sim.add_node(node)
    return nodes

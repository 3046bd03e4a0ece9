"""Constant-priority distributed heap protocol.

Each epoch runs four phases, pipelined per node:

1. every node enters the epoch through the lifecycle both heaps share
   (``workload.HeapNode``), which issues the epoch's requests
   (``RequestSource.issue_for``); it snapshots its buffered requests as a
   batch (``_open_epoch``), its middle virtual node's part, and the
   batches aggregate up the tree: a middle virtual node combines its own
   batch first, then its children's ascending by label, a left one only
   its children's, and each remembers the parts (``node.OverlayNode``);
2. the anchor assigns position intervals to every entry of the combined
   batch and serialization bases per entry: each epoch is one anchor
   program (``_epoch``) on the driver all three protocols share
   (``node.OverlayNode``), which waits for the epoch's ``sb`` wave and
   assigns in the same event as the wave reaches the root;
3. the intervals decompose back down the tree in the combine order
   (``split_sb``), so every request obtains a unique (priority, position)
   pair or a bottom mark, plus its global serialization index
   (``deliver_sb``);
4. inserts put their element under the hash of (priority, position),
   matched deletes get the same key (rendezvous in the DHT), bottom
   deletes return empty immediately.  The puts are fire-and-forget: they
   carry no token, so no ack comes back, and the get that meets a put
   completes both.  A node enters the next epoch, and its phase 1, as soon
   as its DHT requests are issued; entering past the last epoch finishes
   it.

Positions per priority grow monotonically, so a put/get pair for the
same (priority, position) can never collide with any other pair, even
across epochs.
"""
from __future__ import annotations

from typing import Any, Generator

from . import batches
from .batches import AnchorState, Batch, Share, anchor_assign, decompose
from .consistency import BOTTOM, OperationRecord
from .hashing import Tag, hash_unit
from .node import GetReplyMsg, OverlayNode, build
from .overlay import CycleTopology
from .sim import Simulator
from .workload import HeapNode, Script

_NS = "skeap"
_WAVE = "sb"


class SkeapNode(HeapNode, OverlayNode):
    def __init__(
        self, sim: Simulator, node_id: int, topo: CycleTopology, script: Script | None = None
    ):
        super().__init__(sim, node_id, topo, script)
        self.priorities = sim.cfg.priority_count
        # epoch -> (snapshot requests, their runs in the batch)
        self.inflight: dict[int, tuple[list[OperationRecord], list]] = {}
        self.outstanding: dict[Any, OperationRecord] = {}
        if self.is_anchor:
            self.anchor_state = AnchorState(self.priorities)
            self.serial_counter = 1
            self.batches_processed = 0

    # -- phase 1 ---------------------------------------------------------------
    def _open_epoch(self, epoch: int) -> None:
        snapshot = self._snapshot(epoch)
        kinds = [(r.kind, r.element.priority if r.element else None) for r in snapshot]
        batch, runs = batches.snapshot_batch(kinds, self.priorities)
        self.inflight[epoch] = (snapshot, runs)
        self.contribute_all(_WAVE, (epoch,), batch)

    @property
    def done(self) -> bool:
        return self.finished and not self.outstanding and super().done

    # -- phase 2: the anchor program of one epoch ------------------------------------
    def _epoch(self, epoch: int) -> Generator[tuple, Any, None]:
        key = (epoch,)
        combined = yield _WAVE, key
        share, self.serial_counter = anchor_assign(
            self.anchor_state, combined, self.serial_counter
        )
        self.batches_processed += 1
        self.wave_down(_WAVE, key, self.topo.root, share)

    # -- the sb wave: batches combine up, their shares decompose down -------------
    def combine_sb(self, parts: list[Batch]) -> Batch:
        return batches.combine_all(parts, self.priorities)

    def split_sb(self, share: Share, parts: list[Batch]) -> list[Share]:
        return decompose(share, parts)

    # -- phases 3 and 4 --------------------------------------------------------------
    def deliver_sb(self, key: tuple, share: Share) -> None:
        epoch = key[0]
        requests, runs = self.inflight.pop(epoch)
        for j, (ins_idx, del_idx) in enumerate(runs):
            entry = share[j]
            cursors = [iv[0] if iv else None for iv in entry.ins]
            for offset, req_i in enumerate(ins_idx):
                req = requests[req_i]
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
                req = requests[req_i]
                req.serial_index = entry.del_base + entry.del_offset + offset
                if offset < len(flat):
                    req.assigned = flat[offset]
                    self._execute_delete(req)
                else:
                    req.assigned = BOTTOM
                    req.returned = BOTTOM
        self._enter(epoch + 1)

    def _key(self, p: int, pos: int) -> float:
        return hash_unit(Tag.SKEAP_KEY, (p, pos), self.sim.cfg.seed)

    def _execute_insert(self, req: OperationRecord) -> None:
        p, pos = req.assigned
        self.dht_put(_NS, (p, pos), self._key(p, pos), req.element, None)

    def _execute_delete(self, req: OperationRecord) -> None:
        p, pos = req.assigned
        token = (req.seq,)
        self.outstanding[token] = req
        self.dht_get(_NS, (p, pos), self._key(p, pos), token)

    def on_GetReplyMsg(self, msg: GetReplyMsg) -> None:
        req = self.outstanding.pop(msg.token)
        req.returned = msg.element


def build_skeap(sim: Simulator, topo: CycleTopology, script: Script | None = None) -> list:
    return build(SkeapNode, sim, topo, script)

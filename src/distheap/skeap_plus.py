"""Arbitrary-priority distributed heap: alternating insert/delete phases.

Each epoch has two strictly separated phases driven by anchor barriers:

* insert phase: nodes snapshot their buffered inserts and aggregate only
  the count; the anchor grows its element total and broadcasts the go
  signal; every element is stored in the DHT under an independent
  pseudorandom key and acknowledged; a node switches to the delete phase
  once all its acknowledgments arrived.
* delete phase: the delete count k aggregates to the anchor, which runs
  k-selection for the element of rank k* = min(k, stored total).  The
  bound element is broadcast; every node counts its stored elements up
  to the bound, the counts aggregate, and the position interval [1, k*]
  decomposes over the tree so storing nodes move their qualifying
  elements (ascending) to position-salted DHT keys.  In parallel the
  interval [1, k] decomposes over the deleting nodes' counts; deletes
  fetch their positions, and positions beyond k* return bottom.  The
  anchor shrinks its total by k* and the next insert phase begins.

The constructed serialization per epoch is: all inserts (in ascending
element order), then all deletes ordered by assigned position.  Only
serializability is claimed; a node's own requests may serialize out of
issue order.
"""
from __future__ import annotations

from typing import Any

from .batches import DELETE, INSERT
from .consistency import BOTTOM, OperationRecord
from .hashing import Tag, hash_unit
from .kselect import KSelectError, KSelectNode, _Selection
from .node import split_interval
from .overlay import MIDDLE, CycleTopology, VirtualId
from .sim import Element, SimulationFault, Simulator
from .workload import HeapRequest, RequestSource

_ELEM = "elem"
_POS = "pos"


class SkeapPlusNode(KSelectNode):
    def __init__(self, sim: Simulator, node_id: int, topo: CycleTopology):
        super().__init__(sim, node_id, topo)
        cfg = sim.cfg
        self.source = RequestSource(
            node_id, cfg.seed, cfg.lam, cfg.requests_per_node, cfg.insert_ratio,
            cfg.priority_universe,
        )
        self.total_epochs = cfg.epochs
        self.epoch = -1
        self.finished = False
        self.ins_snapshot: dict[int, list[HeapRequest]] = {}
        self.del_snapshot: dict[int, list[HeapRequest]] = {}
        self.pending_put_acks: dict[int, int] = {}
        self.outstanding_gets: dict[Any, HeapRequest] = {}
        self.open_gets: dict[int, int] = {}
        self.qual_limit: dict[int, Element | None] = {}
        if self.is_anchor:
            self.m = 0
            self.drive: dict[int, dict] = {}
            self.epoch_log: list[dict] = []

    # -- element source for selections ------------------------------------------
    def selection_universe(self) -> list[Element]:
        stored = [e for (ns, _), e in self.storage.items() if ns == _ELEM]
        stored.sort(key=lambda e: e.key)
        return stored

    @property
    def needs_activation(self) -> bool:
        # activations inject requests and enter epoch 0; epoch and budget are monotone
        return self.epoch < 0 or not self.source.exhausted

    @property
    def done(self) -> bool:
        return (
            self.finished
            and not self.outstanding_gets
            and not self.pending_put_acks
            and not self.waiting_gets
        )

    # -- lifecycle -----------------------------------------------------------------
    def on_activate(self) -> None:
        self.source.inject()
        if self.epoch < 0:
            self._enter_insert(0)

    def _enter_insert(self, epoch: int) -> None:
        if epoch >= self.total_epochs:
            self.finished = True
            return
        self.epoch = epoch
        snap = self.source.snapshot(INSERT)
        for req in snap:
            req.epoch = epoch
        self.ins_snapshot[epoch] = snap
        self.contribute_all("si", (epoch,), len(snap), 0)

    def _enter_delete(self, epoch: int) -> None:
        snap = self.source.snapshot(DELETE)
        for req in snap:
            req.epoch = epoch
        self.del_snapshot[epoch] = snap
        self.open_gets[epoch] = 0
        self.contribute_all("sd", (epoch,), len(snap), 0)

    # -- waves ---------------------------------------------------------------------
    def wave_combine(self, kind: str, parts: list[Any]) -> Any:
        if kind in ("si", "sd", "sq"):
            return sum(parts)
        return super().wave_combine(kind, parts)

    def wave_root(self, kind: str, key: tuple, combined: Any) -> None:
        if kind == "si":
            self.m += combined
            self.flood("fi", key, None)
        elif kind == "sd":
            self._root_deletes(key[0], combined)
        elif kind == "sq":
            epoch = key[0]
            k_star = self.drive[epoch]["k_star"]
            if combined != k_star:
                raise SimulationFault(
                    f"qualifying count {combined} != k*={k_star} in epoch {epoch}"
                )
            self.wave_down("sq", key, self.topo.root, (1, k_star, epoch))
        else:
            super().wave_root(kind, key, combined)

    def _root_deletes(self, epoch: int, k_total: int) -> None:
        if k_total == 0:
            self.drive[epoch] = {"k": 0, "k_star": 0}
            self.epoch_log.append({"epoch": epoch, "k": 0, "k_star": 0, "m": self.m})
            self.flood("fskip", (epoch,), None)
            return
        k_star = min(k_total, self.m)
        self.m -= k_star
        self.drive[epoch] = {"k": k_total, "k_star": k_star}
        self.epoch_log.append(
            {"epoch": epoch, "k": k_total, "k_star": k_star, "m": self.m + k_star}
        )
        if k_star == 0:
            self._after_select(epoch, None)
        else:
            self.start_selection(
                k_star, inv=epoch, on_done=lambda sel: self._after_select(epoch, sel)
            )

    def _after_select(self, epoch: int, sel: _Selection | None) -> None:
        if sel is not None and sel.error:
            raise KSelectError(sel.error)
        limit = sel.result if sel is not None else None
        drive = self.drive[epoch]
        drive["limit"] = limit
        self.flood("fq", (epoch,), (limit, drive["k_star"]))
        self.wave_down(
            "sd", (epoch,), self.topo.root, (1, drive["k"], drive["k_star"], epoch)
        )

    # -- interval decomposition for sd and sq --------------------------------------------
    def wave_split(self, kind, key, vid, sess, share):
        if kind not in ("sd", "sq"):
            return super().wave_split(kind, key, vid, sess, share)
        kids = self.topo.children[vid]
        return split_interval(share, sess.own, [sess.child_values[c] for c in kids])

    def wave_deliver(self, kind, key, vid, share) -> None:
        if kind == "sd":
            if vid.kind == MIDDLE:
                self._assign_deletes(key[0], share)
            return
        if kind == "sq":
            if vid.kind == MIDDLE:
                self._move_qualifying(key[0], share)
            return
        super().wave_deliver(kind, key, vid, share)

    # -- floods -----------------------------------------------------------------------------
    def on_flood(self, kind: str, key: tuple, vid: VirtualId, payload: Any) -> None:
        if kind == "fi":
            if vid.kind == MIDDLE:
                self._store_inserts(key[0])
        elif kind == "fskip":
            if vid.kind == MIDDLE:
                self._enter_insert(key[0] + 1)
        elif kind == "fq":
            count = 0
            if vid.kind == MIDDLE:
                limit, _ = payload
                self.qual_limit[key[0]] = limit
                count = len(self._qualifying(limit))
            self.wave_contribute("sq", key, vid, count)
        else:
            super().on_flood(kind, key, vid, payload)

    # -- insert phase ----------------------------------------------------------------------
    def _store_inserts(self, epoch: int) -> None:
        snap = self.ins_snapshot[epoch]
        if not snap:
            self._enter_delete(epoch)
            return
        self.pending_put_acks[epoch] = len(snap)
        seed = self.sim.cfg.seed
        for req in snap:
            e = req.element
            key = hash_unit(Tag.SPLUS_INSERT_KEY, (e.origin, e.seq), seed)
            self.dht_put(_ELEM, (e.origin, e.seq), key, e, (epoch,))

    def on_put_ack(self, ns: str, token: Any) -> None:
        if ns == _ELEM:
            epoch = token[0]
            self.pending_put_acks[epoch] -= 1
            if self.pending_put_acks[epoch] == 0:
                del self.pending_put_acks[epoch]
                self._enter_delete(epoch)
        # position puts need no bookkeeping: their get rendezvous completes them

    # -- delete phase -------------------------------------------------------------------------
    def _qualifying(self, limit: Element | None) -> list[Element]:
        if limit is None:
            return []
        qual = [
            e
            for (ns, _), e in self.storage.items()
            if ns == _ELEM and e.key <= limit.key
        ]
        qual.sort(key=lambda e: e.key)
        return qual

    def _pos_key(self, epoch: int, pos: int) -> float:
        return hash_unit(Tag.SPLUS_POSITION_KEY, (epoch, pos), self.sim.cfg.seed)

    def _move_qualifying(self, epoch: int, share) -> None:
        lo, hi, _ = share
        qual = self._qualifying(self.qual_limit[epoch])
        if hi - lo + 1 != len(qual):
            raise SimulationFault("qualifying share does not match stored elements")
        for offset, element in enumerate(qual):
            pos = lo + offset
            del self.storage[(_ELEM, element.ident)]
            self.dht_put(_POS, (epoch, pos), self._pos_key(epoch, pos), element, None)

    def _assign_deletes(self, epoch: int, share) -> None:
        lo, hi, k_star, _ = share
        snap = self.del_snapshot[epoch]
        if hi - lo + 1 != len(snap):
            raise SimulationFault("delete share does not match snapshot")
        for offset, req in enumerate(snap):
            pos = lo + offset
            req.assigned = pos
            if pos <= k_star:
                token = (epoch, req.seq)
                self.outstanding_gets[token] = req
                self.open_gets[epoch] += 1
                self.dht_get(_POS, (epoch, pos), self._pos_key(epoch, pos), token)
            else:
                req.returned = BOTTOM
        if self.open_gets[epoch] == 0:
            self._enter_insert(epoch + 1)

    def on_get_reply(self, ns: str, token: Any, element: Element) -> None:
        if ns != _POS:
            raise SimulationFault(f"unexpected get reply in namespace {ns}")
        req = self.outstanding_gets.pop(token)
        req.returned = element
        epoch = token[0]
        self.open_gets[epoch] -= 1
        if self.open_gets[epoch] == 0:
            self._enter_insert(epoch + 1)


def finalize_records(nodes: list[SkeapPlusNode]) -> list[OperationRecord]:
    """Assemble the constructed serialization across all epochs.

    Per epoch: inserts in ascending element order, then deletes ordered by
    assigned position (bottoms land past k* and therefore at the tail).
    """
    epochs = max((n.total_epochs for n in nodes), default=0)
    records: list[OperationRecord] = []
    counter = 1
    for epoch in range(epochs):
        inserts: list[tuple[Element, SkeapPlusNode, HeapRequest]] = []
        deletes: list[tuple[int, SkeapPlusNode, HeapRequest]] = []
        for node in nodes:
            for req in node.ins_snapshot.get(epoch, []):
                inserts.append((req.element, node, req))
            for req in node.del_snapshot.get(epoch, []):
                if req.returned is None:
                    raise SimulationFault("delete finished without an outcome")
                deletes.append((req.assigned, node, req))
        inserts.sort(key=lambda t: t[0].key)
        deletes.sort(key=lambda t: t[0])
        for element, node, req in inserts:
            records.append(
                OperationRecord(
                    node=node.id,
                    seq=req.seq,
                    kind=INSERT,
                    element=element,
                    assigned=None,
                    serial_index=counter,
                    returned=None,
                )
            )
            counter += 1
        for pos, node, req in deletes:
            records.append(
                OperationRecord(
                    node=node.id,
                    seq=req.seq,
                    kind=DELETE,
                    element=None,
                    assigned=pos,
                    serial_index=counter,
                    returned=req.returned,
                )
            )
            counter += 1
    return records


def build_skeap_plus(sim: Simulator, topo: CycleTopology) -> list[SkeapPlusNode]:
    nodes = [SkeapPlusNode(sim, v, topo) for v in range(sim.cfg.n)]
    for node in nodes:
        sim.add_node(node)
    return nodes

"""Arbitrary-priority distributed heap: alternating insert/delete phases.

A node enters each epoch through the lifecycle both heaps share
(``workload.HeapNode``): it issues the epoch's requests
(``RequestSource.issue_for``), snapshots its inserts and contributes
their count to ``si`` (``_open_epoch``).  It snapshots its deletes when
its stores are acknowledged (``_enter_delete``), and enters the next
epoch when its last get returns, or at its ``sd`` share if it issues no
get; entering past the last epoch finishes it.

The anchor runs each epoch as one program (``_epoch``) on the
anchor-program driver all three protocols share (``node.OverlayNode``),
all started with the anchor (``workload.HeapNode``); the KSelect program
runs inside it.  It waits for three counts in turn:

* ``si``, the inserts the nodes snapshot: the anchor adds them to its
  element total m and floods ``fi``.  A node routes each insert's element
  to the node responsible for a pseudorandom key, in a ``StoreOp``
  (``flood_fi``).  That node keeps it in ``elements``, in key order, the
  list KSelect selects from, and acknowledges the store to the element's
  origin, its issuer, in a ``StoreAckMsg``; the issuer enters the delete
  phase once all its stores are acknowledged.  No share comes down
  ``si``, so it has no ``deliver_si``.
* ``sd``, the deletes k: the anchor shrinks m by k* = min(k, m).  Each
  ``sd`` share is ``(lo, hi, k*, bound)``.  If k* = 0 no element moves:
  the anchor splits [1, k] down the ``sd`` wave with no bound
  (``None``), every delete returns bottom, and the epoch ends there
  (with k = 0 the share is empty).  Otherwise it runs the KSelect
  program for the element of rank k* and splits [1, k] down the ``sd``
  wave with that element as the bound, so no flood of its own announces
  it.  At its share a node first counts its stored elements up to the
  bound, which qualify, and contributes that count to ``sq``; then each
  delete fetches its position from a position-salted DHT key, or
  returns bottom past k* (``deliver_sd``).
* ``sq``, the qualifying elements: it must equal k*.  Then [1, k*]
  splits down the tree, and the storing nodes move those elements
  (ascending) to the position keys as DHT puts (``deliver_sq``).  No
  ack comes back for a put: the get at each position completes the
  move.

Epochs reach the anchor in order: the ``si`` of epoch e+1 combines every
node's count, and a node enters e+1 only at its ``sd`` share or when its
last get returns.  With k* = 0 the ``sd`` share is the epoch's last;
otherwise the get of position 1 returns only after the ``sq`` share, the
epoch's last, has moved an element there.  A count that no program waits
for is a fault.

Each node keeps an epoch's insert and delete snapshots only until it has
stored the inserts or assigned the deletes their positions, its
outstanding gets until each has returned, and the elements up to the
selected bound, taken at its ``sd`` share, until its ``sq`` share moves
them; after a run only the records, stamped with their epoch by the
snapshot, remain.  Counting at the share sees no later epoch's store:
the anchor floods ``fi`` of e+1 only once ``si`` of e+1 has combined,
and a node contributes to that only after its ``sd`` share of e.  A
later epoch's stores can reach a node before its ``sq`` share does,
though, so what qualifies is fixed when it is counted, and the move
takes exactly those elements out of ``elements``, not a prefix of it.
(Epoch e+1 stores only once every get of e has returned, that is, once
every qualifying element has moved, so such a store finds nothing left
to move; the move does not rest on that.)  Since a node enters epoch
e+1 only after e's stores are acknowledged and its gets have returned,
its open stores and outstanding gets always belong to one epoch: one
count of pending acks and one table of gets, which must be empty when
the next epoch stores its inserts or assigns its deletes.
The constructed serialization (``finalize_records``) per epoch is: all
inserts (in ascending element order), then all deletes ordered by the
key of the element they return, bottoms last (positions follow the tree,
not the ranks).  Only serializability is claimed; a node's own requests
may serialize out of issue order.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Generator

from .batches import DELETE, INSERT
from .consistency import BOTTOM, OperationRecord
from .hashing import Tag, hash_unit
from .kselect import KSelectError, KSelectNode
from .node import GetReplyMsg, Message, Nat, build
from .overlay import CycleTopology, VirtualId
from .sim import ELEMENT_KEY, Element, SimulationFault, Simulator
from .workload import HeapNode, Script


@dataclass(slots=True)
class StoreOp(Message):
    """An inserted element of ``epoch``, routed to the node that keeps it."""

    element: Element
    epoch: Nat


@dataclass(slots=True)
class StoreAckMsg(Message):
    """A store of ``epoch`` is done; sent to the element's origin."""

    epoch: Nat


class SkeapPlusNode(HeapNode, KSelectNode):
    def __init__(
        self, sim: Simulator, node_id: int, topo: CycleTopology, script: Script | None = None
    ):
        super().__init__(sim, node_id, topo, script)
        self.ins_snapshot: dict[int, list[OperationRecord]] = {}
        self.del_snapshot: dict[int, list[OperationRecord]] = {}
        # one epoch's stores and gets at a time
        self.pending_stores = 0
        self.outstanding_gets: dict[Any, OperationRecord] = {}
        self.qualifying: dict[int, list[Element]] = {}
        if self.is_anchor:
            self.m = 0
            self.epoch_log: list[dict] = []

    @property
    def done(self) -> bool:
        return (
            self.finished
            and not self.outstanding_gets
            and not self.pending_stores
            and super().done
        )

    # -- the two snapshots of an epoch ------------------------------------------------
    def _open_epoch(self, epoch: int) -> None:
        snap = self._snapshot(epoch, INSERT)
        self.ins_snapshot[epoch] = snap
        self.contribute_all("si", (epoch,), len(snap))

    def _enter_delete(self, epoch: int) -> None:
        snap = self._snapshot(epoch, DELETE)
        self.del_snapshot[epoch] = snap
        self.contribute_all("sd", (epoch,), len(snap))

    # -- waves: counts, summed; ``si`` is answered by a flood, so it has no down half
    def combine_si(self, parts: list[int]) -> int:
        return sum(parts)

    combine_sd = combine_sq = combine_si

    # -- the anchor program of one epoch ---------------------------------------------
    def _epoch(self, epoch: int) -> Generator[tuple, Any, None]:
        key = (epoch,)
        inserted = yield "si", key  # read m only once the count is here
        self.m += inserted
        self.flood("fi", key, None)
        k = yield "sd", key
        k_star = min(k, self.m)
        self.epoch_log.append({"epoch": epoch, "k": k, "k_star": k_star, "m": self.m})
        if not k_star:  # no element moves: every delete returns bottom
            self.wave_down("sd", key, self.topo.root, (1, k, 0, None))
            return
        self.m -= k_star
        sel = yield from self.select(k_star, epoch)
        if sel.error:
            raise KSelectError(sel.error)
        self.wave_down("sd", key, self.topo.root, (1, k, k_star, sel.result))
        qualifying = yield "sq", key
        if qualifying != k_star:
            raise SimulationFault(
                f"qualifying count {qualifying} != k*={k_star} in epoch {epoch}"
            )
        self.wave_down("sq", key, self.topo.root, (1, k_star))

    # -- insert phase ----------------------------------------------------------------------
    def flood_fi(self, key: tuple, payload: None) -> None:
        """Store the epoch's inserts, each at the node its key hashes to."""
        epoch = key[0]
        if self.pending_stores:
            raise SimulationFault(f"epoch {epoch} stores its inserts with stores still open")
        snap = self.ins_snapshot.pop(epoch)
        if not snap:
            self._enter_delete(epoch)
            return
        self.pending_stores = len(snap)
        seed = self.sim.cfg.seed
        for req in snap:
            e = req.element
            at = hash_unit(Tag.SPLUS_INSERT_KEY, (e.origin, e.seq), seed)
            self.route_send(at, StoreOp(e, epoch))

    def on_StoreOp(self, op: StoreOp, vid: VirtualId) -> None:
        """Keep the element in key order and acknowledge it to its issuer."""
        element, elements = op.element, self.elements
        key = element.key
        i = bisect_left(elements, key, key=ELEMENT_KEY)
        if i < len(elements) and elements[i].key == key:
            raise SimulationFault(f"{element} stored twice")
        # a new list: a selection may hold the old one as its candidates
        self.elements = elements[:i] + [element] + elements[i:]
        self.post(element.origin, StoreAckMsg(op.epoch))

    def on_StoreAckMsg(self, msg: StoreAckMsg) -> None:
        self.pending_stores -= 1
        if not self.pending_stores:
            self._enter_delete(msg.epoch)

    # -- delete phase -------------------------------------------------------------------------
    def _pos_key(self, epoch: int, pos: int) -> float:
        return hash_unit(Tag.SPLUS_POSITION_KEY, (epoch, pos), self.sim.cfg.seed)

    # -- sd and sq shares: intervals split by counts -------------------------------------------
    def deliver_sq(self, key: tuple, share: tuple) -> None:
        """Move the qualifying elements to their positions."""
        epoch = key[0]
        lo, hi = share
        qual = self.qualifying.pop(epoch)
        if hi - lo + 1 != len(qual):
            raise SimulationFault("qualifying share does not match stored elements")
        # by identity, not a prefix: a later epoch's element may have been
        # stored under this epoch's bound since the sd share
        moved = set(map(id, qual))
        self.elements = [e for e in self.elements if id(e) not in moved]
        for pos, element in enumerate(qual, start=lo):
            self.dht_put((epoch, pos), self._pos_key(epoch, pos), element)

    def deliver_sd(self, key: tuple, share: tuple) -> None:
        """Count the stored elements up to the selected bound, which
        qualify, then give each delete its position: a get, or bottom
        past k*."""
        epoch = key[0]
        if self.outstanding_gets:
            raise SimulationFault(f"epoch {epoch} assigns its deletes with gets still out")
        lo, hi, k_star, bound = share
        if bound is not None:
            elements = self.elements
            qual = elements[: bisect_right(elements, bound.key, key=ELEMENT_KEY)]
            self.qualifying[epoch] = qual
            self.contribute_all("sq", key, len(qual))
        snap = self.del_snapshot.pop(epoch)
        if hi - lo + 1 != len(snap):
            raise SimulationFault("delete share does not match snapshot")
        for offset, req in enumerate(snap):
            pos = lo + offset
            req.assigned = pos
            if pos <= k_star:
                token = (epoch, req.seq)
                self.outstanding_gets[token] = req
                self.dht_get((epoch, pos), self._pos_key(epoch, pos), token)
            else:
                req.returned = BOTTOM
        self._close_gets(epoch)

    def on_GetReplyMsg(self, msg: GetReplyMsg) -> None:
        req = self.outstanding_gets.pop(msg.token)
        req.returned = msg.element
        self._close_gets(msg.token[0])

    def _close_gets(self, epoch: int) -> None:
        """Once every get of ``epoch`` has returned, enter the next epoch."""
        if not self.outstanding_gets:
            self._enter(epoch + 1)


def finalize_records(records: list[OperationRecord]) -> list[OperationRecord]:
    """Number the records in place by the constructed serialization and
    return them in that order.

    Per epoch: inserts in ascending element order, then deletes ordered by
    the key of the element they return, then the bottoms by assigned
    position.
    """

    def serial_key(r: OperationRecord) -> tuple:
        if r.kind == INSERT:
            return r.epoch, 0, r.element.key
        if r.returned == BOTTOM:
            return r.epoch, 2, r.assigned
        return r.epoch, 1, r.returned.key

    records = sorted(records, key=serial_key)
    for index, rec in enumerate(records, start=1):
        rec.serial_index = index
    return records


def build_skeap_plus(sim: Simulator, topo: CycleTopology, script: Script | None = None) -> list:
    return build(SkeapPlusNode, sim, topo, script)

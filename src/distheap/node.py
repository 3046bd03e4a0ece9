"""Protocol node base: tree waves, overlay routing, and the embedded DHT.

Every protocol in this package is built from three primitives running on
the virtual-node overlay:

* floods: the anchor pushes an announcement down the tree; every virtual
  node sees it exactly once.
* waves: values flow leaf-to-root, combined at each virtual node in a
  fixed order (own contribution first, then children ascending by
  label); each session remembers the parts it combined so a matching
  share can later be decomposed root-to-leaf in the same order.
* routed operations: a message hops along the de Bruijn emulation to the
  virtual node responsible for a key.  Put/Get pairs rendezvous there; a
  Get that arrives before its Put parks until the Put shows up.

Sessions are keyed by (kind, key, virtual node), so pipelined epochs and
overlapping protocol steps never interfere even under adversarial
asynchronous delivery.

Every message class derives its size from one rule (``Message``): the sum
of its fields' sizes, where a field annotated ``Nat`` costs ``nat_bits``
and any other field costs ``value_bits`` (an ``int`` there keeps a sign
bit); the simulator adds the 8-bit tag.  ``RouteMsg`` alone sizes itself,
adding the routed operation's size cached when the route starts.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from typing import Annotated, Any, Callable

from .batches import Batch, EntryShare
from .overlay import MIDDLE, CycleTopology, VirtualId
from .sim import Element, ProtocolNode, SimulationFault, Simulator, nat_bits


def _sequence_bits(sim: Simulator, obj: tuple | list) -> int:
    return nat_bits(len(obj)) + sum(value_bits(sim, x) for x in obj)


# Bit accounting per message field type.
_FIELD_BITS: dict[type, Callable[[Simulator, Any], int]] = {
    type(None): lambda sim, obj: 1,
    bool: lambda sim, obj: 1,
    int: lambda sim, obj: nat_bits(abs(obj)) + 1,
    float: lambda sim, obj: sim.label_bits,
    str: lambda sim, obj: 8,
    Element: lambda sim, obj: obj.bits(),
    Batch: lambda sim, obj: obj.bits(),
    EntryShare: lambda sim, obj: obj.bits(),
    VirtualId: lambda sim, obj: nat_bits(obj.owner) + 2,
    tuple: _sequence_bits,
    list: _sequence_bits,
}


def value_bits(sim: Simulator, obj: Any) -> int:
    """Modeled bit size of a message field."""
    rule = _FIELD_BITS.get(type(obj))
    if rule is None:
        # a subclass is sized by its nearest accounted base
        rule = next((_FIELD_BITS[t] for t in type(obj).__mro__ if t in _FIELD_BITS), None)
        if rule is None:
            raise SimulationFault(f"no bit accounting for {type(obj).__name__}")
    return rule(sim, obj)


Nat = Annotated[int, "natural"]  # a message field sized by ``nat_bits``, unsigned


@cache
def _size_plan(cls: type) -> tuple[tuple[str, bool], ...]:
    # names and natural flags only: the helpers are resolved at call time
    return tuple((f.name, f.type in (Nat, "Nat")) for f in fields(cls))


class Message:
    """A modeled message: its size is the sum of its fields' sizes.

    A field annotated ``Nat`` costs ``nat_bits`` (no sign bit); every other
    field costs ``value_bits``.  The simulator adds the 8-bit tag.
    """

    __slots__ = ()

    def size_bits(self, sim: Simulator) -> int:
        total = 0
        for name, natural in _size_plan(type(self)):
            value = getattr(self, name)
            total += nat_bits(value) if natural else value_bits(sim, value)
        return total


@dataclass(slots=True)
class FloodMsg(Message):
    kind: str
    key: tuple
    vid: VirtualId
    payload: Any


@dataclass(slots=True)
class WaveUpMsg(Message):
    kind: str
    key: tuple
    parent: VirtualId
    child: VirtualId
    value: Any


@dataclass(slots=True)
class WaveDownMsg(Message):
    kind: str
    key: tuple
    vid: VirtualId
    share: Any


@dataclass(slots=True)
class RouteMsg:
    key: float
    start_label: float
    hop: int
    vid: VirtualId
    inner: Any
    inner_bits: int  # ``inner.size_bits``, computed once when the route starts

    def size_bits(self, sim: Simulator) -> int:
        return (
            2 * sim.label_bits
            + nat_bits(self.hop)
            + value_bits(sim, self.vid)
            + self.inner_bits
        )


@dataclass(slots=True)
class PutOp(Message):
    ns: str
    key_id: tuple
    element: Element
    reply_to: int
    token: Any


@dataclass(slots=True)
class GetOp(Message):
    ns: str
    key_id: tuple
    requester: int
    token: Any


@dataclass(slots=True)
class PutAckMsg(Message):
    ns: str
    token: Any


@dataclass(slots=True)
class GetReplyMsg(Message):
    ns: str
    token: Any
    element: Element


def split_interval(
    share: tuple, own: int, child_counts: list[int]
) -> tuple[tuple, list[tuple]]:
    """Carve ``share = (lo, hi, *rest)`` into consecutive intervals.

    The own interval holds ``own`` positions and comes first, then one
    interval per child count in combine order; each carries ``rest``
    along.  The counts must cover ``[lo, hi]`` exactly.
    """
    lo, hi, *rest = share
    cursor = lo
    pieces = []
    for count in (own, *child_counts):
        pieces.append((cursor, cursor + count - 1, *rest))
        cursor += count
    if cursor != hi + 1:
        raise SimulationFault(
            f"interval [{lo}, {hi}] does not match counts {[own, *child_counts]}"
        )
    return pieces[0], pieces[1:]


class _WaveSession:
    __slots__ = ("own", "have_own", "child_values", "sent", "combined")

    def __init__(self) -> None:
        self.own: Any = None
        self.have_own = False
        self.child_values: dict[VirtualId, Any] = {}
        self.sent = False
        self.combined: Any = None


class OverlayNode(ProtocolNode):
    """A real node emulating its three virtual overlay positions."""

    def __init__(self, sim: Simulator, node_id: int, topo: CycleTopology):
        super().__init__(sim, node_id)
        self.topo = topo
        self.vids = tuple(VirtualId(node_id, kind) for kind in "LMR")
        self.middle = VirtualId(node_id, MIDDLE)
        self.is_anchor = topo.root.owner == node_id
        self._waves: dict[tuple, _WaveSession] = {}
        self.storage: dict[tuple, Element] = {}
        self.waiting_gets: dict[tuple, tuple[int, Any]] = {}

    # -- dispatch ------------------------------------------------------------
    def on_message(self, src: int, payload: Any) -> None:
        if isinstance(payload, WaveUpMsg):
            self._wave_receive(payload)
        elif isinstance(payload, WaveDownMsg):
            self._wave_down(payload)
        elif isinstance(payload, FloodMsg):
            self._flood_receive(payload)
        elif isinstance(payload, RouteMsg):
            self._route_receive(payload)
        elif isinstance(payload, PutAckMsg):
            self.on_put_ack(payload.ns, payload.token)
        elif isinstance(payload, GetReplyMsg):
            self.on_get_reply(payload.ns, payload.token, payload.element)
        else:
            self.on_protocol_message(src, payload)

    def on_protocol_message(self, src: int, payload: Any) -> None:
        raise SimulationFault(f"unhandled message {type(payload).__name__}")

    def send_vid(self, vid: VirtualId, payload: Any) -> None:
        self.sim.send(self.id, vid.owner, payload)

    # -- waves -----------------------------------------------------------------
    def _session(self, kind: str, key: tuple, vid: VirtualId) -> _WaveSession:
        sk = (kind, key, vid)
        sess = self._waves.get(sk)
        if sess is None:
            sess = self._waves[sk] = _WaveSession()
        return sess

    def wave_contribute(self, kind: str, key: tuple, vid: VirtualId, value: Any) -> None:
        sess = self._session(kind, key, vid)
        if sess.have_own:
            raise SimulationFault(f"duplicate contribution to {kind}{key} at {vid}")
        sess.own = value
        sess.have_own = True
        self._wave_try(kind, key, vid)

    def contribute_all(self, kind: str, key: tuple, real_value: Any, neutral: Any) -> None:
        """Contribute a node-level value at the middle vnode, neutrals elsewhere."""
        for vid in self.vids:
            self.wave_contribute(
                kind, key, vid, real_value if vid.kind == MIDDLE else neutral
            )

    def _wave_receive(self, msg: WaveUpMsg) -> None:
        sess = self._session(msg.kind, msg.key, msg.parent)
        if msg.child in sess.child_values:
            raise SimulationFault("duplicate child value in wave")
        sess.child_values[msg.child] = msg.value
        self._wave_try(msg.kind, msg.key, msg.parent)

    def _wave_try(self, kind: str, key: tuple, vid: VirtualId) -> None:
        sess = self._session(kind, key, vid)
        kids = self.topo.children[vid]
        if sess.sent or not sess.have_own or any(c not in sess.child_values for c in kids):
            return
        parts = [sess.own] + [sess.child_values[c] for c in kids]
        sess.combined = self.wave_combine(kind, parts)
        sess.sent = True
        if vid == self.topo.root:
            self.wave_root(kind, key, sess.combined)
        else:
            parent = self.topo.parent[vid]
            self.send_vid(parent, WaveUpMsg(kind, key, parent, vid, sess.combined))

    def wave_down(self, kind: str, key: tuple, vid: VirtualId, share: Any) -> None:
        """Decompose ``share`` at ``vid`` and push child shares down."""
        sess = self._session(kind, key, vid)
        if not sess.sent:
            raise SimulationFault(f"share for {kind}{key} arrived before the wave combined")
        kids = self.topo.children[vid]
        own_share, child_shares = self.wave_split(kind, key, vid, sess, share)
        for child, child_share in zip(kids, child_shares):
            self.send_vid(child, WaveDownMsg(kind, key, child, child_share))
        self.wave_deliver(kind, key, vid, own_share)

    def _wave_down(self, msg: WaveDownMsg) -> None:
        self.wave_down(msg.kind, msg.key, msg.vid, msg.share)

    # protocol hooks
    def wave_combine(self, kind: str, parts: list[Any]) -> Any:
        raise SimulationFault(f"no combiner for wave {kind!r}")

    def wave_root(self, kind: str, key: tuple, combined: Any) -> None:
        raise SimulationFault(f"unexpected wave {kind!r} at the anchor")

    def wave_split(
        self, kind: str, key: tuple, vid: VirtualId, sess: _WaveSession, share: Any
    ) -> tuple[Any, list[Any]]:
        # default: replicate the share to every child (pure broadcast)
        return share, [share] * len(self.topo.children[vid])

    def wave_deliver(self, kind: str, key: tuple, vid: VirtualId, share: Any) -> None:
        pass

    # -- floods ------------------------------------------------------------------
    def flood(self, kind: str, key: tuple, payload: Any) -> None:
        if not self.is_anchor:
            raise SimulationFault("only the anchor floods")
        self._flood_receive(FloodMsg(kind, key, self.topo.root, payload))

    def _flood_receive(self, msg: FloodMsg) -> None:
        for child in self.topo.children[msg.vid]:
            self.send_vid(child, FloodMsg(msg.kind, msg.key, child, msg.payload))
        self.on_flood(msg.kind, msg.key, msg.vid, msg.payload)

    def on_flood(self, kind: str, key: tuple, vid: VirtualId, payload: Any) -> None:
        pass

    # -- routing and DHT -----------------------------------------------------------
    def route_send(self, key: float, inner: Any) -> None:
        start = self.middle
        self._route_advance(
            start, key, self.topo.label(start), 0, inner, inner.size_bits(self.sim)
        )

    def _route_receive(self, msg: RouteMsg) -> None:
        self._route_advance(
            msg.vid, msg.key, msg.start_label, msg.hop, msg.inner, msg.inner_bits
        )

    def _route_advance(
        self, vid: VirtualId, key: float, start_label: float, hop: int, inner: Any,
        inner_bits: int,
    ) -> None:
        nxt = self.topo.route_step(vid, key, start_label, hop)
        if nxt is None:
            self._route_arrived(vid, key, inner)
        else:
            self.send_vid(nxt, RouteMsg(key, start_label, hop + 1, nxt, inner, inner_bits))

    def _route_arrived(self, vid: VirtualId, key: float, inner: Any) -> None:
        if isinstance(inner, PutOp):
            slot = (inner.ns, inner.key_id)
            waiter = self.waiting_gets.pop(slot, None)
            if waiter is not None:
                requester, token = waiter
                self.sim.send(self.id, requester, GetReplyMsg(inner.ns, token, inner.element))
            else:
                if slot in self.storage:
                    raise SimulationFault(f"duplicate put under {slot}")
                self.storage[slot] = inner.element
            self.sim.send(self.id, inner.reply_to, PutAckMsg(inner.ns, inner.token))
        elif isinstance(inner, GetOp):
            slot = (inner.ns, inner.key_id)
            if slot in self.storage:
                element = self.storage.pop(slot)
                self.sim.send(
                    self.id, inner.requester, GetReplyMsg(inner.ns, inner.token, element)
                )
            else:
                if slot in self.waiting_gets:
                    raise SimulationFault(f"two gets parked under {slot}")
                self.waiting_gets[slot] = (inner.requester, inner.token)
        else:
            self.on_routed(vid, key, inner)

    def on_routed(self, vid: VirtualId, key: float, inner: Any) -> None:
        raise SimulationFault(f"unhandled routed payload {type(inner).__name__}")

    def dht_put(self, ns: str, key_id: tuple, key: float, element: Element, token: Any) -> None:
        self.route_send(key, PutOp(ns, key_id, element, self.id, token))

    def dht_get(self, ns: str, key_id: tuple, key: float, token: Any) -> None:
        self.route_send(key, GetOp(ns, key_id, self.id, token))

    def on_put_ack(self, ns: str, token: Any) -> None:
        pass

    def on_get_reply(self, ns: str, token: Any, element: Element) -> None:
        pass

"""Protocol node base: tree waves, overlay routing, and the embedded DHT.

Every protocol in this package is built from three primitives running on
the virtual-node overlay:

* floods: the anchor pushes an announcement down the tree; every real
  node sees it exactly once, at its middle virtual node.
* waves: values flow leaf-to-root, combined at each virtual node in a
  fixed order (own part first, then children ascending by label); each
  session remembers the parts it combined so a matching share can later
  be split root-to-leaf over the same parts, in the same order, and the
  middle virtual node's own share is delivered; the split ends the
  session, and nothing else does: the anchor sends a two-way wave's
  share down even when it is empty.  Whether a wave kind has a down half
  is not declared but read off the node: it does exactly when the node
  delivers that kind's share (below).  A one-way wave's session ends
  when its combine is sent.  A share the node does not split itself is
  an interval ``(lo, hi, *rest)`` split by the parts' counts
  (``split_interval``); Skeap splits a batch share.
* routed operations: a message hops along the de Bruijn emulation to the
  virtual node responsible for a key.  A route is one ``RouteMsg``:
  ``route_send`` builds it and takes the first step, and each later hop
  sets its ``hop`` and ``vid`` and posts the same object on.  That is
  safe because a message has one holder at a time: the engine reads a
  queued message no more once it is delivered and pops a hand-off
  before it runs, so no one reads the message's old hop.  ``send`` still sizes every hop
  from the message's fields.  Put/Get pairs rendezvous at the end of
  the route; a Get that arrives before its Put parks until the Put shows
  up.  A Put that carries a token is acknowledged to its issuer (a
  ``PutAckMsg``); a Put with ``token=None`` is fire-and-forget, so no
  protocol pays for an ack it does not read.  A route that has not
  arrived after ``CycleTopology.max_route_hops`` hops is a fault, not a
  hang.

A node's requests and elements live at its middle virtual node (M), so
floods and waves run on the tree without its right (R) leaves
(``CycleTopology.inner_children``): M holds the node's one part
(``contribute_all``), a left virtual node (L) only relays, combining and
splitting its children's parts, and R takes no part.  A contribution at
L or R is a fault.

Sessions are keyed by (kind, key, virtual node), so pipelined epochs and
overlapping protocol steps never interfere even under adversarial
asynchronous delivery.

The anchor answers every barrier with a program: a generator on one
driver (``run_program``) that all three protocols share.  A program sends
its own messages and yields the barrier it waits for, ``(wave kind, key)``
or a protocol's own, such as KSelect's ``("probes", key)``; ``resume``
hands the wave's combined value at the root, or the protocol's report, to
the program waiting for it.  A barrier that no program waits for, and two
programs waiting for one barrier, are faults; a node is not ``done`` while
one of its programs still waits.

A real node emulates its virtual nodes, so a step between two of them is
local state, not a link: ``post`` turns a payload a node addresses to
itself into a local hand-off (``Simulator.hand_off``), which is not a
message and costs no round.  Floods and waves use n of the 2n - 1 edges
of the tree without R, one from each M up to its own L, as hand-offs, so
a flood sends exactly n - 1 messages and a barrier costs rounds only for
the edges between real nodes; route hops and DHT replies that stay on
one node are hand-offs too.

Every message class derives its size from one rule (``Message``): the sum
of its fields' sizes, where a field annotated ``Nat`` costs ``nat_bits``
and any other field costs ``value_bits`` (an ``int`` there keeps a sign
bit); the simulator adds the 8-bit tag.  Two annotations let a message
carry a size computed once: a ``SizeBits`` field costs its value, and the
``Presized`` field whose size it holds costs nothing.  ``RouteMsg`` sizes
its routed operation that way, once when the route starts.

The rule does not change with how it is evaluated:

* each class sizes a message with one function built from its dataclass
  fields on the class's first sizing and kept in ``_SIZERS``, a dict
  keyed by class, so ``Message.size_bits`` is one dict lookup and a
  call; no class gets a ``size_bits`` of its own.  A ``Nat`` field is
  sized inline as ``max(v, 2).bit_length()`` (a negative value still
  faults); a field annotated ``float``, ``str``, ``tuple``,
  ``VirtualId`` or ``Element`` whose value has exactly that type takes
  the matching ``value_bits`` rule inline; any other value goes through
  ``value_bits``.
* a tuple whose elements are all value-sized (``int``, ``str``, ``None``,
  ``Element``, ``VirtualId``) is sized once per run and then looked up by
  value in ``Simulator.size_memo``.  Tuples holding a ``bool`` or
  ``float`` (equal to an ``int`` yet sized differently) or a mutable or
  container element are sized element by element every time.

One rule takes every message, flood and wave to its handler: a node
handles a message of type ``T`` in its method ``on_T(msg)``, and a routed
operation of type ``T`` that arrives in ``on_T(op, vid)``, at the virtual
node ``vid`` it reached (``ast.NodeVisitor.visit_<ClassName>`` works the
same way).  Likewise, for a flood or wave of kind ``k``, a node handles
the flood in ``flood_k(key, payload)``, combines the wave's parts in
``combine_k(parts)``, splits its share in ``split_k(share, parts)`` (by
counts when it has none) and delivers M's share in ``deliver_k(key,
share)``; a wave kind is two-way exactly when the node has
``deliver_k``.  A node with no handler for a message, a routed
operation, a flood or a combine raises ``SimulationFault`` where it looks
the handler up, so what the protocol does not handle fails the run
instead of being dropped; a share sent down a wave with no ``deliver_k``
finds its session already gone, which is a fault too.  Each handler's
name is built once per type (``_HANDLER_NAMES``) or per role and kind
(``_KIND_HANDLER_NAMES``) and interned, so each lookup is one dict lookup
and a hit in the interpreter's method cache.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import Annotated, Any, Callable, Generator

from .batches import Batch, EntryShare
from .overlay import MIDDLE, CycleTopology, VirtualId
from .sim import Element, ProtocolNode, SimulationFault, Simulator, nat_bits


def _sequence_bits(sim: Simulator, obj: tuple | list) -> int:
    return nat_bits(len(obj)) + sum(value_bits(sim, x) for x in obj)


# Element types whose equal values always have equal sizes.  Not ``bool`` or
# ``float``: ``(1, 2) == (True, 2) == (1.0, 2)`` but the three cost different
# bits.  Not the mutable ``EntryShare`` or lists, nor ``Batch`` or nested
# tuples, containers whose own elements would need the same check; not int
# subclasses either.
_VALUE_SIZED = frozenset({int, str, type(None), Element, VirtualId})


def _tuple_bits(sim: Simulator, obj: tuple) -> int:
    """``_sequence_bits``, looked up in the run's memo when every element is
    value-sized, so each distinct protocol key is sized once per run."""
    if not _VALUE_SIZED.issuperset(map(type, obj)):
        return _sequence_bits(sim, obj)
    bits = sim.size_memo.get(obj)
    if bits is None:
        bits = sim.size_memo[obj] = _sequence_bits(sim, obj)
    return bits


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
    tuple: _tuple_bits,
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
# A field holding the size in bits of another field costs that value; the
# field whose size it holds costs nothing on its own.
SizeBits = Annotated[int, "size in bits"]
Presized = Annotated[Any, "sized by a SizeBits field"]

# Field annotation -> (guard, size): a value that passes the guard is sized by
# the inlined rule, anything else by ``value_bits``.  The guards test exact
# types, so a subclass, a ``bool`` or a negative owner takes the full rule.
# ``(2 if 2 > x else x)`` is ``max(x, 2)`` without the builtin call.
_FAST_PATHS = {
    "float": ("type(v) is float", "sim.label_bits"),
    "str": ("type(v) is str", "8"),
    "tuple": ("type(v) is tuple", "_tuple_bits(sim, v)"),
    "VirtualId": (
        "type(v) is VirtualId and v.owner >= 0",
        "(2 if 2 > v.owner else v.owner).bit_length() + 2",
    ),
    "Element": ("type(v) is Element", "v.bits()"),
}


def _field_size(annotation: Any) -> str:
    """The expression that sizes a field's value ``v`` (``sim`` in scope)."""
    if annotation in (Nat, "Nat"):
        # ``nat_bits`` inlined; it still raises the negative-natural fault
        return "(2 if 2 > v else v).bit_length() if v >= 0 else nat_bits(v)"
    if annotation in (SizeBits, "SizeBits"):
        return "v"
    if annotation in (Presized, "Presized"):
        return "0"
    name = annotation if isinstance(annotation, str) else getattr(annotation, "__name__", "")
    fast = _FAST_PATHS.get(name.split("[")[0].split("|")[0].strip())
    if fast is None:
        return "value_bits(sim, v)"
    guard, size = fast
    return f"{size} if {guard} else value_bits(sim, v)"


def _build_sizer(cls: type) -> Callable[[Any, Simulator], int]:
    """``cls``'s size function, built from its dataclass fields.

    The function resolves the helpers it calls in this module's globals at
    call time, so rebinding one of them (as the benchmark's tracer does)
    reaches every class, and undoing it leaves nothing behind.
    """
    lines = ["def size_bits(self, sim):", "    bits = 0"]
    for f in fields(cls):
        size = _field_size(f.type)
        if size != "0":  # a ``Presized`` field adds nothing
            lines += [f"    v = self.{f.name}", f"    bits += {size}"]
    lines.append("    return bits")
    namespace: dict[str, Any] = {}
    exec("\n".join(lines), globals(), namespace)
    return namespace["size_bits"]


class _BuiltOnce(dict):
    """A dict that builds the value of a missing key with ``build(key)`` on
    the key's first lookup and keeps it."""

    def __init__(self, build: Callable[[Any], Any]) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.build(key)
        return value


# message class -> its size function, built on the class's first sizing
_SIZERS: dict[type, Callable[[Any, Simulator], int]] = _BuiltOnce(_build_sizer)


class Message:
    """A modeled message: its size is the sum of its fields' sizes.

    A field annotated ``Nat`` costs ``nat_bits`` (no sign bit), a ``SizeBits``
    field its value and a ``Presized`` field nothing; every other field
    costs ``value_bits``.  The simulator adds the 8-bit tag.  Each
    class evaluates this rule with one function built from its fields
    (``_SIZERS``).
    """

    __slots__ = ()

    def size_bits(self, sim: Simulator) -> int:
        return _SIZERS[type(self)](self, sim)


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
class RouteMsg(Message):
    key: float
    start_label: float
    hop: Nat
    vid: VirtualId
    inner: Presized
    inner_bits: SizeBits  # ``inner.size_bits``, computed once when the route starts


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


# message type -> ``on_<type name>``, the name of the method that handles
# it; built and interned on the type's first lookup
_HANDLER_NAMES: dict[type, str] = _BuiltOnce(lambda cls: sys.intern("on_" + cls.__name__))

# (role, kind) -> ``<role>_<kind>``, the name of the method that handles a
# flood or wave of that kind in that role (``flood``, ``combine``, ``split``
# or ``deliver``); built and interned on the pair's first lookup
_KIND_HANDLER_NAMES: dict[tuple[str, str], str] = _BuiltOnce(lambda rk: sys.intern("_".join(rk)))


def split_interval(share: tuple, counts: list[int]) -> list[tuple]:
    """Carve ``share = (lo, hi, *rest)`` into consecutive intervals.

    One interval per count, in order, each carrying ``rest`` along; a zero
    count gets the empty ``(c, c - 1)``.  The counts must cover
    ``[lo, hi]`` exactly.
    """
    lo, hi, *rest = share
    cursor = lo
    pieces = []
    for count in counts:
        pieces.append((cursor, cursor + count - 1, *rest))
        cursor += count
    if cursor != hi + 1:
        raise SimulationFault(f"interval [{lo}, {hi}] does not match counts {counts}")
    return pieces


_MISSING = object()  # a wave part that has not arrived


def _first_child(vid: VirtualId) -> int:
    """The index of ``vid``'s first child's part: M's own part comes first."""
    return 1 if vid.kind == MIDDLE else 0


class _WaveSession:
    """A virtual node's parts of one wave in combine order: M's own part
    first, then its children's ascending by label."""

    __slots__ = ("parts", "missing")

    def __init__(self, size: int) -> None:
        self.parts: list[Any] = [_MISSING] * size
        self.missing = size  # the session has combined once it reaches 0


class OverlayNode(ProtocolNode):
    """A real node emulating its three virtual overlay positions."""

    def __init__(self, sim: Simulator, node_id: int, topo: CycleTopology):
        super().__init__(sim, node_id)
        self.topo = topo
        self.middle = VirtualId(node_id, MIDDLE)
        self.is_anchor = topo.root.owner == node_id
        self._waves: dict[tuple, _WaveSession] = {}
        self.storage: dict[tuple, Element] = {}
        self.waiting_gets: dict[tuple, tuple[int, Any]] = {}
        # anchor only: each running anchor program by the barrier it waits for
        self._programs: dict[tuple, Generator] = {}

    @property
    def done(self) -> bool:
        return not self._programs and not self.waiting_gets

    # -- anchor programs -----------------------------------------------------------
    def run_program(self, program: Generator, answer: Any = None) -> None:
        """Send ``answer`` to an anchor program (``None`` starts it) and file
        it under the barrier it waits for next, until it returns."""
        try:
            barrier = program.send(answer)
        except StopIteration:
            return
        if barrier in self._programs:
            raise SimulationFault(f"two anchor programs wait for {barrier}")
        self._programs[barrier] = program

    def resume(self, barrier: tuple, answer: Any) -> None:
        """Resume the anchor program waiting for ``barrier`` with ``answer``."""
        program = self._programs.pop(barrier, None)
        if program is None:
            raise SimulationFault(f"barrier {barrier} reached the anchor unasked")
        self.run_program(program, answer)

    # -- dispatch ------------------------------------------------------------
    def on_message(self, src: int, payload: Any) -> None:
        """Hand ``payload``, of type T, to ``on_T``."""
        handler = getattr(self, _HANDLER_NAMES[type(payload)], None)
        if handler is None:
            raise SimulationFault(f"unhandled message {type(payload).__name__}")
        handler(payload)

    def _handler(self, role: str, kind: str) -> Callable:
        """This node's ``<role>_<kind>``; a node without it fails here."""
        handler = getattr(self, _KIND_HANDLER_NAMES[role, kind], None)
        if handler is None:
            raise SimulationFault(f"unhandled {role} {kind!r}")
        return handler

    def post(self, dst: int, payload: Any) -> None:
        """Send ``payload`` to real node ``dst``; to this node itself it is a
        local hand-off (``Simulator.hand_off``), not a message."""
        if dst == self.id:
            self.sim.hand_off(dst, payload)
        else:
            self.sim.send(self.id, dst, payload)

    # -- waves -----------------------------------------------------------------
    def _wave_add(self, kind: str, key: tuple, vid: VirtualId, i: int, value: Any) -> None:
        """File ``value`` as part ``i`` of ``vid``'s session; once every part
        is here, combine them and send the result up."""
        sk = (kind, key, vid)
        sess = self._waves.get(sk)
        if sess is None:
            size = _first_child(vid) + len(self.topo.inner_children[vid])
            sess = self._waves[sk] = _WaveSession(size)
        if sess.parts[i] is not _MISSING:
            raise SimulationFault(f"duplicate part {i} of {kind}{key} at {vid}")
        sess.parts[i] = value
        sess.missing -= 1
        if sess.missing:
            return
        combined = self._handler("combine", kind)(sess.parts)
        if not hasattr(self, _KIND_HANDLER_NAMES["deliver", kind]):
            del self._waves[sk]  # a one-way wave: no share will come down
        if vid == self.topo.root:
            self.resume((kind, key), combined)
        else:
            parent = self.topo.parent[vid]
            self.post(parent.owner, WaveUpMsg(kind, key, parent, vid, combined))

    def wave_contribute(self, kind: str, key: tuple, vid: VirtualId, value: Any) -> None:
        """Contribute ``value`` at ``vid``, which must be a middle virtual node."""
        if vid.kind != MIDDLE:
            raise SimulationFault(f"{vid} holds no part of wave {kind}{key}")
        self._wave_add(kind, key, vid, 0, value)

    def contribute_all(self, kind: str, key: tuple, value: Any) -> None:
        """Contribute this node's part of wave ``kind``, at its middle vnode."""
        self.wave_contribute(kind, key, self.middle, value)

    def on_WaveUpMsg(self, msg: WaveUpMsg) -> None:
        kind, key, parent, child = msg.kind, msg.key, msg.parent, msg.child
        kids = self.topo.inner_children.get(parent, ())
        if child not in kids:
            raise SimulationFault(f"{child} is no child of {parent} in wave {kind}{key}")
        self._wave_add(kind, key, parent, _first_child(parent) + kids.index(child), msg.value)

    def wave_down(self, kind: str, key: tuple, vid: VirtualId, share: Any) -> None:
        """Split ``share`` at ``vid`` over the combined parts, push child
        shares down and deliver M's own.  The session ends here."""
        sess = self._waves.pop((kind, key, vid), None)
        if sess is None or sess.missing:
            raise SimulationFault(f"{kind}{key} at {vid} ended before the wave combined")
        split = getattr(self, _KIND_HANDLER_NAMES["split", kind], None)
        shares = split_interval(share, sess.parts) if split is None else split(share, sess.parts)
        first = _first_child(vid)
        for child, child_share in zip(self.topo.inner_children[vid], shares[first:]):
            self.post(child.owner, WaveDownMsg(kind, key, child, child_share))
        if first:
            self._handler("deliver", kind)(key, shares[0])

    def on_WaveDownMsg(self, msg: WaveDownMsg) -> None:
        self.wave_down(msg.kind, msg.key, msg.vid, msg.share)

    # -- floods ------------------------------------------------------------------
    def flood(self, kind: str, key: tuple, payload: Any) -> None:
        if not self.is_anchor:
            raise SimulationFault("only the anchor floods")
        self.on_FloodMsg(FloodMsg(kind, key, self.topo.root, payload))

    def on_FloodMsg(self, msg: FloodMsg) -> None:
        for child in self.topo.inner_children[msg.vid]:
            self.post(child.owner, FloodMsg(msg.kind, msg.key, child, msg.payload))
        if msg.vid.kind == MIDDLE:  # L only relays
            self._handler("flood", msg.kind)(msg.key, msg.payload)

    # -- routing and DHT -----------------------------------------------------------
    def route_send(self, key: float, inner: Any) -> None:
        """Route ``inner`` from this node's middle virtual node to the one
        responsible for ``key``, in one ``RouteMsg`` for the whole route."""
        start = self.middle
        self.on_RouteMsg(
            RouteMsg(key, self.topo.label(start), 0, start, inner, inner.size_bits(self.sim))
        )

    def on_RouteMsg(self, msg: RouteMsg) -> None:
        """One step of a route at ``msg.vid``: the routed operation arrives,
        or ``msg`` itself moves on one hop (see the module docstring)."""
        vid, hop = msg.vid, msg.hop
        nxt = self.topo.route_step(vid, msg.key, msg.start_label, hop)
        if nxt is None:  # arrived: the operation, of type T, goes to ``on_T``
            inner = msg.inner
            handler = getattr(self, _HANDLER_NAMES[type(inner)], None)
            if handler is None:
                raise SimulationFault(f"unhandled message {type(inner).__name__}")
            handler(inner, vid)
        elif hop < self.topo.max_route_hops:
            msg.hop = hop + 1
            msg.vid = nxt
            self.post(nxt.owner, msg)
        else:
            raise SimulationFault(f"route to {msg.key} from {msg.start_label} failed to arrive")

    def on_PutOp(self, op: PutOp, vid: VirtualId) -> None:
        slot = (op.ns, op.key_id)
        waiter = self.waiting_gets.pop(slot, None)
        if waiter is not None:
            requester, token = waiter
            self.post(requester, GetReplyMsg(op.ns, token, op.element))
        else:
            if slot in self.storage:
                raise SimulationFault(f"duplicate put under {slot}")
            self.storage[slot] = op.element
        if op.token is not None:
            self.post(op.reply_to, PutAckMsg(op.ns, op.token))

    def on_GetOp(self, op: GetOp, vid: VirtualId) -> None:
        slot = (op.ns, op.key_id)
        if slot in self.storage:
            element = self.storage.pop(slot)
            self.post(op.requester, GetReplyMsg(op.ns, op.token, element))
        else:
            if slot in self.waiting_gets:
                raise SimulationFault(f"two gets parked under {slot}")
            self.waiting_gets[slot] = (op.requester, op.token)

    def dht_put(self, ns: str, key_id: tuple, key: float, element: Element, token: Any) -> None:
        """Store ``element`` under ``(ns, key_id)`` at the node responsible
        for ``key``.  The put is acknowledged with a ``PutAckMsg`` to
        ``on_PutAckMsg`` only if ``token`` is not None; with None it is
        fire-and-forget."""
        self.route_send(key, PutOp(ns, key_id, element, self.id, token))

    def dht_get(self, ns: str, key_id: tuple, key: float, token: Any) -> None:
        """Fetch the element under ``(ns, key_id)``; it comes back in a
        ``GetReplyMsg`` to ``on_GetReplyMsg``."""
        self.route_send(key, GetOp(ns, key_id, self.id, token))


def build(cls: type, sim: Simulator, topo: CycleTopology, *args: Any) -> list:
    """One ``cls`` node per real node, each added to ``sim``; ``args`` go to
    every node's constructor after ``(sim, node_id, topo)``."""
    nodes = [cls(sim, v, topo, *args) for v in range(sim.cfg.n)]
    for node in nodes:
        sim.add_node(node)
    return nodes

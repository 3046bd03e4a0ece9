"""Deterministic discrete-event engine for message-passing protocols.

Two execution modes share one node model, and in both each node's
``start`` runs once:

* synchronous rounds: every message sent in round ``i`` is handled in
  round ``i + 1``.  A send appends the message, as the plain tuple
  ``(src, payload, bits, seq)``, to its destination's list in the
  outbox, and keeps the largest size queued so far.  A round takes the
  outbox and that size over together and delivers the previous round's
  sends by destination id, each destination's list in send order.  The
  first round then starts every node, in id order.  Round metrics are
  recorded in this mode and read off what the round took over:
  messages delivered and congestion from the lists' lengths, the
  largest message from the size kept at send time.  Both run loops
  deliver inline, with no call per message: one delivery method shared
  by the two measured about 2% slower on KSelect (``BENCH_32.json``).
* asynchronous schedule: a seeded scheduler draws every node a random
  start time and every message a random delivery deadline, each at most
  ``ASYNC_DELAY_MAX`` clock ticks in the future.  ``_deadline`` draws
  each delay through ``hashing.below`` from one ``random.Random`` per
  run, seeded by ``mix64(seed, Tag.SCHEDULE, schedule_seed)``.  The
  start times are drawn first, and a tick runs its starts, from the
  highest id down, before its deliveries, in send order.  Since every
  deadline falls in the window of the next ``ASYNC_DELAY_MAX`` ticks,
  the events are filed in a ring of ``ASYNC_DELAY_MAX + 1`` lists, tick
  ``t``'s at ``t % (ASYNC_DELAY_MAX + 1)``: a calendar queue with one
  tick per bucket (R. Brown, CACM 31(10), 1988).  A send appends the
  tuple ``(src, dst, payload, bits)`` to its deadline's list, never to
  the list being run, and a pick runs the next non-empty list in order.
  A deadline outside the window raises a ``SimulationFault``.  Seap ran
  5.8% faster on the ring than on a binary heap (``BENCH_33.json``).
  Delivery is non-FIFO, never drops or duplicates, and is always within
  the deadline, which makes runs terminating and replayable.  The
  protocols do not depend on the schedule: for a fixed set of requests
  per epoch, a heap run records, field by field, what its synchronous
  run records, and a selection reports the same answer, retries and
  pruning steps, under any schedule of this kind.  So async correctness
  is sync correctness plus that equality (``tests/test_schedules.py``).
* local hand-offs (``hand_off``): a real node that addresses itself, as
  when one of its virtual nodes talks to another, hands the payload to
  its own ``on_message``.  A hand-off is not a message: it is not sized,
  counted or traced, draws nothing from the scheduler and costs no round
  or tick.  Queued hand-offs run in FIFO order after the current handler
  (delivery or start) returns, before the next event; those queued
  outside any handler run before the next round or the first pick.
  ``send`` stays a message whatever its endpoints, also from a node to
  itself.

In both modes a payload has one holder at a time: the engine hands a
delivered message's payload to its recipient and keeps no reference it
reads again, and a hand-off leaves the queue before it runs.  So a node
may send the payload it was handed on again (``node.RouteMsg`` does, hop
by hop).

A ``trace=`` callback sees every send and delivery; starts are not
traced.  A traced run takes the same path as an untraced one.  In both
modes a run in which every node has started, no message is in flight, no
hand-off is queued and some node is not ``done`` can never progress; it
raises a stall ``SimulationFault`` at once.

The two run loops, ``run_sync`` and ``run_async``, pause CPython's
cyclic garbage collector for as long as they run.  A run makes no
reference cycles: reference counting frees every queued tuple, message,
wave session and finished anchor program, so the collector's passes
would only walk the live nodes, sessions and records and find nothing
(``tests/test_collector.py`` checks that a run of each protocol, in
both modes, leaves no cyclic garbage).  Each loop puts back the state
its caller had, also when the run raises: the collector is turned back
on only if it was on.  The pause is process-wide, so cycles that a
``trace=`` callback makes wait for the collector until the run ends.

The simulator keeps two message counters, ``sent`` and ``delivered``.
A message's ``seq``, its place in send order, is the value of ``sent``
before its send is counted.  The async ring files the messages it takes
over from the outbox in ``seq`` order, so that each tick's list is in
send order; later sends are appended in that order anyway.  The
messages in flight number ``sent - delivered``; the quiescence check
reads that difference, and ``run_async`` calls it only when no message
is in flight.

Message sizes are modeled, not serialized, by one rule: a message costs
the sum of its fields plus a fixed 8-bit action tag.  Natural fields cost
``ceil(log2(max(v, 2) + 1))`` bits, computed exactly as
``max(v, 2).bit_length()``, with no sign bit; any other ``int`` costs one
sign bit more; an interval costs two naturals, an element costs priority
plus tiebreaker bits, labels/keys cost ``2 * ceil(log2(3n))`` bits.  The
per-field rules live in ``node.value_bits`` and ``node.Message``; each
message class evaluates them with one function built from its fields.
Inline, with no helper call, are: naturals, ``int``, ``float``, ``str``,
``VirtualId`` and ``Element`` fields of exactly that type and ``None`` in
an ``Any`` field (in the built functions); ``int`` and ``None`` values and
``int`` elements of a tuple or list (in ``node.value_bits`` and the
sequence loop, which also sizes a Skeap share's ``EntryShare`` entries
without a table lookup); and the naturals of ``Element.bits``,
``Batch.bits`` and ``EntryShare.bits`` (its starts, delete runs and two
serial starts).  A negative natural still reaches ``nat_bits`` and
faults.  Each simulator keeps a ``size_memo`` so that a tuple of
value-sized elements (a protocol key, a copy-slot id) is sized once per
run; the sizes are the rule's, unchanged.  Tuples holding ``bool``,
``float`` or mutable elements bypass it, since equal values of those need
not have equal sizes.
"""
from __future__ import annotations

import gc
import math
import random
from operator import attrgetter
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Callable

from .hashing import Tag, below, mix64

TAG_BITS = 8
ASYNC_DELAY_MAX = 16  # the longest delay of an async delivery or start, in ticks
_SLOTS = ASYNC_DELAY_MAX + 1  # the async ring's lists: the tick being run's and the window's

SYNC = "synchronous"
ASYNC = "asynchronous"


class SimulationFault(AssertionError):
    """An internal invariant was violated; indicates a bug, not a protocol
    condition."""


@contextmanager
def _collector_paused():
    """Turn the cyclic collector off for the block, then back on if it was
    on before, also when the block raises (see the module docstring)."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def nat_bits(value: int) -> int:
    """Modeled encoding cost of a natural number."""
    if value < 0:
        raise SimulationFault(f"negative natural {value}")
    return (2 if 2 > value else value).bit_length()  # max(value, 2), without the call


def interval_bits(lo: int, hi: int) -> int:
    return nat_bits(lo) + nat_bits(hi)


@dataclass(frozen=True, slots=True, init=False)
class Element:
    """A heap element; (priority, origin, seq) induces the global total order.

    Frozen, with the generated ``repr``, ``==`` and ``hash``.  Its
    ``__init__`` is written out: it sets the three slots through their
    member descriptors, bound once below, where the frozen dataclass's own
    goes through ``object.__setattr__`` (0.44 against 1.29 µs an element,
    ``timeit`` on a 2-vCPU KVM guest, Python 3.11).
    """

    priority: int
    origin: int
    seq: int

    def __init__(self, priority: int, origin: int, seq: int) -> None:
        _set_priority(self, priority)
        _set_origin(self, origin)
        _set_seq(self, seq)

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.priority, self.origin, self.seq)

    @property
    def ident(self) -> tuple[int, int]:
        return (self.origin, self.seq)

    def bits(self) -> int:
        # three naturals, ``nat_bits`` inlined; a negative one still faults there
        p, o, s = self.priority, self.origin, self.seq
        return (
            ((2 if 2 > p else p).bit_length() if p >= 0 else nat_bits(p))
            + ((2 if 2 > o else o).bit_length() if o >= 0 else nat_bits(o))
            + ((2 if 2 > s else s).bit_length() if s >= 0 else nat_bits(s))
        )


_set_priority, _set_origin, _set_seq = (
    getattr(Element, f.name).__set__ for f in fields(Element)
)

# An element's place in the global order, ``Element.key`` read in C: the one
# sort and bisect key for elements
ELEMENT_KEY = attrgetter("priority", "origin", "seq")


@dataclass(slots=True)
class RoundMetrics:
    round: int
    max_congestion: int  # the most messages one node was delivered this round
    max_message_bits: int
    delivered: int


@dataclass
class SimConfig:
    n: int
    seed: int
    priority_count: int = 2
    lam: int = 1
    mode: str = SYNC
    epochs: int = 2
    priority_universe: int = 0  # 0 -> priority_count; >0 for arbitrary priorities

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least two nodes")
        if self.lam < 0:
            raise ValueError("injection rate must be non-negative")
        if self.priority_count < 1:
            raise ValueError("need at least one priority")
        if self.mode not in (SYNC, ASYNC):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.priority_universe <= 0:
            self.priority_universe = self.priority_count


class ProtocolNode:
    """Base class for simulated nodes.  Handlers run atomically."""

    def __init__(self, sim: "Simulator", node_id: int):
        self.sim = sim
        self.id = node_id

    def start(self) -> None:
        """Runs once per node: in the first round in synchronous mode, at
        the node's start time in asynchronous mode."""

    def on_message(self, src: int, payload: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    @property
    def done(self) -> bool:
        return True


class Simulator:
    """Owns nodes, the messages in flight, the clock, and metrics."""

    def __init__(self, config: SimConfig, trace: Callable[[dict], None] | None = None):
        self.cfg = config
        self.nodes: list[ProtocolNode] = []
        # sent, not yet delivered (sync mode): dst -> [(src, payload, bits, seq)]
        self._outbox: dict[int, list[tuple[int, Any, int, int]]] = {}
        self._outbox_bits = 0  # the largest message in the outbox
        self._handoffs: deque[tuple[int, Any]] = deque()  # (dst, payload), not yet run
        self._started = 0  # nodes whose start has run
        self.time = 0
        self.sent = 0
        self.delivered = 0
        self.max_message_bits = 0
        self.round_metrics: list[RoundMetrics] = []
        self._trace = trace
        self._sched_rng: random.Random | None = None
        self.size_memo: dict[tuple, int] = {}  # tuple value -> bits, see node._tuple_bits
        self.label_bits = 2 * max(1, math.ceil(math.log2(max(3 * config.n, 2))))

    # -- topology of nodes -------------------------------------------------
    def add_node(self, node: ProtocolNode) -> None:
        self.nodes.append(node)

    # -- sending -----------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any) -> None:
        size = len(self.nodes)
        if not (0 <= dst < size and 0 <= src < size):
            raise SimulationFault(f"send to unknown node {src}->{dst}")
        bits = TAG_BITS + payload.size_bits(self)
        if bits <= 0:
            raise SimulationFault("message size must be positive")
        seq = self.sent
        self.sent = seq + 1
        if bits > self.max_message_bits:
            self.max_message_bits = bits
        if self._sched_rng is not None:
            # while an async schedule runs, its ring owns the message; the
            # window check is _due's, inline here, as a call per send is slower
            deadline = self._deadline()
            if not 0 < deadline - self.time <= ASYNC_DELAY_MAX:
                raise SimulationFault(f"deadline {deadline} is outside the window at {self.time}")
            self._ring[deadline % _SLOTS].append((src, dst, payload, bits))
        else:
            self._outbox.setdefault(dst, []).append((src, payload, bits, seq))
            if bits > self._outbox_bits:
                self._outbox_bits = bits
        if self._trace:
            self._trace(
                {"kind": "send", "time": self.time, "src": src, "dst": dst, "bits": bits}
            )

    def hand_off(self, dst: int, payload: Any) -> None:
        """Queue ``payload`` for real node ``dst``'s ``on_message``, from
        ``dst`` itself: a local hand-off, not a message.  It runs after the
        current handler returns (see the module docstring)."""
        if not 0 <= dst < len(self.nodes):
            raise SimulationFault(f"hand-off to unknown node {dst}")
        self._handoffs.append((dst, payload))

    def _run_handoffs(self) -> None:
        """Run queued hand-offs in FIFO order, with those they queue."""
        queue, nodes = self._handoffs, self.nodes
        while queue:
            dst, payload = queue.popleft()
            nodes[dst].on_message(dst, payload)

    def _deadline(self) -> int:
        """A random time 1 to ``ASYNC_DELAY_MAX`` ticks from now."""
        return self.time + 1 + below(self._sched_rng, ASYNC_DELAY_MAX)

    def _start(self, node_id: int) -> None:
        self._started += 1
        self.nodes[node_id].start()
        if self._handoffs:
            self._run_handoffs()

    # -- synchronous mode ----------------------------------------------------
    def step_round(self) -> RoundMetrics:
        """Deliver everything sent before this round, then start the nodes
        not yet started (all of them, in the first round).  Hand-offs
        queued outside any handler run first."""
        self._run_handoffs()
        self.time = time = self.time + 1
        due, self._outbox = self._outbox, {}
        max_bits, self._outbox_bits = self._outbox_bits, 0
        nodes, trace, handoffs = self.nodes, self._trace, self._handoffs
        delivered = congestion = 0
        for dst in sorted(due):
            queued = due[dst]
            count = len(queued)
            delivered += count
            if count > congestion:
                congestion = count
            node = nodes[dst]
            for src, payload, bits, _ in queued:
                self.delivered += 1
                if trace:
                    trace({"kind": "deliver", "time": time, "src": src, "dst": dst, "bits": bits})
                node.on_message(src, payload)
                if handoffs:
                    self._run_handoffs()
        for node_id in range(self._started, len(nodes)):
            self._start(node_id)
        metrics = RoundMetrics(
            round=time,
            max_congestion=congestion,
            max_message_bits=max_bits,
            delivered=delivered,
        )
        self.round_metrics.append(metrics)
        return metrics

    def _quiescent(self, engine: str) -> bool:
        """True if every node has started, no message is in flight, no
        hand-off is queued and every node is ``done``.

        A node that has not started keeps the run going, even when every
        node is already ``done``: its ``start`` still has to run.  Raises a
        stall fault if nothing is pending, every node has started and some
        node is not ``done``: nothing can ever happen again.
        """
        nodes = self.nodes
        if self.sent != self.delivered or self._handoffs or self._started != len(nodes):
            return False
        if all(nd.done for nd in nodes):
            return True
        stuck = [i for i, nd in enumerate(nodes) if not nd.done]
        raise SimulationFault(
            f"{engine} stalled at time {self.time}: every node has started, no "
            f"message is in flight and nodes {stuck} are not done"
        )

    def run_sync(self, max_rounds: int = 1_000_000) -> int:
        """Step rounds until quiescence.  Returns rounds run."""
        start = self.time
        with _collector_paused():
            self._run_handoffs()  # those queued outside any handler
            while self.time - start < max_rounds:
                if self._quiescent("run_sync"):
                    return self.time - start
                self.step_round()
        raise SimulationFault("run_sync exceeded max_rounds")

    # -- asynchronous mode ---------------------------------------------------
    def run_async(self, schedule_seed: int, max_picks: int = 20_000_000) -> int:
        """Run the seeded bounded-delay schedule until quiescence.  Returns
        the number of picks.

        Each pick advances the clock to the next tick that has an event
        due and executes every event due then: the starts, from the
        highest node id down, then the deliveries in send order.  So no
        message is ever delivered later than ``ASYNC_DELAY_MAX`` ticks
        after it was sent.  The start times of the nodes not yet started
        are drawn first, then the deadlines of the messages already sent,
        in sync delivery order: by destination id, then in send order.
        The schedule is cleared when the run ends, also when it raises.
        """
        if self.cfg.mode != ASYNC:
            raise SimulationFault("run_async requires asynchronous mode")
        self._sched_rng = random.Random(mix64(self.cfg.seed, Tag.SCHEDULE, schedule_seed))
        try:
            with _collector_paused():
                # tick t's events, in the order they run, at ring[t % _SLOTS]
                self._ring = ring = [[] for _ in range(_SLOTS)]
                nodes, trace, handoffs = self.nodes, self._trace, self._handoffs
                starts = [(self._due(), node_id) for node_id in range(self._started, len(nodes))]
                for deadline, node_id in reversed(starts):  # a start is (id, id, None, 0)
                    ring[deadline % _SLOTS].append((node_id, node_id, None, 0))
                # the ring takes over the outbox, each tick's list in send order
                pending, self._outbox, self._outbox_bits = self._outbox, {}, 0
                taken = []
                for dst in sorted(pending):
                    for src, payload, bits, seq in pending[dst]:
                        taken.append((seq, self._due(), (src, dst, payload, bits)))
                taken.sort()
                for _, deadline, msg in taken:
                    ring[deadline % _SLOTS].append(msg)
                self._run_handoffs()  # those queued outside any handler
                picks = 0
                time = self.time
                while True:
                    if picks >= max_picks:
                        raise SimulationFault("run_async exceeded max_picks")
                    # checked before the ring: a stall leaves it empty
                    if self.sent == self.delivered and self._quiescent("run_async"):
                        break
                    for time in range(time + 1, time + _SLOTS):
                        due = ring[time % _SLOTS]
                        if due:
                            break
                    else:
                        break  # nothing is due within the window: nothing is pending
                    self.time = time
                    picks += 1
                    for src, dst, payload, bits in due:
                        if payload is None:
                            self._start(dst)
                            continue
                        self.delivered += 1
                        if trace:
                            trace(
                                {"kind": "deliver", "time": time, "src": src, "dst": dst,
                                 "bits": bits}
                            )
                        nodes[dst].on_message(src, payload)
                        if handoffs:
                            self._run_handoffs()
                    due.clear()  # sends during the tick were filed at later ticks
        finally:
            self._sched_rng = None
        return picks

    def _due(self) -> int:
        """``_deadline()``, which must fall within the ring's window: 1 to
        ``ASYNC_DELAY_MAX`` ticks from now."""
        deadline = self._deadline()
        if not 0 < deadline - self.time <= ASYNC_DELAY_MAX:
            raise SimulationFault(f"deadline {deadline} is outside the window at {self.time}")
        return deadline

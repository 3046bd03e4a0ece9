"""Deterministic discrete-event engine for message-passing protocols.

Two execution modes share one node/channel model:

* synchronous rounds: every message sent in round ``i`` is handled in
  round ``i + 1``.  Each round activates the nodes whose
  ``needs_activation`` holds; a node that no longer needs it is never
  asked again.  A ``trace=`` callback still records one
  ``activate`` event per node per round, in id order, so the trace is the
  same as if every node were activated.  A round drains only the
  channels that hold messages.  Round metrics (per-node message counts,
  congestion, largest message) are recorded in this mode.
* asynchronous schedule: a seeded scheduler assigns every message a
  random delivery deadline at most ``async_delay_max`` picks in the
  future and activates nodes periodically.  Delivery is non-FIFO, never
  drops or duplicates, and is always within the deadline, which makes
  runs terminating and replayable.

Message sizes are modeled, not serialized, by one rule: a message costs
the sum of its fields plus a fixed 8-bit action tag.  Natural fields cost
``ceil(log2(max(v, 2) + 1))`` bits, computed exactly as
``max(v, 2).bit_length()``, with no sign bit; any other ``int`` costs one
sign bit more; an interval costs two naturals, an element costs priority
plus tiebreaker bits, labels/keys cost ``2 * ceil(log2(3n))`` bits.  The
per-field rules live in ``node.value_bits`` and ``node.Message``.
"""
from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from .hashing import Tag, mix64

TAG_BITS = 8

SYNC = "synchronous"
ASYNC = "asynchronous"


class SimulationFault(AssertionError):
    """An internal invariant was violated; indicates a bug, not a protocol
    condition."""


def nat_bits(value: int) -> int:
    """Modeled encoding cost of a natural number."""
    if value < 0:
        raise SimulationFault(f"negative natural {value}")
    return max(value, 2).bit_length()


def interval_bits(lo: int, hi: int) -> int:
    return nat_bits(lo) + nat_bits(hi)


@dataclass(frozen=True, slots=True)
class Element:
    """A heap payload; (priority, origin, seq) induces the global total order."""

    priority: int
    origin: int
    seq: int
    payload: bytes = b""

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.priority, self.origin, self.seq)

    @property
    def ident(self) -> tuple[int, int]:
        return (self.origin, self.seq)

    def bits(self) -> int:
        return (
            nat_bits(self.priority)
            + nat_bits(self.origin)
            + nat_bits(self.seq)
            + 8 * len(self.payload)
        )


@dataclass(slots=True)
class Envelope:
    src: int
    dst: int
    payload: Any
    size_bits: int
    enqueue_time: int
    seq: int
    deadline: int = 0


@dataclass(slots=True)
class RoundMetrics:
    round: int
    per_node_messages: dict[int, int]
    max_congestion: int
    max_message_bits: int
    delivered: int

    def check(self) -> None:
        if self.per_node_messages:
            if self.max_congestion != max(self.per_node_messages.values()):
                raise SimulationFault("congestion bookkeeping mismatch")
            if self.delivered != sum(self.per_node_messages.values()):
                raise SimulationFault("delivery bookkeeping mismatch")
        elif self.max_congestion != 0 or self.delivered != 0:
            raise SimulationFault("metrics for quiescent round must be zero")


@dataclass
class SimConfig:
    n: int
    seed: int
    priority_count: int = 2
    lam: int = 1
    mode: str = SYNC
    async_delay_max: int = 16
    activation_interval: int = 0  # 0 -> async_delay_max
    epochs: int = 2
    requests_per_node: int = -1  # -1 -> lam * epochs * 2
    insert_ratio: float = 0.6
    priority_universe: int = 0  # 0 -> priority_count; >0 for arbitrary priorities
    c_delta: float = 0.5

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least two nodes")
        if self.lam < 0:
            raise ValueError("injection rate must be non-negative")
        if self.async_delay_max < 1:
            raise ValueError("async_delay_max must be at least 1")
        if self.mode not in (SYNC, ASYNC):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.activation_interval <= 0:
            self.activation_interval = self.async_delay_max
        if self.requests_per_node < 0:
            self.requests_per_node = self.lam * self.epochs * 2
        if self.priority_universe <= 0:
            self.priority_universe = self.priority_count


class ProtocolNode:
    """Base class for simulated nodes.  Handlers run atomically."""

    def __init__(self, sim: "Simulator", node_id: int):
        self.sim = sim
        self.id = node_id

    def on_activate(self) -> None:  # pragma: no cover - default no-op
        pass

    def on_message(self, src: int, payload: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    @property
    def needs_activation(self) -> bool:
        """Whether ``on_activate`` may still do anything.

        Once False it must stay False, and ``on_activate`` must then be a
        no-op: in synchronous mode the simulator checks it before each
        round's activations, skips the node from the first round it is
        False and never asks again.  Asynchronous mode ignores it.
        """
        return True

    @property
    def done(self) -> bool:
        return True


_ACT = 0
_MSG = 1


class Simulator:
    """Owns nodes, channels, the clock, and metrics."""

    def __init__(self, config: SimConfig, trace: Callable[[dict], None] | None = None):
        self.cfg = config
        self.nodes: list[ProtocolNode] = []
        self.channels: list[deque[Envelope]] = []
        self._busy: set[int] = set()  # ids of non-empty channels (sync mode)
        self._awake: list[int] = []  # ids still activated in sync mode
        self.time = 0
        self.sent = 0
        self.delivered = 0
        self._pending = 0
        self.max_message_bits = 0
        self.round_metrics: list[RoundMetrics] = []
        self._trace = trace
        self._send_seq = 0
        self._sched_rng: random.Random | None = None
        self._delays: list[tuple[int, int]] = []  # (enqueue pick, delivery pick)
        self.label_bits = 2 * max(1, math.ceil(math.log2(max(3 * config.n, 2))))

    # -- topology of nodes -------------------------------------------------
    def add_node(self, node: ProtocolNode) -> None:
        self._awake.append(len(self.nodes))
        self.nodes.append(node)
        self.channels.append(deque())

    def node_count(self) -> int:
        return len(self.nodes)

    # -- sending -----------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any) -> None:
        if not (0 <= dst < len(self.nodes)) or not (0 <= src < len(self.nodes)):
            raise SimulationFault(f"send to unknown node {src}->{dst}")
        bits = TAG_BITS + payload.size_bits(self)
        if bits <= 0:
            raise SimulationFault("message size must be positive")
        env = Envelope(src, dst, payload, bits, self.time, self._send_seq)
        self._send_seq += 1
        self.sent += 1
        self._pending += 1
        if bits > self.max_message_bits:
            self.max_message_bits = bits
        if self._sched_rng is not None:
            # while an async schedule runs, its event heap owns the envelope
            env.deadline = self.time + 1 + self._sched_rng.randrange(self.cfg.async_delay_max)
            heapq.heappush(self._events, (env.deadline, env.seq, _MSG, env))
        else:
            self.channels[dst].append(env)
            self._busy.add(dst)
        if self._trace:
            self._trace(
                {"kind": "send", "time": self.time, "src": src, "dst": dst, "bits": bits}
            )

    def pending_messages(self) -> int:
        return self._pending

    def _deliver(self, env: Envelope) -> None:
        """Hand ``env`` (no longer in a channel or the event heap) to the recipient."""
        self.delivered += 1
        self._pending -= 1
        if self._trace:
            self._trace(
                {
                    "kind": "deliver",
                    "time": self.time,
                    "src": env.src,
                    "dst": env.dst,
                    "bits": env.size_bits,
                }
            )
        self.nodes[env.dst].on_message(env.src, env.payload)

    def _activate(self, node_id: int, handler: bool = True) -> None:
        if self._trace:
            self._trace(
                {"kind": "activate", "time": self.time, "src": node_id, "dst": node_id, "bits": 0}
            )
        if handler:
            self.nodes[node_id].on_activate()

    # -- synchronous mode ----------------------------------------------------
    def step_round(self) -> RoundMetrics:
        """Deliver everything sent before this round, then activate each node
        whose ``needs_activation`` holds."""
        self.time += 1
        per_node: dict[int, int] = {}
        max_bits = 0
        delivered = 0
        batches: list[tuple[int, list[Envelope]]] = []
        busy = sorted(self._busy)
        self._busy.clear()
        for dst in busy:
            ch = self.channels[dst]
            due: list[Envelope] = []
            # channels are FIFO in enqueue time, so due envelopes are a prefix
            while ch and ch[0].enqueue_time < self.time:
                due.append(ch.popleft())
            if ch:
                self._busy.add(dst)
            if due:
                batches.append((dst, due))
        for dst, envs in batches:
            for env in envs:
                self._deliver(env)
                if env.size_bits > max_bits:
                    max_bits = env.size_bits
            per_node[dst] = len(envs)
            delivered += len(envs)
        nodes = self.nodes
        awake = self._awake = [i for i in self._awake if nodes[i].needs_activation]
        if self._trace:
            # the trace records every node, as if every node were activated
            is_awake = set(awake)
            for node_id in range(len(nodes)):
                self._activate(node_id, handler=node_id in is_awake)
        else:
            for node_id in awake:
                nodes[node_id].on_activate()
        metrics = RoundMetrics(
            round=self.time,
            per_node_messages=per_node,
            max_congestion=max(per_node.values(), default=0),
            max_message_bits=max_bits,
            delivered=delivered,
        )
        metrics.check()
        self.round_metrics.append(metrics)
        return metrics

    def run_sync(
        self,
        until: Callable[["Simulator"], bool] | None = None,
        max_rounds: int = 1_000_000,
    ) -> int:
        """Step rounds until ``until`` holds (or all nodes idle).  Returns rounds run."""
        start = self.time
        while self.time - start < max_rounds:
            if until is not None and until(self):
                return self.time - start
            if until is None and self.pending_messages() == 0 and all(
                nd.done for nd in self.nodes
            ):
                return self.time - start
            self.step_round()
        raise SimulationFault("run_sync exceeded max_rounds")

    # -- asynchronous mode ---------------------------------------------------
    def run_async(
        self,
        schedule_seed: int,
        until: Callable[["Simulator"], bool] | None = None,
        max_picks: int = 20_000_000,
    ) -> int:
        """Run the seeded bounded-delay schedule until quiescence.

        Every pick advances the clock by one; all events whose deadline has
        arrived are executed at that pick (ordered by deadline then send
        order), so no envelope is ever delivered later than
        ``async_delay_max`` picks after it was sent.
        """
        if self.cfg.mode != ASYNC:
            raise SimulationFault("run_async requires asynchronous mode")
        rng = random.Random(mix64(self.cfg.seed, Tag.SCHEDULE, schedule_seed))
        self._sched_rng = rng
        self._events: list[tuple[int, int, int, Any]] = []
        interval = self.cfg.activation_interval
        for node_id in range(len(self.nodes)):
            first = self.time + 1 + rng.randrange(interval)
            heapq.heappush(self._events, (first, -node_id, _ACT, node_id))
        # the event heap takes over anything already pending, in channel order
        for ch in self.channels:
            for env in ch:
                env.deadline = self.time + 1 + rng.randrange(self.cfg.async_delay_max)
                heapq.heappush(self._events, (env.deadline, env.seq, _MSG, env))
            ch.clear()
        self._busy.clear()
        picks = 0
        while self._events:
            if picks >= max_picks:
                raise SimulationFault("run_async exceeded max_picks")
            if until is not None and until(self):
                break
            if (
                self.pending_messages() == 0
                and all(nd.done for nd in self.nodes)
                and until is None
            ):
                break
            deadline, _, _, _ = self._events[0]
            self.time = max(self.time + 1, deadline)
            picks += 1
            while self._events and self._events[0][0] <= self.time:
                _, _, kind, item = heapq.heappop(self._events)
                if kind == _MSG:
                    self._delays.append((item.enqueue_time, self.time))
                    self._deliver(item)
                else:
                    self._activate(item)
                    if not self.nodes[item].done:
                        heapq.heappush(
                            self._events, (self.time + interval, -item, _ACT, item)
                        )
        self._sched_rng = None
        # an early stop hands the envelopes still in flight back to their channels
        for env in sorted((e for _, _, kind, e in self._events if kind == _MSG),
                          key=lambda e: e.seq):
            self.channels[env.dst].append(env)
            self._busy.add(env.dst)
        return picks

    def delivery_delays(self) -> list[int]:
        return [done - sent for sent, done in self._delays]

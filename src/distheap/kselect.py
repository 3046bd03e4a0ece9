"""Distributed k-selection over elements scattered across the overlay.

The anchor runs each selection as one sequential program (``select``) on
the anchor-program driver of ``node.OverlayNode``: three phases, each step
a flood/wave barrier.  A sorting pass also waits for ``("probes", key)``,
which each ``ProbeReport`` resumes (``OverlayNode.resume``).

* Phase 1 (at most ``ceil(log2 q) + 1`` iterations, ``m <= n^q``): every node
  reports the priorities of its ``floor(k/n)``-th and ``ceil(k/n)``-th
  smallest candidates and its candidate count (the first ``k1`` flood
  takes the node's elements as its candidates, so the first count is N;
  the anchor checks every later one against its own N).  The global
  min/max of those bound the target's priority, everything outside is
  pruned and the counts below/above update k and N exactly.  Nodes
  holding too few candidates contribute sentinels that keep the bound
  sound (an unbounded side prunes nothing).  An iteration that prunes
  nothing is the last: the next would cut at the same bounds.
* Phase 2 (until ``N <= sqrt(n)``, at most ``PHASE2_CAP`` iterations):
  every candidate is sampled with probability ``sqrt(n)/N`` (floored so
  tiny systems still sample a handful); the sample is sorted by an
  all-pairs rendezvous tournament;
  two probe candidates around the expected target order are rank-checked
  exactly and the candidate window between them is kept.  If the target
  escapes the window, its exact ranks still allow a safe one-sided cut,
  so every iteration makes progress; an empty sample is re-drawn with a
  fresh salt and counted as a retry, and the re-drawn ``k2`` flood ends
  the empty pass's ``k2n`` sessions, which no share comes down to end.
  The cut's bounds ride the next ``k2`` flood (the next sample's, or
  phase 3's): a node prunes by them, then samples, and answers with the
  pair (sampled, survivors) on the ``k2n`` wave.  The anchor checks the survivors against the exact ranks,
  and the sample's positions split by the first component.  A re-drawn
  sample carries the same bounds; pruning twice cuts nothing more.  After
  ``PHASE2_CAP`` iterations, phase 3 runs if ``N <= n``; otherwise the
  selection ends with a "phase 2 stalled" error.
* Phase 3 (``N <= sqrt(n)``, a full sample, or up to n survivors after the
  cap): one sorting pass over all survivors with sampling probability
  one; the order equals the exact rank and the candidate of order k is
  reported to the anchor.  Its ``k2`` flood is the selection's last to
  read the candidates, so each node releases them there.

Rounds: every step is an anchor barrier, a flood down the aggregation
tree and a wave back up (``_REPLY`` pairs each flood with its wave), which
in sync mode costs two rounds per edge between real nodes on the tree's
longest root path (a node's own virtual nodes hand off locally); each
sorting pass adds its routing and vote aggregation.  The anchor floods
twice per phase-1 iteration (``k1``, ``k1p``), twice per phase-2
iteration (``k2``, ``k2r``), once per re-drawn sample and once for phase
3, so ``2 P1 + 2 P2 + retries + 1`` barriers run for P1 phase-1 and P2
phase-2 iterations, at most ``2 (ceil(log2 q) + 1) + 2 PHASE2_CAP + retries + 1``.

The sorting sub-protocol assigns sampled candidates unique positions via
interval decomposition, routes each candidate to the node owning the
hash of its position, distributes copies along de Bruijn prefixes
(halving the index interval per hop, so n' nodes hold copies in log n'
hops), rendezvouses copy pairs at symmetric hash keys for their single
comparison, and aggregates the (smaller, larger) vote vectors back up
each copy tree; order = smaller-count + 1.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Generator

from .hashing import Tag, hash_unit
from .node import Message, Nat, OverlayNode, split_interval
from .overlay import CycleTopology, VirtualId
from .sim import Element, SimulationFault, Simulator

NEG_INF = "-inf"
POS_INF = "+inf"

SAMPLE_FLOOR = 8  # minimum expected sample size; inactive once sqrt(n) >= 8
PHASE2_CAP = 8
RESAMPLE_CAP = 20
C_DELTA = 0.5  # scales the phase-2 probe half-width delta (delta_for)


class KSelectError(RuntimeError):
    pass


def sample_probability(n: int, candidates: int) -> float:
    return min(1.0, max(math.sqrt(n), float(SAMPLE_FLOOR)) / candidates)


def delta_for(n: int) -> int:
    return math.ceil(round(C_DELTA * math.sqrt(math.log2(n)) * n**0.25, 9))


def exponent_for(n: int, m: int) -> int:
    q = 1
    while n**q < m:
        q += 1
    return q


def phase1_iterations(q: int) -> int:
    return math.ceil(math.log2(q)) + 1


def order_statistics(candidates: list[Element], k: int, n: int):
    """Per-node priority bounds with sentinel clamping.

    Returns (lo, hi) where each is a priority, NEG_INF, or POS_INF.  The
    sentinels are chosen so that the aggregated bounds always contain the
    target's priority: an absorbing sentinel disables that side's cut.
    """
    size = len(candidates)
    idx_lo = k // n
    idx_hi = -(-k // n)
    if size == 0:
        # a node holding less than its share cannot upper-bound the target:
        # +inf absorbs the max aggregation (no upper cut) and is neutral for min
        return POS_INF, POS_INF
    if idx_lo == 0:
        lo = NEG_INF  # no lower cut is sound when k < n
    elif idx_lo <= size:
        lo = candidates[idx_lo - 1].priority
    else:
        lo = candidates[-1].priority  # fewer candidates than the share: max is safe
    if idx_hi <= size:
        hi = candidates[idx_hi - 1].priority
    else:
        hi = POS_INF  # an upper clamp to the local max would be unsound
    return lo, hi


def _line(bound) -> float:
    """A bound's place on the line extended by the sentinels."""
    return -math.inf if bound == NEG_INF else math.inf if bound == POS_INF else bound


def combine_minmax(parts):
    """The min of the lower and the max of the upper bounds on that line:
    ``NEG_INF`` absorbs the min and ``POS_INF`` the max, and each is neutral
    for the other.  The bounds come back as given, sentinels included."""
    parts = list(parts)
    return (
        min((lo for lo, _ in parts), key=_line, default=POS_INF),
        max((hi for _, hi in parts), key=_line, default=NEG_INF),
    )


# The anchor's flood kinds, each mapped to the wave that answers it; a node
# answers once, with its part at its middle virtual node.  ``ki`` and
# ``k2p`` are no longer flooded (the count rides the first ``k1`` wave, the
# prune the next ``k2`` flood); the benchmark's tracer names this same map,
# and both drop them together.
_REPLY = {"ki": "ki", "k1": "k1", "k1p": "k1c", "k2": "k2n", "k2r": "k2r", "k2p": "k2s"}


# -- sort sub-protocol messages ------------------------------------------------


@dataclass(slots=True)
class CandOp(Message):
    """A sampled candidate routed to the owner of its position key."""

    key: tuple  # (inv, it, salt)
    pos: Nat
    n_prime: Nat
    probe_lo: Nat
    probe_hi: Nat
    target: Nat  # order to report as the final answer, or 0
    element: Element


@dataclass(slots=True)
class CopySplit(Message):
    key: tuple
    i: Nat
    lo: Nat
    hi: Nat
    n_prime: Nat
    probe_lo: Nat
    probe_hi: Nat
    target: Nat
    element: Element
    vid: VirtualId
    parent_node: Nat
    parent_slot: tuple | None


@dataclass(slots=True)
class CompareOp(Message):
    key: tuple
    i: Nat
    j: Nat
    element: Element
    holder: Nat
    slot: tuple


@dataclass(slots=True)
class VoteMsg(Message):
    key: tuple
    slot: tuple
    vector: tuple[int, int]


@dataclass(slots=True)
class CopyAggMsg(Message):
    key: tuple
    slot: tuple
    vector: tuple[int, int]


@dataclass(slots=True)
class ProbeReport(Message):
    key: tuple
    role: str  # "lo", "hi" or "target"
    order: Nat
    element: Element


class _CopySlot:
    __slots__ = (
        "i",
        "kept",
        "element",
        "parent_node",
        "parent_slot",
        "children",
        "child_sums",
        "own_vote",
        "meta",
    )

    def __init__(self, i, kept, element, parent_node, parent_slot, meta):
        self.i = i
        self.kept = kept
        self.element = element
        self.parent_node = parent_node
        self.parent_slot = parent_slot
        self.children = 0
        self.child_sums: list[tuple[int, int]] = []
        self.own_vote: tuple[int, int] | None = None
        self.meta = meta  # (n_prime, probe_lo, probe_hi, target)


@dataclass
class _Selection:
    """One invocation as its caller sees it; the anchor program fills it in.

    ``k`` is the requested rank, ``p2_iter`` counts sorting passes (phase-2
    iterations and the final pass) and ``retries`` counts re-drawn empty
    samples.
    """

    inv: int
    k: int
    start_round: int
    p2_iter: int = 0
    retries: int = 0
    result: Element | None = None
    error: str | None = None
    diag: list[dict] = field(default_factory=list)
    rounds: int = 0


class KSelectNode(OverlayNode):
    """Overlay node that stores elements and participates in selections."""

    # the reply waves that no share splits: all but a sorting pass's ``k2n``
    one_way_waves = frozenset({"k1", "k1c", "k2r"})

    def __init__(self, sim: Simulator, node_id: int, topo: CycleTopology):
        super().__init__(sim, node_id, topo)
        self.elements: list[Element] = []
        self.candidates: dict[int, list[Element]] = {}  # inv -> sorted survivors
        self.chosen: dict[tuple, list[Element]] = {}
        self.copy_slots: dict[tuple, _CopySlot] = {}
        self.rendezvous: dict[tuple, CompareOp] = {}
        self.selection: _Selection | None = None  # anchor only: the one opened last

    # -- element source -------------------------------------------------------
    def selection_universe(self) -> list[Element]:
        """This node's elements, sorted by ``seed_elements``; a selection
        prunes by slicing, so it never changes the list in place."""
        return self.elements

    def seed_elements(self, elements: list[Element]) -> None:
        self.elements = sorted(elements, key=lambda e: e.key)

    @property
    def needs_activation(self) -> bool:
        # selections are driven by messages alone; a subclass that acts on
        # activation overrides this
        return False

    # -- anchor programs -----------------------------------------------------------
    def _ask(self, kind: str, key: tuple, payload: Any) -> tuple:
        """Flood ``kind`` and return the barrier of the wave that answers it."""
        self.flood(kind, key, payload)
        return _REPLY[kind], key

    def _sort(self, key: tuple, share: tuple) -> Generator[tuple, Any, dict]:
        """Send a sorting pass's ``k2n`` share down and collect its probe
        reports by role (``"lo"`` and ``"hi"``, or ``"target"``)."""
        self.wave_down("k2n", key, self.topo.root, share)
        reports: dict[str, Element] = {}
        while "target" not in reports and not reports.keys() >= {"lo", "hi"}:
            report = yield "probes", key
            reports[report.role] = report.element
        return reports

    # -- selections ------------------------------------------------------------------
    def start_selection(self, k: int, inv: int = 0) -> _Selection:
        """Open the record of a selection of rank ``k``; ``select`` runs it."""
        if not self.is_anchor:
            raise SimulationFault("selection must start at the anchor")
        self.selection = _Selection(inv, k, self.sim.time)
        return self.selection

    def select(self, k: int, inv: int = 0) -> Generator[tuple, Any, _Selection]:
        """The anchor program of one selection; returns its record filled in."""
        sel = self.start_selection(k, inv)
        sel.result, sel.error = yield from self._select(sel)
        sel.rounds = self.sim.time - sel.start_round
        return sel

    def _select(self, sel: _Selection) -> Generator[tuple, Any, tuple]:
        """Phases 1 to 3; returns ``(result, error)``."""
        n = self.sim.cfg.n
        inv = sel.inv
        k = sel.k
        threshold = math.isqrt(n)

        # phase 1: cut at the extreme per-node order statistics; the first
        # k1 wave also counts the elements, every later one the survivors
        lo, hi, N = yield self._ask("k1", (inv, 1), (k, n))
        if not 1 <= k <= N:
            return None, f"k={k} outside [1, {N}]"
        for it in range(1, phase1_iterations(exponent_for(n, N)) + 1):
            key = (inv, it)
            if it > 1:
                lo, hi, count = yield self._ask("k1", key, (k, n))
                if count != N:
                    raise SimulationFault(f"candidate count {count} does not match N={N}")
            below, above = yield self._ask("k1p", key, (lo, hi))
            k -= below
            N -= below + above
            sel.diag.append(
                {
                    "phase": "p1",
                    "iteration": it,
                    "N": N,
                    "k": k,
                    "n_prime": 0,
                    "delta": 0,
                    "pruned_below": below,
                    "pruned_above": above,
                    "p_min": lo,
                    "p_max": hi,
                }
            )
            if not 1 <= k <= N:
                raise SimulationFault("phase-1 pruning lost the target")
            if N <= threshold or not below + above:
                # a cut that prunes nothing would repeat over the same candidates
                break

        # phase 2: sort a sample, rank-check two probes, keep what holds k;
        # the window's bounds ride the next k2 flood, which prunes first
        salt = 0
        bounds = (None, None)
        while N > threshold:
            if sel.p2_iter == PHASE2_CAP:
                if N > n:
                    return None, f"phase 2 stalled at N={N} after {PHASE2_CAP} iterations"
                break
            p = sample_probability(n, N)
            if p >= 1.0:
                # a full sample is an exact sorting pass: the final one
                break
            sel.p2_iter += 1
            while True:
                key = (inv, sel.p2_iter, salt)
                n_prime = yield from self._sample(key, (p, "sample", bounds), N)
                if n_prime:
                    break
                sel.retries += 1
                salt += 1
                if sel.retries > RESAMPLE_CAP * sel.p2_iter:
                    return None, "sampling repeatedly produced no candidates"
            delta = delta_for(n)
            center = k * n_prime / N
            probe_lo = max(1, min(n_prime, math.floor(center - delta)))
            probe_hi = max(1, min(n_prime, math.ceil(center + delta)))
            probes = yield from self._sort(key, (1, n_prime, n_prime, probe_lo, probe_hi, 0))
            lo_elem, hi_elem = probes["lo"], probes["hi"]
            below_lo, below_hi = yield self._ask("k2r", key, (lo_elem, hi_elem))
            rank_lo, rank_hi = below_lo + 1, below_hi + 1
            if rank_lo <= k <= rank_hi:
                case, bounds = "window", (lo_elem, hi_elem)
                new_n, new_k = rank_hi - rank_lo + 1, k - (rank_lo - 1)
                pruned_below, pruned_above = rank_lo - 1, N - rank_hi
            elif k < rank_lo:
                case, bounds = "left", (None, lo_elem)
                new_n, new_k = rank_lo, k
                pruned_below, pruned_above = 0, N - rank_lo
            else:
                case, bounds = "right", (hi_elem, None)
                new_n, new_k = N - rank_hi + 1, k - (rank_hi - 1)
                pruned_below, pruned_above = rank_hi - 1, 0
            sel.diag.append(
                {
                    "phase": "p2",
                    "iteration": sel.p2_iter,
                    "N": new_n,
                    "k": new_k,
                    "n_prime": n_prime,
                    "delta": delta,
                    "pruned_below": pruned_below,
                    "pruned_above": pruned_above,
                    "case": case,
                    "bounds": bounds,
                    "rank_lo": rank_lo,
                    "rank_hi": rank_hi,
                }
            )
            N, k = new_n, new_k
            if not 1 <= k <= N:
                raise SimulationFault("phase-2 pruning lost the target")

        # phase 3: sort every survivor; the order is the exact rank
        sel.p2_iter += 1
        key = (inv, sel.p2_iter, salt)
        n_prime = yield from self._sample(key, (1.0, "all", bounds), N)
        if n_prime != N:
            raise SimulationFault("phase-3 sample must cover all candidates")
        probes = yield from self._sort(key, (1, N, N, 0, 0, k))
        sel.diag.append(
            {
                "phase": "p3",
                "iteration": sel.p2_iter,
                "N": N,
                "k": k,
                "n_prime": n_prime,
                "delta": 0,
                "pruned_below": 0,
                "pruned_above": 0,
            }
        )
        return probes["target"], None

    def _sample(self, key: tuple, payload: tuple, N: int) -> Generator[tuple, Any, int]:
        """Flood ``k2``: nodes prune by the carried bounds, then sample.
        Checks the survivors against the exact count ``N`` and returns the
        sample size."""
        n_prime, survivors = yield self._ask("k2", key, payload)
        if survivors != N:
            raise SimulationFault(
                f"survivor count {survivors} does not match exact ranks {N}"
            )
        return n_prime

    # -- waves ----------------------------------------------------------------------
    def wave_combine(self, kind: str, parts: list[Any]) -> Any:
        if kind in ("k1c", "k2n", "k2r"):
            return tuple(map(sum, zip(*parts)))
        if kind == "k1":
            lo, hi = combine_minmax(part[:2] for part in parts)
            return lo, hi, sum(part[2] for part in parts)
        return super().wave_combine(kind, parts)

    def wave_split(self, kind: str, share: Any, parts: list[Any]) -> list[Any]:
        if kind == "k2n":  # parts are (sampled, survivors); the share covers the sample
            return split_interval(share, [sampled for sampled, _ in parts])
        return super().wave_split(kind, share, parts)

    # -- sort plumbing: positions, copies, rendezvous, votes ---------------------------
    def wave_deliver(self, kind, key, share) -> None:
        if kind != "k2n":
            return super().wave_deliver(kind, key, share)
        lo, hi, n_prime, plo, phi, target = share
        chosen = self.chosen.pop(key, [])
        if hi - lo + 1 != len(chosen):
            raise SimulationFault("sample share does not match chosen candidates")
        for offset, element in enumerate(chosen):
            pos = lo + offset
            route_key = hash_unit(Tag.KS_POSITION_KEY, key + (pos,), self.sim.cfg.seed)
            self.route_send(
                route_key, CandOp(key, pos, n_prime, plo, phi, target, element)
            )

    def on_routed(self, vid: VirtualId, key: float, inner: Any) -> None:
        if isinstance(inner, CandOp):
            meta = (inner.n_prime, inner.probe_lo, inner.probe_hi, inner.target)
            self._open_slot(
                inner.key, inner.pos, 1, inner.n_prime, inner.element, vid, -1, None, meta
            )
        elif isinstance(inner, CompareOp):
            self._rendezvous(inner)
        else:
            super().on_routed(vid, key, inner)

    def on_protocol_message(self, src: int, payload: Any) -> None:
        if isinstance(payload, CopySplit):
            meta = (payload.n_prime, payload.probe_lo, payload.probe_hi, payload.target)
            self._open_slot(
                payload.key,
                payload.i,
                payload.lo,
                payload.hi,
                payload.element,
                payload.vid,
                payload.parent_node,
                payload.parent_slot,
                meta,
            )
        elif isinstance(payload, (VoteMsg, CopyAggMsg)):
            slot = self.copy_slots.get(payload.slot)
            if slot is None:
                raise SimulationFault(
                    f"{type(payload).__name__} for unknown copy slot {payload.slot}"
                )
            if isinstance(payload, CopyAggMsg):
                slot.child_sums.append(payload.vector)
            elif slot.own_vote is not None:
                raise SimulationFault("duplicate vote for a copy")
            else:
                slot.own_vote = payload.vector
            self._slot_try(payload.key, payload.slot)
        elif isinstance(payload, ProbeReport):
            self.resume(("probes", payload.key), payload)
        else:
            super().on_protocol_message(src, payload)

    def _open_slot(
        self, key, i, lo, hi, element, vid, parent_node, parent_slot, meta
    ) -> None:
        kept = (lo + hi) // 2
        slot_key = key + (i, lo, hi)
        slot = _CopySlot(i, kept, element, parent_node, parent_slot, meta)
        if slot_key in self.copy_slots:
            raise SimulationFault(f"copy interval {slot_key} opened twice")
        self.copy_slots[slot_key] = slot
        label = self.topo.label(vid)
        for child_lo, child_hi, half in (
            (lo, kept - 1, label / 2.0),
            (kept + 1, hi, (label + 1.0) / 2.0),
        ):
            if child_lo > child_hi:
                continue
            slot.children += 1
            child_vid = self.topo.responsible(half)
            self.post(
                child_vid.owner,
                CopySplit(
                    key,
                    i,
                    child_lo,
                    child_hi,
                    meta[0],
                    meta[1],
                    meta[2],
                    meta[3],
                    element,
                    child_vid,
                    self.id,
                    slot_key,
                ),
            )
        j = kept
        if j == i:
            slot.own_vote = (0, 0)  # a candidate is never compared with itself
            self._slot_try(key, slot_key)
        else:
            pair_key = hash_unit(
                Tag.KS_PAIR, key + (min(i, j), max(i, j)), self.sim.cfg.seed
            )
            self.route_send(pair_key, CompareOp(key, i, j, element, self.id, slot_key))

    def _rendezvous(self, op: CompareOp) -> None:
        pair = op.key + (min(op.i, op.j), max(op.i, op.j))
        other = self.rendezvous.pop(pair, None)
        if other is None:
            self.rendezvous[pair] = op
            return
        first, second = (op, other)
        if first.element.key > second.element.key:
            votes = ((1, 0), (0, 1))  # a smaller candidate exists for `first`
        else:
            votes = ((0, 1), (1, 0))
        for target, vector in zip((first, second), votes):
            self.post(target.holder, VoteMsg(op.key, target.slot, vector))

    def _slot_try(self, key: tuple, slot_key: tuple) -> None:
        slot = self.copy_slots[slot_key]
        if slot.own_vote is None or len(slot.child_sums) != slot.children:
            return
        del self.copy_slots[slot_key]  # its total is sent below
        total = slot.own_vote
        for vec in slot.child_sums:
            total = (total[0] + vec[0], total[1] + vec[1])
        if slot.parent_slot is not None:
            self.post(slot.parent_node, CopyAggMsg(key, slot.parent_slot, total))
            return
        # root of the copy tree: total is this candidate's comparison record
        n_prime, probe_lo, probe_hi, target = slot.meta
        if total[0] + total[1] != n_prime - 1:
            raise SimulationFault("comparison votes lost or duplicated")
        order = total[0] + 1
        anchor = self.topo.root.owner
        if target:
            if order == target:
                self.post(anchor, ProbeReport(key, "target", order, slot.element))
        else:
            if order == probe_lo:
                self.post(anchor, ProbeReport(key, "lo", order, slot.element))
            if order == probe_hi:
                self.post(anchor, ProbeReport(key, "hi", order, slot.element))

    # -- per-node flood handling -------------------------------------------------------------------
    def on_flood(self, kind: str, key: tuple, payload: Any) -> None:
        reply = _REPLY.get(kind)
        if reply is None:
            return super().on_flood(kind, key, payload)
        if kind == "k2":
            # a re-drawn sample: the empty pass before it got no share to end it
            empty = (*key[:2], key[2] - 1)
            if self.in_wave("k2n", empty):
                self.wave_end("k2n", empty)
        self.contribute_all(reply, key, self._answer(kind, key, payload))

    def _answer(self, kind: str, key: tuple, payload: Any) -> Any:
        """This node's contribution to the wave that answers flood ``kind``."""
        inv = key[0]
        if kind == "k1":
            if key[1] == 1:  # the selection's first flood
                self.candidates[inv] = self.selection_universe()
            cands = self.candidates[inv]
            k, n = payload
            return *order_statistics(cands, k, n), len(cands)
        if kind == "k1p":  # priority bounds; a sentinel leaves its side open
            lo, hi = payload
            return self._prune(
                inv,
                None if lo in (NEG_INF, POS_INF) else (lo,),
                None if hi in (NEG_INF, POS_INF) else (hi + 1,),
            )
        if kind == "k2":  # element bounds; ``None`` leaves its side open
            p, mode, (lo, hi) = payload
            self._prune(inv, lo and lo.key, hi and hi.key)
            cands = self.candidates[inv]
            chosen = self._choose(key, cands, p, mode)
            if chosen:  # an empty sample gets no share
                self.chosen[key] = chosen
            if mode == "all":  # the final pass: no flood reads the candidates again
                del self.candidates[inv]
            return len(chosen), len(cands)
        cands = self.candidates[inv]  # k2r
        return tuple(bisect_left(cands, e.key, key=lambda c: c.key) for e in payload)

    def _prune(self, inv: int, lo_key, hi_key) -> tuple[int, int]:
        """Keep the candidates whose keys lie in ``[lo_key, hi_key]`` (``None``
        leaves a side open) and return how many fell below and above."""
        cands = self.candidates[inv]
        start, stop = 0, len(cands)
        if lo_key is not None:
            start = bisect_left(cands, lo_key, key=lambda e: e.key)
        if hi_key is not None:
            stop = bisect_right(cands, hi_key, key=lambda e: e.key)
        self.candidates[inv] = cands[start:stop]
        return start, len(cands) - stop

    def _choose(self, key: tuple, cands: list[Element], p: float, mode: str) -> list[Element]:
        if mode == "all" or p >= 1.0:
            return list(cands)
        seed = self.sim.cfg.seed
        return [
            e
            for e in cands
            if hash_unit(Tag.KS_SAMPLE, key + (e.origin, e.seq), seed) < p
        ]

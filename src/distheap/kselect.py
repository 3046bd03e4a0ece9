"""Distributed k-selection over elements scattered across the overlay.

Three phases, all driven by the anchor through flood/wave barriers:

* Phase 1 (at most ``ceil(log2 q) + 1`` iterations, ``m <= n^q``): every node
  reports the priorities of its ``floor(k/n)``-th and ``ceil(k/n)``-th
  smallest candidates; the global min/max of those bound the target's
  priority, everything outside is pruned and the counts below/above
  update k and N exactly.  Nodes holding too few candidates contribute
  sentinels that keep the bound sound (an unbounded side prunes
  nothing).
* Phase 2 (until ``N <= sqrt(n)``, at most ``PHASE2_CAP`` iterations):
  every candidate is sampled with probability ``sqrt(n)/N`` (floored so
  tiny systems still sample a handful); the sample is sorted by an
  all-pairs rendezvous tournament;
  two probe candidates around the expected target order are rank-checked
  exactly and the candidate window between them is kept.  If the target
  escapes the window, its exact ranks still allow a safe one-sided cut,
  so every iteration makes progress; an empty sample is re-drawn with a
  fresh salt and counted as a retry.  After ``PHASE2_CAP`` iterations,
  phase 3 runs if ``N <= n``; otherwise the selection ends with a
  "phase 2 stalled" error (``_root_survivors``).
* Phase 3 (``N <= sqrt(n)``, or up to n survivors after the cap): one
  sorting pass over all survivors with sampling probability one; the
  order equals the exact rank and the candidate of order k is reported to
  the anchor.

Rounds: every step is an anchor barrier, a flood down the aggregation
tree and a wave back up, which in sync mode costs 2 x tree height rounds;
each sorting pass adds its routing and vote aggregation.  The anchor
floods once to start (``ki``), twice per phase-1 iteration (``k1``,
``k1p``), three times per phase-2 iteration (``k2``, ``k2r``, ``k2p``),
once per re-drawn sample and once for phase 3, so at most
``2 + 2 (ceil(log2 q) + 1) + 3 PHASE2_CAP + retries`` barriers run.

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
from dataclasses import dataclass
from typing import Any, Callable

from .hashing import Tag, hash_unit
from .node import Message, Nat, OverlayNode
from .overlay import MIDDLE, CycleTopology, VirtualId
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


def _lo_min(a, b):
    if NEG_INF in (a, b):
        return NEG_INF
    if a == POS_INF:
        return b
    if b == POS_INF:
        return a
    return min(a, b)


def _hi_max(a, b):
    if POS_INF in (a, b):
        return POS_INF
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    return max(a, b)


def combine_minmax(parts):
    lo, hi = POS_INF, NEG_INF
    for plo, phi in parts:
        lo = _lo_min(lo, plo)
        hi = _hi_max(hi, phi)
    return lo, hi


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


class _Selection:
    """Anchor-side bookkeeping for one invocation."""

    def __init__(self, inv: int, k: int, on_done: Callable[["_Selection"], None]):
        self.inv = inv
        self.k = k
        self.on_done = on_done
        self.q = 1
        self.N = 0
        self.p1_iter = 0
        self.p1_total = 0
        self.p2_iter = 0
        self.salt = 0
        self.retries = 0
        self.mode = "sample"
        self.n_prime = 0
        self.delta = 0
        self.probe_lo = 0
        self.probe_hi = 0
        self.probes: dict[str, Element] = {}
        self.result: Element | None = None
        self.error: str | None = None
        self.finished = False
        self.diag: list[dict] = []
        self.start_round = 0
        self.rounds = 0


class KSelectNode(OverlayNode):
    """Overlay node that stores elements and participates in selections."""

    def __init__(self, sim: Simulator, node_id: int, topo: CycleTopology):
        super().__init__(sim, node_id, topo)
        self.elements: list[Element] = []
        self.candidates: dict[int, list[Element]] = {}  # inv -> sorted survivors
        self.chosen: dict[tuple, list[Element]] = {}
        self.copy_slots: dict[tuple, _CopySlot] = {}
        self.rendezvous: dict[tuple, CompareOp] = {}
        self.selection: _Selection | None = None  # anchor only

    # -- element source -------------------------------------------------------
    def selection_universe(self) -> list[Element]:
        return sorted(self.elements, key=lambda e: e.key)

    def seed_elements(self, elements: list[Element]) -> None:
        self.elements = sorted(elements, key=lambda e: e.key)

    @property
    def needs_activation(self) -> bool:
        # selections are driven by messages alone; a subclass that acts on
        # activation overrides this
        return False

    @property
    def done(self) -> bool:
        if self.selection is None:
            return True
        return self.selection.finished

    # -- anchor API --------------------------------------------------------------
    def start_selection(
        self, k: int, inv: int = 0, on_done: Callable[[_Selection], None] | None = None
    ) -> _Selection:
        if not self.is_anchor:
            raise SimulationFault("selection must start at the anchor")
        sel = _Selection(inv, k, on_done or (lambda _s: None))
        sel.start_round = self.sim.time
        self.selection = sel
        self.flood("ki", (inv,), None)
        return sel

    def _finish(self, result: Element | None, error: str | None) -> None:
        sel = self.selection
        sel.result = result
        sel.error = error
        sel.finished = True
        sel.rounds = self.sim.time - sel.start_round
        sel.on_done(sel)

    # -- wave dispatch --------------------------------------------------------------
    def wave_combine(self, kind: str, parts: list[Any]) -> Any:
        if kind in ("ki", "k2n", "k2s"):
            return sum(parts)
        if kind in ("k1c", "k2r"):
            return tuple(map(sum, zip(*parts)))
        if kind == "k1":
            return combine_minmax(parts)
        return super().wave_combine(kind, parts)

    def wave_root(self, kind: str, key: tuple, combined: Any) -> None:
        sel = self.selection
        if sel is None or key[0] != sel.inv:
            raise SimulationFault(f"wave {kind} for unknown selection {key}")
        if kind == "ki":
            self._root_init(combined)
        elif kind == "k1":
            self._root_p1_bounds(key, combined)
        elif kind == "k1c":
            self._root_p1_counts(combined)
        elif kind == "k2n":
            self._root_sample_count(key, combined)
        elif kind == "k2r":
            self._root_ranks(combined)
        elif kind == "k2s":
            self._root_survivors(combined)
        else:
            super().wave_root(kind, key, combined)

    # -- initialization ----------------------------------------------------------------
    def _root_init(self, total: int) -> None:
        sel = self.selection
        sel.N = total
        if not 1 <= sel.k <= total:
            self._finish(None, f"k={sel.k} outside [1, {total}]")
            return
        sel.q = exponent_for(self.sim.cfg.n, max(total, 1))
        sel.p1_total = phase1_iterations(sel.q)
        self._p1_start()

    # -- phase 1 -------------------------------------------------------------------------
    def _p1_start(self) -> None:
        sel = self.selection
        sel.p1_iter += 1
        self.flood("k1", (sel.inv, sel.p1_iter), (sel.k, self.sim.cfg.n))

    def _root_p1_bounds(self, key: tuple, combined) -> None:
        sel = self.selection
        lo, hi = combined
        sel._p1_bounds = (lo, hi)
        self.flood("k1p", key, (lo, hi))

    def _root_p1_counts(self, combined) -> None:
        sel = self.selection
        below, above = combined
        lo, hi = sel._p1_bounds
        sel.k -= below
        sel.N -= below + above
        sel.diag.append(
            {
                "phase": "p1",
                "iteration": sel.p1_iter,
                "N": sel.N,
                "k": sel.k,
                "n_prime": 0,
                "delta": 0,
                "pruned_below": below,
                "pruned_above": above,
                "p_min": lo,
                "p_max": hi,
            }
        )
        if sel.k < 1 or sel.k > sel.N:
            raise SimulationFault("phase-1 pruning lost the target")
        threshold = math.isqrt(self.sim.cfg.n)
        if sel.p1_iter < sel.p1_total and sel.N > threshold:
            self._p1_start()
        elif sel.N <= threshold:
            self._p3_start()
        else:
            self._p2_start()

    # -- phase 2 ----------------------------------------------------------------------------
    def _p2_start(self) -> None:
        sel = self.selection
        sel.p2_iter += 1
        sel.mode = "sample"
        self._sample_start()

    def _sample_start(self) -> None:
        sel = self.selection
        p = 1.0 if sel.mode == "all" else sample_probability(self.sim.cfg.n, sel.N)
        if p >= 1.0:
            # a full sample is an exact sorting pass: the orders are the exact
            # ranks, so the pass can report the target directly (early phase 3)
            sel.mode = "all"
        self.flood("k2", (sel.inv, sel.p2_iter, sel.salt), (p, sel.mode))

    def _root_sample_count(self, key: tuple, n_prime: int) -> None:
        sel = self.selection
        if sel.mode == "sample" and n_prime == 0:
            sel.retries += 1
            sel.salt += 1
            if sel.retries > RESAMPLE_CAP * max(1, sel.p2_iter):
                self._finish(None, "sampling repeatedly produced no candidates")
                return
            self._sample_start()
            return
        sel.n_prime = n_prime
        if sel.mode == "all":
            if n_prime != sel.N:
                raise SimulationFault("phase-3 sample must cover all candidates")
            sel.probe_lo = sel.probe_hi = 0
            target = sel.k
        else:
            sel.delta = delta_for(self.sim.cfg.n)
            center = sel.k * n_prime / sel.N
            l = math.floor(center - sel.delta)
            r = math.ceil(center + sel.delta)
            sel.probe_lo = max(1, min(n_prime, l))
            sel.probe_hi = max(1, min(n_prime, r))
            target = 0
        sel.probes = {}
        share = (1, n_prime, n_prime, sel.probe_lo, sel.probe_hi, target)
        self.wave_down("k2n", key, self.topo.root, share)

    # -- sort plumbing: positions, copies, rendezvous, votes ---------------------------
    def wave_deliver(self, kind, key, vid, share) -> None:
        if kind != "k2n":
            return super().wave_deliver(kind, key, vid, share)
        if vid.kind != MIDDLE:
            return
        lo, hi, n_prime, plo, phi, target = share
        chosen = self.chosen.get(key, [])
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
        elif isinstance(payload, VoteMsg):
            slot = self.copy_slots[payload.slot]
            if slot.own_vote is not None:
                raise SimulationFault("duplicate vote for a copy")
            slot.own_vote = payload.vector
            self._slot_try(payload.key, payload.slot)
        elif isinstance(payload, CopyAggMsg):
            slot = self.copy_slots[payload.slot]
            slot.child_sums.append(payload.vector)
            self._slot_try(payload.key, payload.slot)
        elif isinstance(payload, ProbeReport):
            self._probe_report(payload)
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
            self.send_vid(
                child_vid,
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
            self.sim.send(self.id, target.holder, VoteMsg(op.key, target.slot, vector))

    def _slot_try(self, key: tuple, slot_key: tuple) -> None:
        slot = self.copy_slots[slot_key]
        if slot.own_vote is None or len(slot.child_sums) != slot.children:
            return
        total = slot.own_vote
        for vec in slot.child_sums:
            total = (total[0] + vec[0], total[1] + vec[1])
        if slot.parent_slot is not None:
            self.sim.send(
                self.id, slot.parent_node, CopyAggMsg(key, slot.parent_slot, total)
            )
            return
        # root of the copy tree: total is this candidate's comparison record
        n_prime, probe_lo, probe_hi, target = slot.meta
        if total[0] + total[1] != n_prime - 1:
            raise SimulationFault("comparison votes lost or duplicated")
        order = total[0] + 1
        anchor = self.topo.root.owner
        if target:
            if order == target:
                self.sim.send(
                    self.id, anchor, ProbeReport(key, "target", order, slot.element)
                )
        else:
            if order == probe_lo:
                self.sim.send(self.id, anchor, ProbeReport(key, "lo", order, slot.element))
            if order == probe_hi:
                self.sim.send(self.id, anchor, ProbeReport(key, "hi", order, slot.element))

    # -- rank check and pruning ------------------------------------------------------------
    def _probe_report(self, report: ProbeReport) -> None:
        sel = self.selection
        if (
            sel is None
            or sel.finished
            or report.key != (sel.inv, sel.p2_iter, sel.salt)
        ):
            raise SimulationFault("probe report for a stale sorting pass")
        if report.role == "target":
            sel.diag.append(
                {
                    "phase": "p3",
                    "iteration": sel.p2_iter,
                    "N": sel.N,
                    "k": sel.k,
                    "n_prime": sel.n_prime,
                    "delta": 0,
                    "pruned_below": 0,
                    "pruned_above": 0,
                }
            )
            self._finish(report.element, None)
            return
        sel.probes[report.role] = report.element
        if "lo" in sel.probes and "hi" in sel.probes:
            self.flood(
                "k2r",
                report.key,
                (sel.probes["lo"], sel.probes["hi"]),
            )

    def _root_ranks(self, combined) -> None:
        sel = self.selection
        below_lo, below_hi = combined
        rank_lo = below_lo + 1
        rank_hi = below_hi + 1
        lo_elem = sel.probes["lo"]
        hi_elem = sel.probes["hi"]
        if rank_lo <= sel.k <= rank_hi:
            case = "window"
            bounds = (lo_elem, hi_elem)
            new_n = rank_hi - rank_lo + 1
            new_k = sel.k - (rank_lo - 1)
        elif sel.k < rank_lo:
            case = "left"
            bounds = (None, lo_elem)
            new_n = rank_lo
            new_k = sel.k
        else:
            case = "right"
            bounds = (hi_elem, None)
            new_n = sel.N - rank_hi + 1
            new_k = sel.k - (rank_hi - 1)
        sel._prune = (case, bounds, new_n, new_k, rank_lo, rank_hi)
        key = (sel.inv, sel.p2_iter, sel.salt)
        self.flood("k2p", key, bounds)

    def _root_survivors(self, survivors: int) -> None:
        sel = self.selection
        case, bounds, new_n, new_k, rank_lo, rank_hi = sel._prune
        if survivors != new_n:
            raise SimulationFault(
                f"survivor count {survivors} does not match exact ranks {new_n}"
            )
        if case == "window":
            pruned_below, pruned_above = rank_lo - 1, sel.N - rank_hi
        elif case == "left":
            pruned_below, pruned_above = 0, sel.N - rank_lo
        else:
            pruned_below, pruned_above = rank_hi - 1, 0
        sel.diag.append(
            {
                "phase": "p2",
                "iteration": sel.p2_iter,
                "N": new_n,
                "k": new_k,
                "n_prime": sel.n_prime,
                "delta": sel.delta,
                "pruned_below": pruned_below,
                "pruned_above": pruned_above,
                "case": case,
                "bounds": bounds,
                "rank_lo": rank_lo,
                "rank_hi": rank_hi,
            }
        )
        sel.N = new_n
        sel.k = new_k
        if sel.k < 1 or sel.k > sel.N:
            raise SimulationFault("phase-2 pruning lost the target")
        threshold = math.isqrt(self.sim.cfg.n)
        if sel.N <= threshold:
            self._p3_start()
        elif sel.p2_iter >= PHASE2_CAP:
            if sel.N <= self.sim.cfg.n:
                self._p3_start()
            else:
                self._finish(
                    None, f"phase 2 stalled at N={sel.N} after {PHASE2_CAP} iterations"
                )
        else:
            self._p2_start()

    # -- phase 3 --------------------------------------------------------------------------------
    def _p3_start(self) -> None:
        sel = self.selection
        sel.p2_iter += 1
        sel.mode = "all"
        self._sample_start()

    # -- per-node flood handling -------------------------------------------------------------------
    def on_flood(self, kind: str, key: tuple, vid: VirtualId, payload: Any) -> None:
        if kind == "ki":
            if vid.kind == MIDDLE:
                self.candidates[key[0]] = self.selection_universe()
            count = len(self.candidates.get(key[0], [])) if vid.kind == MIDDLE else 0
            self.wave_contribute("ki", key, vid, count)
        elif kind == "k1":
            if vid.kind == MIDDLE:
                k, n = payload
                value = order_statistics(self.candidates[key[0]], k, n)
            else:
                value = (POS_INF, NEG_INF)
            self.wave_contribute("k1", key, vid, value)
        elif kind == "k1p":
            value = (0, 0)
            if vid.kind == MIDDLE:
                value = self._prune_by_priority(key[0], payload)
            self.wave_contribute("k1c", key, vid, value)
        elif kind == "k2":
            count = 0
            if vid.kind == MIDDLE:
                p, mode = payload
                chosen = self._choose(key, self.candidates[key[0]], p, mode)
                self.chosen[key] = chosen
                count = len(chosen)
            self.wave_contribute("k2n", key, vid, count)
        elif kind == "k2r":
            value = (0, 0)
            if vid.kind == MIDDLE:
                lo_elem, hi_elem = payload
                cands = self.candidates[key[0]]
                value = (
                    bisect_left(cands, lo_elem.key, key=lambda e: e.key),
                    bisect_left(cands, hi_elem.key, key=lambda e: e.key),
                )
            self.wave_contribute("k2r", key, vid, value)
        elif kind == "k2p":
            count = 0
            if vid.kind == MIDDLE:
                count = self._prune_window(key[0], payload)
            self.wave_contribute("k2s", key, vid, count)
        else:
            super().on_flood(kind, key, vid, payload)

    def _prune_by_priority(self, inv: int, bounds) -> tuple[int, int]:
        lo, hi = bounds
        cands = self.candidates[inv]
        start = 0
        stop = len(cands)
        if lo not in (NEG_INF, POS_INF):
            start = bisect_left(cands, (lo, -1, -1), key=lambda e: e.key)
        if hi not in (NEG_INF, POS_INF):
            stop = bisect_left(cands, (hi + 1, -1, -1), key=lambda e: e.key)
        below = start
        above = len(cands) - stop
        self.candidates[inv] = cands[start:stop]
        return (below, above)

    def _prune_window(self, inv: int, bounds) -> int:
        lo_elem, hi_elem = bounds
        cands = self.candidates[inv]
        start = 0
        stop = len(cands)
        if lo_elem is not None:
            start = bisect_left(cands, lo_elem.key, key=lambda e: e.key)
        if hi_elem is not None:
            stop = bisect_right(cands, hi_elem.key, key=lambda e: e.key)
        self.candidates[inv] = cands[start:stop]
        return len(self.candidates[inv])

    def _choose(self, key: tuple, cands: list[Element], p: float, mode: str) -> list[Element]:
        if mode == "all" or p >= 1.0:
            return list(cands)
        seed = self.sim.cfg.seed
        return [
            e
            for e in cands
            if hash_unit(Tag.KS_SAMPLE, key + (e.origin, e.seq), seed) < p
        ]

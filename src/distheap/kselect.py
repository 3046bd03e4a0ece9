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
  pruned (``k1p``) and the counts below/above update k and N exactly.
  Nodes holding too few candidates contribute sentinels that keep the
  bound sound (an unbounded side prunes nothing).  An iteration that
  prunes nothing below the target is the last: k, and so both indices,
  stay the same, and a finite upper bound means that every node held
  and kept its first ``ceil(k/n)`` candidates, so the next ``k1`` wave
  would return the same bounds and its cut would prune nothing.  When
  ``k // n <= 1`` (the lower bound is -inf or the global minimum) and
  the upper bound is open, neither side can cut: the anchor floods no
  ``k1p`` and logs the cut of nothing.  So a selection with ``k < 2n``
  runs exactly one phase-1 iteration.
* Phase 2 (until ``N <= sqrt(n)``, at most ``PHASE2_CAP`` iterations):
  every candidate is sampled with probability ``sqrt(n)/N`` (floored so
  tiny systems still sample a handful); the sample is sorted by an
  all-pairs rendezvous tournament;
  two probe candidates around the expected target order are rank-checked
  exactly and the candidate window between them is kept.  If the target
  escapes the window, its exact ranks still allow a safe one-sided cut,
  so every iteration makes progress; an empty sample's ``k2n`` share
  comes down empty, like every pass's, and the sample is re-drawn with a
  fresh salt and counted as a retry.
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

Every pruning step is one ``_Selection.cut``: it takes the counts pruned
below and above the target, updates k and N, logs the step's ``diag`` row
and checks that ``1 <= k <= N`` still holds.  Phase 2 keeps the rank window
``[first, last]`` that holds k: ``[rank_lo, rank_hi]`` between the probes,
or ``[1, rank_lo]`` or ``[rank_hi, N]`` when k lies outside them, so it
prunes ``first - 1`` below and ``N - last`` above; a probe at an end of the
window bounds that side of the next prune.  Phase 3's row is a cut of
nothing.

A node answers flood ``k`` in ``flood_k``, on the wave ``_REPLY[k]``.
Only a sorting pass's ``k2n`` wave has a down half (``split_k2n``,
``deliver_k2n``); the other reply waves end at their combine.

Rounds: every step is an anchor barrier, a flood down the aggregation
tree and a wave back up (``_REPLY`` pairs each flood with its wave), which
in sync mode costs two rounds per edge between real nodes on the tree's
longest root path (a node's own virtual nodes hand off locally); each
sorting pass adds its routing and vote aggregation.  The anchor floods
at most twice per phase-1 iteration (``k1``, and ``k1p`` unless neither
side can cut), twice per phase-2 iteration (``k2``, ``k2r``), once per
re-drawn sample and once for phase 3, so at most ``2 P1 + 2 P2 +
retries + 1`` barriers run for P1 phase-1 and P2 phase-2 iterations,
and at most ``2 (ceil(log2 q) + 1) + 2 PHASE2_CAP + retries + 1``.

The sorting sub-protocol assigns sampled candidates unique positions via
interval decomposition, routes each candidate to the node owning the
hash of its position, distributes copies along de Bruijn prefixes
(halving the index interval per hop, so n' nodes hold copies in log n'
hops), rendezvouses copy pairs at symmetric hash keys for their single
comparison, and aggregates the (smaller, larger) vote vectors back up
each copy tree; order = smaller-count + 1.  The slot of copy ``i`` that
holds positions ``[lo, hi]`` is named ``key + (i, lo, hi)``: a message to
a slot carries ``i``, ``lo`` and ``hi`` as naturals, and its receiver
rebuilds the name from the selection ``key`` the message carries anyway.
A slot (``_CopySlot``) keeps only its parent link (the parent's node and
``(lo, hi)``), its child count, its own vote and its children's totals.
A copy sends on only its element: n', the probe orders and the target
are read only where a tree's root reports its order, so the root keeps
the ``CandOp`` that opened the tree and no ``CopySplit`` carries them.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Generator

from .hashing import Tag, hash_unit
from .node import Message, Nat, OverlayNode, split_interval
from .overlay import CycleTopology, VirtualId
from .sim import ELEMENT_KEY, Element, SimulationFault, Simulator

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
# answers flood k in ``flood_k``, once, with its part at its middle virtual
# node.  ``ki`` and ``k2p`` are no longer flooded (the count rides the first
# ``k1`` wave, the prune the next ``k2`` flood); the benchmark's tracer names
# this same map, and both drop them together.
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
    """Copy ``i`` sent to open its slot for positions ``[lo, hi]``, a child of
    the slot ``key + (i, parent_lo, parent_hi)`` at ``parent_node``."""

    key: tuple
    i: Nat
    lo: Nat
    hi: Nat
    element: Element
    vid: VirtualId
    parent_node: Nat
    parent_lo: Nat
    parent_hi: Nat


@dataclass(slots=True)
class CompareOp(Message):
    """Copy ``i``, from slot ``key + (i, lo, hi)`` at ``holder``, routed to its
    rendezvous with candidate ``j``."""

    key: tuple
    i: Nat
    j: Nat
    element: Element
    holder: Nat
    lo: Nat
    hi: Nat


@dataclass(slots=True)
class VoteMsg(Message):
    """The vote of one comparison for slot ``key + (i, lo, hi)``."""

    key: tuple
    i: Nat
    lo: Nat
    hi: Nat
    vector: tuple[int, int]


@dataclass(slots=True)
class CopyAggMsg(Message):
    """A child slot's total for slot ``key + (i, lo, hi)``."""

    key: tuple
    i: Nat
    lo: Nat
    hi: Nat
    vector: tuple[int, int]


@dataclass(slots=True)
class ProbeReport(Message):
    key: tuple
    role: str  # "lo", "hi" or "target"
    element: Element


class _CopySlot:
    """A node's part of one candidate's copy tree.  It adds its own vote to
    its children's totals and sends the sum up, as a ``CopyAggMsg`` to the
    same copy's slot over the positions ``parent`` at ``parent_node``; at
    the tree's root ``parent`` is the ``CandOp`` that opened the tree,
    whose fields say what to report."""

    __slots__ = ("parent_node", "parent", "children", "child_sums", "own_vote")

    def __init__(self, parent_node, parent):
        self.parent_node = parent_node
        self.parent = parent  # the parent slot's (lo, hi), or the root's CandOp
        self.children = 0
        self.child_sums: list[tuple[int, int]] = []
        self.own_vote: tuple[int, int] | None = None


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

    def cut(self, phase, iteration, k, N, below, above, **row) -> tuple[int, int]:
        """Prune ``below`` candidates under the target and ``above`` over it,
        log the ``diag`` row and return the new ``(k, N)``."""
        k -= below
        N -= below + above
        self.diag.append(
            {"phase": f"p{phase}", "iteration": iteration, "N": N, "k": k, "n_prime": 0,
             "delta": 0, "pruned_below": below, "pruned_above": above, **row}
        )
        if not 1 <= k <= N:
            raise SimulationFault(f"phase-{phase} pruning lost the target")
        return k, N


class KSelectNode(OverlayNode):
    """Overlay node that stores elements and participates in selections.

    ``elements`` holds the node's elements in key order.  A selection's
    first flood takes that list as its candidates and prunes by slicing,
    so whoever changes the node's elements (``seed_elements``, Seap's
    stores and moves) builds a new list and never changes it in place.
    """

    def __init__(self, sim: Simulator, node_id: int, topo: CycleTopology):
        super().__init__(sim, node_id, topo)
        self.elements: list[Element] = []
        self.candidates: dict[int, list[Element]] = {}  # inv -> sorted survivors
        self.chosen: dict[tuple, list[Element]] = {}
        self.copy_slots: dict[tuple, _CopySlot] = {}
        self.rendezvous: dict[tuple, CompareOp] = {}
        self.selection: _Selection | None = None  # anchor only: the one opened last

    # -- element source -------------------------------------------------------
    def seed_elements(self, elements: list[Element]) -> None:
        self.elements = sorted(elements, key=ELEMENT_KEY)

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
            if k // n <= 1 and hi == POS_INF:
                # lo is -inf or the global minimum and hi is open: no side cuts
                below = above = 0
            else:
                below, above = yield self._ask("k1p", key, (lo, hi))
            k, N = sel.cut(1, it, k, N, below, above, p_min=lo, p_max=hi)
            if N <= threshold or not below:
                # k is unchanged, so the next k1 wave would return these bounds
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
                self.wave_down("k2n", key, self.topo.root, (1, 0, 0, 0, 0, 0))
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
            # keep the ranks [first, last] that hold k; a probe at either end
            # bounds that side of the next prune, an open end leaves it open
            if k < rank_lo:
                case, first, last = "left", 1, rank_lo
            elif k > rank_hi:
                case, first, last = "right", rank_hi, N
            else:
                case, first, last = "window", rank_lo, rank_hi
            at = {rank_lo: lo_elem, rank_hi: hi_elem}
            bounds = at.get(first), at.get(last)
            k, N = sel.cut(
                2, sel.p2_iter, k, N, first - 1, N - last, n_prime=n_prime, delta=delta,
                case=case, bounds=bounds, rank_lo=rank_lo, rank_hi=rank_hi,
            )

        # phase 3: sort every survivor; the order is the exact rank
        sel.p2_iter += 1
        key = (inv, sel.p2_iter, salt)
        n_prime = yield from self._sample(key, (1.0, "all", bounds), N)
        if n_prime != N:
            raise SimulationFault("phase-3 sample must cover all candidates")
        probes = yield from self._sort(key, (1, N, N, 0, 0, k))
        sel.cut(3, sel.p2_iter, k, N, 0, 0, n_prime=n_prime)
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

    # -- waves: only a sorting pass's ``k2n`` has a down half -------------------------
    def combine_k1(self, parts: list[tuple]) -> tuple:
        lo, hi = combine_minmax(part[:2] for part in parts)
        return lo, hi, sum(part[2] for part in parts)

    def combine_k1c(self, parts: list[tuple]) -> tuple:
        return tuple(map(sum, zip(*parts)))

    combine_k2n = combine_k2r = combine_k1c

    def split_k2n(self, share: tuple, parts: list[tuple]) -> list[tuple]:
        """Parts are (sampled, survivors); the share covers the sample."""
        return split_interval(share, [sampled for sampled, _ in parts])

    # -- sort plumbing: positions, copies, rendezvous, votes ---------------------------
    def deliver_k2n(self, key: tuple, share: tuple) -> None:
        lo, hi, n_prime, plo, phi, target = share
        chosen = self.chosen.pop(key)
        if hi - lo + 1 != len(chosen):
            raise SimulationFault("sample share does not match chosen candidates")
        for offset, element in enumerate(chosen):
            pos = lo + offset
            route_key = hash_unit(Tag.KS_POSITION_KEY, key + (pos,), self.sim.cfg.seed)
            self.route_send(
                route_key, CandOp(key, pos, n_prime, plo, phi, target, element)
            )

    def on_CandOp(self, op: CandOp, vid: VirtualId) -> None:
        self._open_slot(op, op.pos, 1, op.n_prime, vid, -1, op)

    def on_CopySplit(self, msg: CopySplit) -> None:
        self._open_slot(
            msg, msg.i, msg.lo, msg.hi, msg.vid, msg.parent_node, (msg.parent_lo, msg.parent_hi)
        )

    def on_VoteMsg(self, msg: VoteMsg) -> None:
        slot = self._copy_slot(msg)
        if slot.own_vote is not None:
            raise SimulationFault("duplicate vote for a copy")
        slot.own_vote = msg.vector
        self._slot_try(msg.key, msg.i, msg.lo, msg.hi)

    def on_CopyAggMsg(self, msg: CopyAggMsg) -> None:
        self._copy_slot(msg).child_sums.append(msg.vector)
        self._slot_try(msg.key, msg.i, msg.lo, msg.hi)

    def on_ProbeReport(self, msg: ProbeReport) -> None:
        self.resume(("probes", msg.key), msg)

    def _copy_slot(self, msg: VoteMsg | CopyAggMsg) -> _CopySlot:
        slot_key = msg.key + (msg.i, msg.lo, msg.hi)
        slot = self.copy_slots.get(slot_key)
        if slot is None:
            raise SimulationFault(f"{type(msg).__name__} for unknown copy slot {slot_key}")
        return slot

    def _open_slot(self, op, i, lo, hi, vid, parent_node, parent) -> None:
        """Open copy ``i``'s slot for positions ``[lo, hi]``, which ``op``
        (the root's ``CandOp`` or a ``CopySplit``) brought here: keep the
        middle position, split the rest between the two children, and send
        the copy to its rendezvous with the kept position's candidate."""
        key = op.key
        kept = (lo + hi) // 2
        slot_key = key + (i, lo, hi)
        if slot_key in self.copy_slots:
            raise SimulationFault(f"copy interval {slot_key} opened twice")
        slot = self.copy_slots[slot_key] = _CopySlot(parent_node, parent)
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
                CopySplit(key, i, child_lo, child_hi, op.element, child_vid, self.id, lo, hi),
            )
        if kept == i:
            slot.own_vote = (0, 0)  # a candidate is never compared with itself
            self._slot_try(key, i, lo, hi)
        else:
            pair_key = hash_unit(
                Tag.KS_PAIR, key + (min(i, kept), max(i, kept)), self.sim.cfg.seed
            )
            self.route_send(pair_key, CompareOp(key, i, kept, op.element, self.id, lo, hi))

    def on_CompareOp(self, op: CompareOp, vid: VirtualId) -> None:
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
            self.post(target.holder, VoteMsg(op.key, target.i, target.lo, target.hi, vector))

    def _slot_try(self, key: tuple, i: int, lo: int, hi: int) -> None:
        slot_key = key + (i, lo, hi)
        slot = self.copy_slots[slot_key]
        if slot.own_vote is None or len(slot.child_sums) != slot.children:
            return
        del self.copy_slots[slot_key]  # its total is sent below
        total = slot.own_vote
        for vec in slot.child_sums:
            total = (total[0] + vec[0], total[1] + vec[1])
        if not isinstance(slot.parent, CandOp):
            self.post(slot.parent_node, CopyAggMsg(key, i, *slot.parent, total))
            return
        # root of the copy tree: total is this candidate's comparison record
        op = slot.parent
        if total[0] + total[1] != op.n_prime - 1:
            raise SimulationFault("comparison votes lost or duplicated")
        order = total[0] + 1
        anchor = self.topo.root.owner
        if op.target:
            if order == op.target:
                self.post(anchor, ProbeReport(key, "target", op.element))
        else:
            if order == op.probe_lo:
                self.post(anchor, ProbeReport(key, "lo", op.element))
            if order == op.probe_hi:
                self.post(anchor, ProbeReport(key, "hi", op.element))

    # -- floods: a node answers each at its M, on the wave ``_REPLY`` names -------------
    def flood_k1(self, key: tuple, payload: tuple) -> None:
        inv = key[0]
        if key[1] == 1:  # the selection's first flood
            self.candidates[inv] = self.elements
        cands = self.candidates[inv]
        k, n = payload
        self.contribute_all(_REPLY["k1"], key, (*order_statistics(cands, k, n), len(cands)))

    def flood_k1p(self, key: tuple, payload: tuple) -> None:
        """Prune by priority bounds; a sentinel leaves its side open."""
        lo, hi = payload
        pruned = self._prune(
            key[0],
            None if lo in (NEG_INF, POS_INF) else (lo,),
            None if hi in (NEG_INF, POS_INF) else (hi + 1,),
        )
        self.contribute_all(_REPLY["k1p"], key, pruned)

    def flood_k2(self, key: tuple, payload: tuple) -> None:
        """Prune by element bounds (``None`` leaves a side open), then sample."""
        inv = key[0]
        p, mode, (lo, hi) = payload
        self._prune(inv, lo and lo.key, hi and hi.key)
        cands = self.candidates[inv]
        chosen = self.chosen[key] = self._choose(key, cands, p, mode)
        if mode == "all":  # the final pass: no flood reads the candidates again
            del self.candidates[inv]
        self.contribute_all(_REPLY["k2"], key, (len(chosen), len(cands)))

    def flood_k2r(self, key: tuple, payload: tuple) -> None:
        """Count the candidates below each probe."""
        cands = self.candidates[key[0]]
        below = tuple(bisect_left(cands, e.key, key=ELEMENT_KEY) for e in payload)
        self.contribute_all(_REPLY["k2r"], key, below)

    def _prune(self, inv: int, lo_key, hi_key) -> tuple[int, int]:
        """Keep the candidates whose keys lie in ``[lo_key, hi_key]`` (``None``
        leaves a side open) and return how many fell below and above."""
        cands = self.candidates[inv]
        start, stop = 0, len(cands)
        if lo_key is not None:
            start = bisect_left(cands, lo_key, key=ELEMENT_KEY)
        if hi_key is not None:
            stop = bisect_right(cands, hi_key, key=ELEMENT_KEY)
        self.candidates[inv] = cands[start:stop]
        return start, len(cands) - stop

    def _choose(self, key: tuple, cands: list[Element], p: float, mode: str) -> list[Element]:
        if mode == "all":
            return list(cands)
        seed = self.sim.cfg.seed
        return [
            e
            for e in cands
            if hash_unit(Tag.KS_SAMPLE, key + (e.origin, e.seq), seed) < p
        ]

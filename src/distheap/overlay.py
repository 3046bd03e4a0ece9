"""Linearized de Bruijn overlay: sorted label cycle, aggregation tree, routing.

Every real node emulates three virtual nodes.  The middle virtual node
gets a pseudorandom label in [0, 1); the left one sits at half that
label and the right one at (label + 1) / 2.  All 3n virtual nodes are
arranged on a cycle sorted by label.  The aggregation tree is derived
from local rules only:

* parent of a middle node is its own left node,
* parent of a left node is its cycle predecessor,
* parent of a right node is its own middle node.

Parent links strictly decrease the label, so the structure is acyclic
with a single root at the globally smallest label (always a left node);
that root's wrap-around predecessor link is severed.  Right nodes are
exactly the leaves (a left node's label is below 1/2 and a right node's
above, so no left node follows a right one on the cycle).  Floods and
waves run on the tree without them (``inner_children``).

Key responsibility follows the predecessor rule: the virtual node v with
v <= key < succ(v) (cyclically) owns the key.  Routing emulates de
Bruijn bit-shifting on labels: hop j targets the real value whose
binary expansion is the top j bits of the key followed by the bits of
the start label.  Arrival is a local check of the current node's own arc
(its label <= key < its successor's label), so a waypoint hop never
resolves the key's owner; only after the de Bruijn hops does the route
resolve the cycle index of the responsible node, and it walks toward
that index the shorter way round the cycle, so a route that ends next to
the wrap crosses it instead of circling the ring.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from .hashing import Tag, hash_unit

LEFT = "L"
MIDDLE = "M"
RIGHT = "R"


class VirtualId(NamedTuple):
    """A virtual node: its real owner and its position (LEFT, MIDDLE or RIGHT).

    A named tuple, so its hash, ``hash((owner, kind))``, and its equality run
    in C; vids are dict keys on every wave, flood and route step.
    """

    owner: int
    kind: str  # LEFT, MIDDLE or RIGHT


class CycleTopology:
    """Static overlay for one simulation run (no churn)."""

    def __init__(self, n: int, seed: int, middle_labels: dict[int, float]):
        if n < 2:
            raise ValueError("need at least two nodes")
        self.n = n
        self.seed = seed
        self.labels: dict[VirtualId, float] = {}
        for v, m in middle_labels.items():
            self.labels[VirtualId(v, MIDDLE)] = m
            self.labels[VirtualId(v, LEFT)] = m / 2.0
            self.labels[VirtualId(v, RIGHT)] = (m + 1.0) / 2.0
        if len(set(self.labels.values())) != 3 * n:
            raise ValueError("labels must be distinct")
        self.order: list[VirtualId] = sorted(self.labels, key=self.labels.__getitem__)
        self._sorted_labels = [self.labels[v] for v in self.order]
        self._index = {vid: i for i, vid in enumerate(self.order)}
        self._debruijn_hops = math.ceil(math.log2(n)) + 2
        self.root = self.order[0]
        self.parent: dict[VirtualId, VirtualId | None] = {}
        self.children: dict[VirtualId, list[VirtualId]] = {v: [] for v in self.order}
        self._derive_tree()
        # the tree without its right leaves: each left and middle node's
        # children other than a right node, built once for all real nodes
        self.inner_children: dict[VirtualId, list[VirtualId]] = {
            v: [c for c in kids if c.kind != RIGHT]
            for v, kids in self.children.items()
            if v.kind != RIGHT
        }

    # -- construction --------------------------------------------------------
    @classmethod
    def build(cls, n: int, seed: int) -> "CycleTopology":
        """Draw labels from the seeded hash; re-draw a node on collision."""
        middles: dict[int, float] = {}
        used: set[float] = set()
        for v in range(n):
            attempt = 0
            while True:
                m = hash_unit(Tag.LABEL, (v, attempt), seed)
                derived = (m, m / 2.0, (m + 1.0) / 2.0)
                if all(x not in used for x in derived):
                    used.update(derived)
                    middles[v] = m
                    break
                attempt += 1
        return cls(n, seed, middles)

    def _derive_tree(self) -> None:
        for vid in self.order:
            if vid.kind == MIDDLE:
                parent = VirtualId(vid.owner, LEFT)
            elif vid.kind == RIGHT:
                parent = VirtualId(vid.owner, MIDDLE)
            else:  # left: cycle predecessor, severed at the root
                parent = None if vid == self.root else self.pred(vid)
            self.parent[vid] = parent
            if parent is not None:
                self.children[parent].append(vid)
        for vid, kids in self.children.items():
            kids.sort(key=self.labels.__getitem__)
            if len(kids) > 2:
                raise ValueError(f"{vid} has more than two children")

    # -- cycle ---------------------------------------------------------------
    def pred(self, vid: VirtualId) -> VirtualId:
        return self.order[(self._index[vid] - 1) % len(self.order)]

    def succ(self, vid: VirtualId) -> VirtualId:
        return self.order[(self._index[vid] + 1) % len(self.order)]

    def label(self, vid: VirtualId) -> float:
        return self.labels[vid]

    # -- DHT responsibility ----------------------------------------------------
    def responsible(self, key: float) -> VirtualId:
        """The unique virtual node v with v <= key < succ(v), cyclically."""
        return self.order[self._cycle_index(key)]

    def _cycle_index(self, key: float) -> int:
        """Position in ``order`` of the node responsible for ``key``."""
        if not (0.0 <= key < 1.0):
            raise ValueError("keys live in [0, 1)")
        # keys below the smallest label wrap to the largest
        return (bisect_right(self._sorted_labels, key) - 1) % len(self.order)

    # -- routing ---------------------------------------------------------------
    def debruijn_hops(self) -> int:
        return self._debruijn_hops

    def route_step(
        self, current: VirtualId, key: float, start_label: float, hop: int
    ) -> VirtualId | None:
        """Next virtual node on the route, or None if ``current`` is responsible.

        Arrival is a local check: ``current`` owns ``key`` when its label
        <= key < its successor's label, cyclically.  The first
        ``debruijn_hops()`` hops go to de Bruijn waypoints; after them the
        route resolves the cycle index of the node responsible for ``key``
        and walks toward it, one neighbour at a time, the shorter way round.
        """
        if not (0.0 <= key < 1.0):
            raise ValueError("keys live in [0, 1)")
        labels = self._sorted_labels
        size = len(labels)
        at = self._index[current]
        if at + 1 < size:
            if labels[at] <= key < labels[at + 1]:
                return None
        elif key >= labels[at] or key < labels[0]:  # the last node owns the wrap arc
            return None
        if hop < self._debruijn_hops:
            j = hop + 1
            waypoint = (math.floor(key * (1 << j)) + start_label) / (1 << j)
            return self.order[(bisect_right(labels, waypoint) - 1) % size]
        target = self._cycle_index(key)
        if (target - at) % size <= size // 2:
            return self.order[(at + 1) % size]
        return self.order[(at - 1) % size]

    def route(self, start: VirtualId, key: float) -> list[VirtualId]:
        """Full path from ``start`` to the responsible node (inclusive)."""
        path = [start]
        current = start
        start_label = self.labels[start]
        limit = self.debruijn_hops() + 3 * self.n
        hop = 0
        while (nxt := self.route_step(current, key, start_label, hop)) is not None:
            hop += 1
            if nxt != current:
                path.append(nxt)
            current = nxt
            if hop > limit:
                raise RuntimeError("routing failed to terminate")
        return path

    # -- tree ----------------------------------------------------------------
    def height(self) -> int:
        depth = {self.root: 0}
        best = 0
        stack = [self.root]
        while stack:
            vid = stack.pop()
            for child in self.children[vid]:
                depth[child] = depth[vid] + 1
                best = max(best, depth[child])
                stack.append(child)
        if len(depth) != len(self.order):
            raise RuntimeError("tree does not span all virtual nodes")
        return best


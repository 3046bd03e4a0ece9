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
exactly the leaves.

Key responsibility follows the predecessor rule: the virtual node v with
v <= key < succ(v) (cyclically) owns the key.  Routing emulates de
Bruijn bit-shifting on labels: hop j targets the real value whose
binary expansion is the top j bits of the key followed by the bits of
the start label, and a final linear walk lands on the exact responsible
node.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable

from .hashing import Tag, hash_unit

LEFT = "L"
MIDDLE = "M"
RIGHT = "R"


@dataclass(frozen=True, slots=True)
class VirtualId:
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
        self.root = self.order[0]
        self.parent: dict[VirtualId, VirtualId | None] = {}
        self.children: dict[VirtualId, list[VirtualId]] = {v: [] for v in self.order}
        self._derive_tree()

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
        if not (0.0 <= key < 1.0):
            raise ValueError("keys live in [0, 1)")
        i = bisect_right(self._sorted_labels, key)
        # keys below the smallest label wrap to the largest
        return self.order[i - 1] if i else self.order[-1]

    # -- routing ---------------------------------------------------------------
    def debruijn_hops(self) -> int:
        return math.ceil(math.log2(self.n)) + 2

    def route_step(
        self, current: VirtualId, key: float, start_label: float, hop: int
    ) -> VirtualId | None:
        """Next virtual node on the route, or None if ``current`` is responsible."""
        if self.responsible(key) == current:
            return None
        d = self.debruijn_hops()
        if hop < d:
            j = hop + 1
            prefix = math.floor(key * (1 << j))
            waypoint = (prefix + start_label) / (1 << j)
            return self.responsible(waypoint)
        # linear walk toward the responsible node
        if self.labels[current] <= key:
            return self.succ(current)
        return self.pred(current)

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

    def postorder(self) -> list[VirtualId]:
        out: list[VirtualId] = []
        stack: list[tuple[VirtualId, bool]] = [(self.root, False)]
        while stack:
            vid, expanded = stack.pop()
            if expanded:
                out.append(vid)
            else:
                stack.append((vid, True))
                for child in reversed(self.children[vid]):
                    stack.append((child, False))
        return out

    def dump(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "virtual_nodes": [
                {"owner": v.owner, "kind": v.kind, "label": self.labels[v]}
                for v in self.order
            ],
            "root": {"owner": self.root.owner, "kind": self.root.kind},
            "tree_edges": [
                {
                    "parent": {"owner": p.owner, "kind": p.kind},
                    "child": {"owner": c.owner, "kind": c.kind},
                }
                for p in self.order
                for c in self.children[p]
            ],
        }


def tree_aggregate(
    topo: CycleTopology,
    values: dict[VirtualId, Any],
    combine: Callable[[list[Any]], Any],
) -> Any:
    """Combine per-virtual-node values bottom-up; the combine order at every
    node is own value first, then children ascending by label."""
    acc: dict[VirtualId, Any] = {}
    for vid in topo.postorder():
        parts = [values[vid]] + [acc[c] for c in topo.children[vid]]
        acc[vid] = combine(parts)
    return acc[topo.root]


def tree_broadcast(
    topo: CycleTopology,
    root_value: Any,
    split: Callable[[VirtualId, Any, list[VirtualId]], tuple[Any, list[Any]]],
) -> dict[VirtualId, Any]:
    """Push a root value top-down; ``split`` returns (own share, child shares)
    in the same order the matching aggregation combined them."""
    shares: dict[VirtualId, Any] = {}
    pending = [(topo.root, root_value)]
    while pending:
        vid, value = pending.pop()
        kids = topo.children[vid]
        own, child_shares = split(vid, value, kids)
        if len(child_shares) != len(kids):
            raise ValueError("decomposer must produce one share per child")
        shares[vid] = own
        pending.extend(zip(kids, child_shares))
    return shares

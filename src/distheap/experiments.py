"""End-to-end run orchestration: build a topology, run a protocol, check it.

These runners are the programmatic core behind the command line and the
acceptance suite.  Every run is fully determined by (config, schedule
seed): reruns produce identical traces, records, and metrics.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .consistency import BOTTOM, OperationRecord, Verdict, make_verdict
from .hashing import Tag, mix64
from .kselect import KSelectNode
from .metrics import run_metrics
from .overlay import CycleTopology
from .sim import SYNC, Element, SimConfig, Simulator
from .skeap import build_skeap
from .skeap_plus import SkeapPlusNode, build_skeap_plus, finalize_records


@dataclass
class KSelectResult:
    n: int
    m: int
    k: int
    seed: int
    answer: Element | None
    oracle: Element
    error: str | None
    rounds: int
    retries: int
    phase2_iterations: int
    diag: list[dict]
    metrics: dict

    @property
    def correct(self) -> bool:
        return self.error is None and self.answer == self.oracle


def make_elements(n: int, m: int, seed: int, universe: int) -> list[list[Element]]:
    """Uniform random placement of m elements over n nodes."""
    rng = random.Random(mix64(seed, Tag.WORKLOAD, 0xE1E))
    per_node: list[list[Element]] = [[] for _ in range(n)]
    seqs = [0] * n
    for _ in range(m):
        owner = rng.randrange(n)
        prio = rng.randint(1, universe)
        seqs[owner] += 1
        per_node[owner].append(Element(prio, owner, seqs[owner]))
    return per_node


def run_kselect(
    n: int,
    m: int,
    k: int,
    seed: int,
    mode: str = SYNC,
    c_delta: float = 0.5,
    schedule_seed: int = 0,
    trace: Callable[[dict], None] | None = None,
) -> KSelectResult:
    from .kselect import exponent_for

    universe = n ** exponent_for(n, max(m, 2))
    cfg = SimConfig(n=n, seed=seed, mode=mode, c_delta=c_delta)
    sim = Simulator(cfg, trace=trace)
    topo = CycleTopology.build(n, seed)
    nodes = [KSelectNode(sim, v, topo) for v in range(n)]
    for node in nodes:
        sim.add_node(node)
    placement = make_elements(n, m, seed, universe)
    everything: list[Element] = []
    for node, elems in zip(nodes, placement):
        node.seed_elements(elems)
        everything.extend(elems)
    everything.sort(key=lambda e: e.key)
    anchor = nodes[topo.root.owner]
    sel = anchor.start_selection(k)
    if mode == SYNC:
        sim.run_sync()
    else:
        sim.run_async(schedule_seed)
    oracle = everything[k - 1] if 1 <= k <= m else None
    return KSelectResult(
        n=n,
        m=m,
        k=k,
        seed=seed,
        answer=sel.result,
        oracle=oracle,
        error=sel.error,
        rounds=sel.rounds,
        retries=sel.retries,
        phase2_iterations=sel.p2_iter,
        diag=sel.diag,
        metrics=run_metrics(sim),
    )


@dataclass
class HeapRunResult:
    protocol: str
    n: int
    seed: int
    records: list[OperationRecord]
    verdict: Verdict
    metrics: dict
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict.ok(require_local=self.protocol == "skeap")


def _run_heap(
    build: Callable[[Simulator, CycleTopology], list],
    schedule_seed: int,
    trace: Callable[[dict], None] | None,
    script: dict[int, list[tuple[str, int | None]]] | None,
    **config: Any,
) -> tuple[Simulator, list, Any]:
    """Build a heap protocol from ``config``, preload ``script`` and run it.

    Returns the simulator, the nodes and the anchor node.
    """
    cfg = SimConfig(**config)
    sim = Simulator(cfg, trace=trace)
    topo = CycleTopology.build(cfg.n, cfg.seed)
    nodes = build(sim, topo)
    if script:
        for node_id, reqs in script.items():
            nodes[node_id].source.preload(reqs)
        for node in nodes:
            node.source.budget = 0
    if cfg.mode == SYNC:
        sim.run_sync()
    else:
        sim.run_async(schedule_seed)
    return sim, nodes, nodes[topo.root.owner]


def run_skeap(
    n: int,
    seed: int,
    priorities: int = 2,
    lam: int = 1,
    epochs: int = 3,
    mode: str = SYNC,
    schedule_seed: int = 0,
    requests_per_node: int = -1,
    trace: Callable[[dict], None] | None = None,
    script: dict[int, list[tuple[str, int | None]]] | None = None,
) -> HeapRunResult:
    sim, nodes, anchor = _run_heap(
        build_skeap, schedule_seed, trace, script,
        n=n, seed=seed, priority_count=priorities, lam=lam, mode=mode, epochs=epochs,
        requests_per_node=requests_per_node,
    )
    records: list[OperationRecord] = []
    for node in nodes:
        records.extend(node.records())
    verdict = make_verdict(records)
    extra = {
        "protocol": "skeap",
        "batches_processed": anchor.batches_processed,
        "requests_completed": len(records),
    }
    return HeapRunResult("skeap", n, seed, records, verdict, run_metrics(sim, extra), extra)


def run_skeap_plus(
    n: int,
    seed: int,
    priority_universe: int = 0,
    lam: int = 1,
    epochs: int = 3,
    mode: str = SYNC,
    schedule_seed: int = 0,
    requests_per_node: int = -1,
    c_delta: float = 0.5,
    trace: Callable[[dict], None] | None = None,
    script: dict[int, list[tuple[str, int | None]]] | None = None,
) -> HeapRunResult:
    sim, nodes, anchor = _run_heap(
        build_skeap_plus, schedule_seed, trace, script,
        n=n, seed=seed, priority_universe=priority_universe if priority_universe > 0 else n * n,
        lam=lam, mode=mode, epochs=epochs, requests_per_node=requests_per_node,
        c_delta=c_delta,
    )
    records = finalize_records(nodes)
    verdict = make_verdict(records)
    phase_ok, phase_violation = check_phase_optimality(nodes, anchor)
    extra = {
        "protocol": "skeap_plus",
        "epochs": anchor.epoch_log,
        "phase_optimal": phase_ok,
        "phase_violation": phase_violation,
        "requests_completed": len(records),
    }
    return HeapRunResult(
        "skeap_plus", n, seed, records, verdict, run_metrics(sim, extra), extra
    )


def check_phase_optimality(
    nodes: list[SkeapPlusNode], anchor: SkeapPlusNode
) -> tuple[bool, str | None]:
    """Replay epochs: each delete phase must return exactly the k* smallest
    elements stored at that point (including bottoms when k > m)."""
    store: set[Element] = set()
    epochs = max((n.total_epochs for n in nodes), default=0)
    log = {row["epoch"]: row for row in anchor.epoch_log}
    for epoch in range(epochs):
        for node in nodes:
            for req in node.ins_snapshot.get(epoch, []):
                store.add(req.element)
        returned: list[Element] = []
        bottoms = 0
        for node in nodes:
            for req in node.del_snapshot.get(epoch, []):
                if req.returned == BOTTOM:
                    bottoms += 1
                elif isinstance(req.returned, Element):
                    returned.append(req.returned)
        row = log.get(epoch, {"k": 0, "k_star": 0})
        if len(returned) != row["k_star"]:
            return False, f"epoch {epoch}: returned {len(returned)} != k* {row['k_star']}"
        if bottoms != row["k"] - row["k_star"]:
            return False, f"epoch {epoch}: bottom count mismatch"
        expected = sorted(store, key=lambda e: e.key)[: row["k_star"]]
        if sorted(returned, key=lambda e: e.key) != expected:
            return False, f"epoch {epoch}: returned set is not the k* smallest"
        store.difference_update(returned)
    return True, None


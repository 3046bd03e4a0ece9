"""End-to-end run orchestration: build a topology, run a protocol, check it.

These runners are the programmatic core behind the command line and the
acceptance suite.  Every run is fully determined by (config, schedule
seed): reruns produce identical traces, records, and metrics.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .consistency import OperationRecord, Verdict, check_phase_optimality, make_verdict
from .hashing import Tag, below, mix64
from .kselect import KSelectNode, exponent_for
from .metrics import run_metrics
from .node import build
from .overlay import CycleTopology
from .sim import ELEMENT_KEY, SYNC, Element, SimConfig, Simulator
from .skeap import build_skeap
from .skeap_plus import build_skeap_plus, finalize_records
from .workload import Script, check_script


@dataclass
class KSelectResult:
    n: int
    m: int
    k: int
    seed: int
    answer: Element | None
    oracle: Element | None
    error: str | None
    rounds: int
    retries: int
    phase2_iterations: int
    diag: list[dict]
    metrics: dict
    final_time: int = 0  # the simulator's clock after the run

    @property
    def correct(self) -> bool:
        return self.error is None and self.answer == self.oracle


def make_elements(n: int, m: int, seed: int, universe: int) -> list[list[Element]]:
    """Uniform random placement of m elements over n nodes."""
    rng = random.Random(mix64(seed, Tag.WORKLOAD, 0xE1E))
    per_node: list[list[Element]] = [[] for _ in range(n)]
    seqs = [0] * n
    for _ in range(m):
        owner = below(rng, n)
        prio = 1 + below(rng, universe)
        seqs[owner] += 1
        per_node[owner].append(Element(prio, owner, seqs[owner]))
    return per_node


def run_kselect(
    n: int,
    m: int,
    k: int,
    seed: int,
    mode: str = SYNC,
    schedule_seed: int = 0,
    trace: Callable[[dict], None] | None = None,
) -> KSelectResult:
    universe = n ** exponent_for(n, max(m, 2))
    cfg = SimConfig(n=n, seed=seed, mode=mode)
    sim = Simulator(cfg, trace=trace)
    topo = CycleTopology.build(n, seed)
    nodes = build(KSelectNode, sim, topo)
    placement = make_elements(n, m, seed, universe)
    everything: list[Element] = []
    for node, elems in zip(nodes, placement):
        node.seed_elements(elems)
        everything.extend(elems)
    everything.sort(key=ELEMENT_KEY)
    anchor = nodes[topo.root.owner]
    anchor.run_program(anchor.select(k))
    if mode == SYNC:
        sim.run_sync()
    else:
        sim.run_async(schedule_seed)
    sel = anchor.selection
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
        final_time=sim.time,
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
    final_time: int = 0  # the simulator's clock after the run

    @property
    def ok(self) -> bool:
        skeap = self.protocol == "skeap"  # Seap's claim is also phase optimality
        return self.verdict.ok(require_local=skeap) and (skeap or self.extra["phase_optimal"])


def _run_heap(
    build_heap: Callable[[Simulator, CycleTopology, Script | None], list],
    schedule_seed: int,
    trace: Callable[[dict], None] | None,
    script: Script | None,
    **config: Any,
) -> tuple[Simulator, list, Any]:
    """Build a heap protocol from ``config`` and run it.  With a ``script``
    the nodes issue its requests and nothing else.

    Returns the simulator, the nodes and the anchor node.
    """
    cfg = SimConfig(**config)
    if script is not None:
        check_script(script, cfg)
    sim = Simulator(cfg, trace=trace)
    topo = CycleTopology.build(cfg.n, cfg.seed)
    nodes = build_heap(sim, topo, script)
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
    trace: Callable[[dict], None] | None = None,
    script: Script | None = None,
) -> HeapRunResult:
    sim, nodes, anchor = _run_heap(
        build_skeap, schedule_seed, trace, script,
        n=n, seed=seed, priority_count=priorities, lam=lam, mode=mode, epochs=epochs,
    )
    records = [req for node in nodes for req in node.source.recorded()]
    verdict = make_verdict(records)
    extra = {
        "protocol": "skeap",
        "batches_processed": anchor.batches_processed,
        "requests_completed": len(records),
    }
    return HeapRunResult(
        "skeap", n, seed, records, verdict, run_metrics(sim, extra), extra, sim.time
    )


def run_skeap_plus(
    n: int,
    seed: int,
    lam: int = 1,
    epochs: int = 3,
    mode: str = SYNC,
    schedule_seed: int = 0,
    trace: Callable[[dict], None] | None = None,
    script: Script | None = None,
) -> HeapRunResult:
    """Run Seap with priorities drawn from ``[1, n^2]``."""
    sim, nodes, anchor = _run_heap(
        build_skeap_plus, schedule_seed, trace, script,
        n=n, seed=seed, priority_universe=n * n, lam=lam, mode=mode, epochs=epochs,
    )
    records = finalize_records([req for node in nodes for req in node.source.recorded()])
    verdict = make_verdict(records)
    extra = {
        "protocol": "skeap_plus",
        "epochs": anchor.epoch_log,
        "requests_completed": len(records),
    }
    extra["phase_optimal"], extra["phase_violation"] = check_phase_optimality(
        records, extra["epochs"]
    )
    return HeapRunResult(
        "skeap_plus", n, seed, records, verdict, run_metrics(sim, extra), extra, sim.time
    )

"""Distributed priority-queue protocols on a simulated de Bruijn overlay."""

from .consistency import (
    BOTTOM,
    OperationRecord,
    Verdict,
    brute_force_order,
    check_heap_consistency,
    check_local_consistency,
    check_serializable,
    make_verdict,
    sequential_oracle,
)
from .experiments import (
    HeapRunResult,
    KSelectResult,
    run_kselect,
    run_skeap,
    run_skeap_plus,
)
from .hashing import Tag, hash_unit, hash_unit_pair, mix64
from .overlay import LEFT, MIDDLE, RIGHT, CycleTopology, VirtualId, tree_aggregate, tree_broadcast
from .sim import ASYNC, SYNC, Element, RoundMetrics, SimConfig, SimulationFault, Simulator

__all__ = [
    "ASYNC",
    "BOTTOM",
    "CycleTopology",
    "Element",
    "HeapRunResult",
    "KSelectResult",
    "LEFT",
    "MIDDLE",
    "OperationRecord",
    "RIGHT",
    "RoundMetrics",
    "SYNC",
    "SimConfig",
    "SimulationFault",
    "Simulator",
    "Tag",
    "Verdict",
    "VirtualId",
    "brute_force_order",
    "check_heap_consistency",
    "check_local_consistency",
    "check_serializable",
    "hash_unit",
    "hash_unit_pair",
    "make_verdict",
    "mix64",
    "run_kselect",
    "run_skeap",
    "run_skeap_plus",
    "sequential_oracle",
    "tree_aggregate",
    "tree_broadcast",
]

"""Distributed priority-queue protocols on a simulated de Bruijn overlay."""

from .consistency import (
    BOTTOM,
    OperationRecord,
    Verdict,
    check_heap_consistency,
    check_local_consistency,
    check_serializable,
    make_verdict,
)
from .experiments import (
    HeapRunResult,
    KSelectResult,
    run_kselect,
    run_skeap,
    run_skeap_plus,
)
from .hashing import Tag, hash_unit, mix64
from .overlay import LEFT, MIDDLE, RIGHT, CycleTopology, VirtualId
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
    "check_heap_consistency",
    "check_local_consistency",
    "check_serializable",
    "hash_unit",
    "make_verdict",
    "mix64",
    "run_kselect",
    "run_skeap",
    "run_skeap_plus",
]

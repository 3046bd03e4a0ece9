"""Untraced runs keep the pinned records and metrics.

The benchmark times runs without a ``trace=`` callback, and the engine
takes a shorter path then (an async run drops the activation events of
nodes that need no activation).  Each case of
``tests/test_trace_identity.py`` is rerun here without a callback; its
records and ``run_metrics`` digests must equal the pinned ones.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from distheap import run_kselect, run_skeap, run_skeap_plus

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_trace_identity import CASES, EXPECTED, _digest  # noqa: E402


def run_untraced(protocol: str, mode: str, n: int, seed: int) -> tuple[str, str]:
    """The records and metrics digests of ``test_trace_identity.run_case``."""
    if protocol == "kselect":
        result = run_kselect(n, m=n * n, k=n, seed=seed, mode=mode, schedule_seed=seed)
        records = {
            "answer": repr(result.answer),
            "error": result.error,
            "rounds": result.rounds,
            "retries": result.retries,
            "phase2_iterations": result.phase2_iterations,
            "diag": result.diag,
        }
    else:
        runner = run_skeap if protocol == "skeap" else run_skeap_plus
        result = runner(n, seed=seed, lam=2, epochs=2, mode=mode, schedule_seed=seed)
        records = [r.to_json() for r in result.records]
    return (
        _digest(json.dumps(records, sort_keys=True, default=repr)),
        _digest(json.dumps(result.metrics, sort_keys=True, default=repr)),
    )


@pytest.mark.parametrize("protocol,mode,n,seed", CASES)
def test_untraced_records_and_metrics_unchanged(protocol, mode, n, seed):
    got = dict(zip(("records", "metrics"), run_untraced(protocol, mode, n, seed)))
    want = dict(zip(("records", "metrics"), EXPECTED[(protocol, mode, n, seed)][1:]))
    assert got == want

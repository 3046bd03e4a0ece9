"""Untraced runs keep the pinned records and metrics.

The benchmark times runs without a ``trace=`` callback, so a callback must
not change what a run does.  Each case of ``tests/test_trace_identity.py``
is rerun here without one; its records and ``run_metrics`` digests must
equal the pinned ones.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_trace_identity import CASES, EXPECTED, run_case  # noqa: E402


@pytest.mark.parametrize("protocol,mode,n,seed", CASES)
def test_untraced_records_and_metrics_unchanged(protocol, mode, n, seed):
    got = run_case(protocol, mode, n, seed, traced=False)[1:]
    assert got == EXPECTED[(protocol, mode, n, seed)][1:]

"""The benchmark's workloads still give their pinned results.

``perfbench/workloads.py`` hashes each workload's records, verdict, extra
fields and simulated metrics.  A change that moves one of these digests
changes what the benchmark measures, even when every smaller case stays
green; these tests pin them at schedule seed 0.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

import distheap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

EXPECTED = {
    "skeap-sync-n512": "709cdad70b1ee02d",
    "kselect-sync-n128": "bf62d4e203010c00",
    "seap-async-n128": "960e660d5b26e886",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_workload_digest_is_pinned(name):
    wl = workloads.WORKLOADS[name]
    result = workloads.run(distheap, wl, 0)
    assert not workloads.failed(wl, result)
    assert workloads.digest(wl, result) == EXPECTED[name]

"""The benchmark's workloads still give their pinned results.

``perfbench/workloads.py`` hashes each workload's records, verdict, extra
fields and simulated metrics.  A change that moves one of these digests
changes what the benchmark measures, even when every smaller case stays
green; these tests pin them at schedule seed 0.

``PYTHONPATH=src python tests/test_benchmark_digests.py`` prints the
digests of the current code in the form of ``EXPECTED``, for a change
that is meant to move them.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

import distheap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

EXPECTED = {
    "skeap-sync-n512": "8defcfe4a113340c",
    "kselect-sync-n128": "254a64c93d31b0a4",
    "seap-async-n128": "2797d3fa7c9eb2fd",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_workload_digest_is_pinned(name):
    wl = workloads.WORKLOADS[name]
    result = workloads.run(distheap, wl, 0)
    assert not workloads.failed(wl, result)
    assert workloads.digest(wl, result) == EXPECTED[name]


if __name__ == "__main__":
    for name in EXPECTED:
        wl = workloads.WORKLOADS[name]
        result = workloads.run(distheap, wl, 0)
        if workloads.failed(wl, result):
            raise SystemExit(f"{name}: the protocol's checker rejects the run")
        print(f"    {name!r}: {workloads.digest(wl, result)!r},")

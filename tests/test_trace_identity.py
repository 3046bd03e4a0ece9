"""Trace identity: fixed runs keep their exact behaviour.

Each case pins three sha256 digests (first 16 hex digits) of one run: the
full ``trace=`` event stream, the records (for KSelect the answer, its
bookkeeping and ``diag``) and ``run_metrics``.  The stream holds every
send and every delivery.
An engine, overlay or protocol change that is meant to keep behaviour must
leave every digest as it is; the async cases also pin the schedule's RNG
draw order.  ``tests/test_untraced_identity.py`` reruns each case without
a callback against the same records and metrics digests.

``python tests/test_trace_identity.py`` prints the table for the current
code, for a change that is meant to alter behaviour.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from distheap import ASYNC, SYNC, run_kselect, run_skeap, run_skeap_plus

PROTOCOLS = ("skeap", "seap", "kselect")
MODES = (SYNC, ASYNC)
SIZES = (2, 8, 32)
SEEDS = (0, 1)

# (protocol, mode, n, seed) -> (trace, records, metrics)
EXPECTED = {
    ('skeap', 'synchronous', 2, 0): ('33351e706a74e82b', '388368d3c75fc922', '3718749efcae973c'),
    ('skeap', 'synchronous', 2, 1): ('eebf7a1d890e2725', 'b28d0136ddafb062', 'b1af874b2e477632'),
    ('skeap', 'synchronous', 8, 0): ('4b6d1f3676950825', 'c9e5fc435d38d1f1', '8c33cd7d513c01b1'),
    ('skeap', 'synchronous', 8, 1): ('6a8d47b58da4d315', '44be1a8a7c2cedf7', '42b1e78e36c61545'),
    ('skeap', 'synchronous', 32, 0): ('f6a6eab0366c71e9', '24621a035be4f904', '51844e19a4ea9b85'),
    ('skeap', 'synchronous', 32, 1): ('b1d187634892b863', 'f47010e4b7efe9d0', '9738e90d5a8e055d'),
    ('skeap', 'asynchronous', 2, 0): ('08b5805b1df3e92a', '388368d3c75fc922', 'f6dad62a5acd9dfd'),
    ('skeap', 'asynchronous', 2, 1): ('0e7488a931555d8e', 'b28d0136ddafb062', 'e7789b2b5d914f62'),
    ('skeap', 'asynchronous', 8, 0): ('a118af31f91859f8', 'c9e5fc435d38d1f1', '831a4e42176f498e'),
    ('skeap', 'asynchronous', 8, 1): ('34f361510f485890', '44be1a8a7c2cedf7', '81a378efa8c72ea3'),
    ('skeap', 'asynchronous', 32, 0): ('49df83351efae0d6', '24621a035be4f904', '448029ef540c4bea'),
    ('skeap', 'asynchronous', 32, 1): ('23fd3cc5c6bfe4aa', 'f47010e4b7efe9d0', '4f335987ba705ba6'),
    ('seap', 'synchronous', 2, 0): ('438de9d498bdce59', '20b74a1a27c9e5bd', 'a581df0e1c480822'),
    ('seap', 'synchronous', 2, 1): ('27a8efd52c097b04', 'e1b12c6bea5a474d', '363f82f437813583'),
    ('seap', 'synchronous', 8, 0): ('88523f2caed04fdf', 'd06939338a165fc2', '4739db6c0f40ad75'),
    ('seap', 'synchronous', 8, 1): ('fa93d4b0bfe5a178', 'ca4b983baa9d08a2', '331743f5a3e5fd13'),
    ('seap', 'synchronous', 32, 0): ('606b5b4c15ebdbf2', '9a42dec75bd1d68e', '5d8ec001dd758fa8'),
    ('seap', 'synchronous', 32, 1): ('7c31aa860fec0fee', 'ace6191fa1c7f811', '7fd6f525bce2705e'),
    ('seap', 'asynchronous', 2, 0): ('5906502f5ddfdfd8', '3cc614f9072381d6', 'ac9b3ee33a7ff752'),
    ('seap', 'asynchronous', 2, 1): ('bf7e9f0c780f7000', 'ddf0f70ad3f82eef', '73e707a3ec52cc7a'),
    ('seap', 'asynchronous', 8, 0): ('98bfd7091f8baf16', 'd06939338a165fc2', '6985c924661bac2e'),
    ('seap', 'asynchronous', 8, 1): ('0eb7f9d99313a26e', 'ca4b983baa9d08a2', 'f3c748779a00cf8d'),
    ('seap', 'asynchronous', 32, 0): ('644bbf5182c9f936', '9a42dec75bd1d68e', '999252aec9fefa98'),
    ('seap', 'asynchronous', 32, 1): ('47aa20e1ae930055', 'ace6191fa1c7f811', '01d231a407a16699'),
    ('kselect', 'synchronous', 2, 0): ('2ec2b6632ff7e8a8', '02110ae6881c39ad', '9d942ce15c7f33ca'),
    ('kselect', 'synchronous', 2, 1): ('996e02f51e675c46', '7738fad936616975', '827e23e1ef854ac6'),
    ('kselect', 'synchronous', 8, 0): ('8360e2cb90efbbec', '532c3d6ee5d49b7b', '1c27855b815209ff'),
    ('kselect', 'synchronous', 8, 1): ('0f3a642c1bd842e3', '8d24248dbef6fe6d', 'f754baa286bfbea3'),
    ('kselect', 'synchronous', 32, 0): ('0a679055fce76eec', '447eb6ce8f84c61a', '2f4e37c35e2ed8d4'),
    ('kselect', 'synchronous', 32, 1): ('aa0835c70f6ab46b', '3ba3c01ab8c48bb7', '991cae139d367f7c'),
    ('kselect', 'asynchronous', 2, 0): ('63a3e6b41e69e8b7', '87c945b83f9ac2ab', 'd621577b85380664'),
    ('kselect', 'asynchronous', 2, 1): ('5d7777dba661a05f', '3b211b81226c168c', '64e98b48d4e1b31a'),
    ('kselect', 'asynchronous', 8, 0): ('7a4dd75a3cdcb2bc', '2cc15b022bdc8d7f', 'ba4f0c13358cce9e'),
    ('kselect', 'asynchronous', 8, 1): ('0571dea64344bd7b', '1eaa4a956dd43ba6', 'dabcdddee2b20b99'),
    ('kselect', 'asynchronous', 32, 0): ('321a8a47bca77d65', '9a3e69843496aee4', '421f536bc65f4b41'),
    ('kselect', 'asynchronous', 32, 1): ('67054719b58f6ba6', '7c6800170a914d14', 'c8345e671de7b102'),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_case(
    protocol: str, mode: str, n: int, seed: int, traced: bool = True
) -> tuple[str | None, str, str]:
    """The (trace, records, metrics) digests of one case; no trace digest
    unless ``traced``."""
    stream = hashlib.sha256()

    def trace(event: dict) -> None:
        stream.update(
            f"{event['kind']} {event['time']} {event['src']} {event['dst']} "
            f"{event['bits']}\n".encode()
        )

    options = dict(mode=mode, schedule_seed=seed, trace=trace if traced else None)
    if protocol == "kselect":
        result = run_kselect(n, m=n * n, k=n, seed=seed, **options)
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
        result = runner(n, seed=seed, lam=2, epochs=2, **options)
        records = [r.to_json() for r in result.records]
    return (
        stream.hexdigest()[:16] if traced else None,
        _digest(json.dumps(records, sort_keys=True, default=repr)),
        _digest(json.dumps(result.metrics, sort_keys=True, default=repr)),
    )


CASES = [(p, m, n, s) for p in PROTOCOLS for m in MODES for n in SIZES for s in SEEDS]


@pytest.mark.parametrize("protocol,mode,n,seed", CASES)
def test_trace_records_and_metrics_unchanged(protocol, mode, n, seed):
    got = dict(zip(("trace", "records", "metrics"), run_case(protocol, mode, n, seed)))
    want = dict(zip(("trace", "records", "metrics"), EXPECTED[(protocol, mode, n, seed)]))
    assert got == want


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {run_case(*case)!r},")

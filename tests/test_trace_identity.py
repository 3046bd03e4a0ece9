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
    ('skeap', 'synchronous', 2, 0): ('b3ce1d5d593d40b4', '388368d3c75fc922', '519ebf2918a7c79c'),
    ('skeap', 'synchronous', 2, 1): ('ef2f19bc4b85e4f9', 'b28d0136ddafb062', 'dee93ba62e3e820b'),
    ('skeap', 'synchronous', 8, 0): ('9ea8a43e558cd287', 'c9e5fc435d38d1f1', '7f4d72610b8bf139'),
    ('skeap', 'synchronous', 8, 1): ('59c5005b44775603', '44be1a8a7c2cedf7', 'f725eb4ee7e0a6c0'),
    ('skeap', 'synchronous', 32, 0): ('b918adf8d2f063a3', '24621a035be4f904', '4c9c5340a275ecd7'),
    ('skeap', 'synchronous', 32, 1): ('fa635e7963fff474', 'f47010e4b7efe9d0', '633bcdd33127b2bc'),
    ('skeap', 'asynchronous', 2, 0): ('dd534a48dd23810f', '388368d3c75fc922', '68d449a672ebc1d0'),
    ('skeap', 'asynchronous', 2, 1): ('ed9f351f44371c1d', 'b28d0136ddafb062', '86abb4141b08805e'),
    ('skeap', 'asynchronous', 8, 0): ('431154566d519c65', 'c9e5fc435d38d1f1', '3662d68904e98696'),
    ('skeap', 'asynchronous', 8, 1): ('1889a268cc3cad82', '44be1a8a7c2cedf7', '248430d332d18dc9'),
    ('skeap', 'asynchronous', 32, 0): ('58a94ce9e21f6236', '24621a035be4f904', '3d0ea917ed582838'),
    ('skeap', 'asynchronous', 32, 1): ('2111ab4a3c2e3867', 'f47010e4b7efe9d0', '6d2eeb0710b3240f'),
    ('seap', 'synchronous', 2, 0): ('438de9d498bdce59', '20b74a1a27c9e5bd', 'a581df0e1c480822'),
    ('seap', 'synchronous', 2, 1): ('4bb8078fbb84049e', 'e1b12c6bea5a474d', '87d29f0dd1d1bf5b'),
    ('seap', 'synchronous', 8, 0): ('32dcd60195c424a8', 'd06939338a165fc2', '490a673aca2abe16'),
    ('seap', 'synchronous', 8, 1): ('62521da8323a0d4f', 'ca4b983baa9d08a2', '86d917833d19ef09'),
    ('seap', 'synchronous', 32, 0): ('456f7c333c6e2254', '9a42dec75bd1d68e', 'edbd9ca76844eec5'),
    ('seap', 'synchronous', 32, 1): ('9639064ce4361acd', 'ace6191fa1c7f811', '629dbac20a442377'),
    ('seap', 'asynchronous', 2, 0): ('5906502f5ddfdfd8', '3cc614f9072381d6', 'ac9b3ee33a7ff752'),
    ('seap', 'asynchronous', 2, 1): ('a9e8ed438e99551f', 'ddf0f70ad3f82eef', '61625d92eb818fac'),
    ('seap', 'asynchronous', 8, 0): ('dd6696c4d2ff9e06', 'd06939338a165fc2', '2a395a315c19d98b'),
    ('seap', 'asynchronous', 8, 1): ('e51905f6bd3b739c', 'ca4b983baa9d08a2', '2da94382e3ae2cee'),
    ('seap', 'asynchronous', 32, 0): ('cc0f747a71fc7db8', '9a42dec75bd1d68e', '15015b33e5d993b8'),
    ('seap', 'asynchronous', 32, 1): ('5513c8441137c2e6', 'ace6191fa1c7f811', 'd0128d985262b429'),
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

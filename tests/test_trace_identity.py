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
    ('skeap', 'synchronous', 2, 0): ('feadc8db7c6bdba8', '388368d3c75fc922', '7b59b9005a70fa67'),
    ('skeap', 'synchronous', 2, 1): ('acacea6cd218debf', 'b28d0136ddafb062', 'cf325fb5645e6318'),
    ('skeap', 'synchronous', 8, 0): ('3c62380b48a03e10', 'c9e5fc435d38d1f1', '2d6e26c3d2e0e676'),
    ('skeap', 'synchronous', 8, 1): ('5aaa2f31438a42a6', '44be1a8a7c2cedf7', 'd31cd879c743b23b'),
    ('skeap', 'synchronous', 32, 0): ('a4fa78c780f6c465', '24621a035be4f904', '0caddf040cd29e1e'),
    ('skeap', 'synchronous', 32, 1): ('a208300d55911025', 'f47010e4b7efe9d0', '98acfc5c6c0b0b15'),
    ('skeap', 'asynchronous', 2, 0): ('84e53abd1febb652', '388368d3c75fc922', '1ee5a2726b32fe7f'),
    ('skeap', 'asynchronous', 2, 1): ('c7ca8b78b311e53e', 'b28d0136ddafb062', '362fef6edd8f3df5'),
    ('skeap', 'asynchronous', 8, 0): ('9e3fb82d649d93c8', 'c9e5fc435d38d1f1', '1d0dd83f8c7fc2ee'),
    ('skeap', 'asynchronous', 8, 1): ('be0809797106d113', '44be1a8a7c2cedf7', '3bab367f74ec5c87'),
    ('skeap', 'asynchronous', 32, 0): ('2f4feef6bdf0236b', '24621a035be4f904', 'e948c26ce1ac2a14'),
    ('skeap', 'asynchronous', 32, 1): ('78f581f0388df161', 'f47010e4b7efe9d0', '9a71f07c45de6f0e'),
    ('seap', 'synchronous', 2, 0): ('2da95fbd9bd4b42c', '20b74a1a27c9e5bd', 'e6550f740138c772'),
    ('seap', 'synchronous', 2, 1): ('aa051eb7b95a4136', 'e1b12c6bea5a474d', 'a3fe4969f8164551'),
    ('seap', 'synchronous', 8, 0): ('bdc0585af9821e55', 'd06939338a165fc2', '2a2efc590ef48f5e'),
    ('seap', 'synchronous', 8, 1): ('7d34fc1e016748ad', 'ca4b983baa9d08a2', 'd5bf52a6f8a88589'),
    ('seap', 'synchronous', 32, 0): ('611f108ffddc42b6', '9a42dec75bd1d68e', 'ccf055e10c0ef529'),
    ('seap', 'synchronous', 32, 1): ('d7fdd4f6918cec41', 'ace6191fa1c7f811', '2aa351dbe3081105'),
    ('seap', 'asynchronous', 2, 0): ('5906502f5ddfdfd8', '3cc614f9072381d6', 'ac9b3ee33a7ff752'),
    ('seap', 'asynchronous', 2, 1): ('9e0380cef3fa09f2', 'ddf0f70ad3f82eef', 'a3c3df5d44fe3893'),
    ('seap', 'asynchronous', 8, 0): ('788dd2f56abc95cb', 'd06939338a165fc2', 'e0e9beb4e17d43c2'),
    ('seap', 'asynchronous', 8, 1): ('26f514d6cc707eda', 'ca4b983baa9d08a2', '30264fec1dd873eb'),
    ('seap', 'asynchronous', 32, 0): ('ec99fbcecc47d43b', '9a42dec75bd1d68e', 'ed11edfd6485f971'),
    ('seap', 'asynchronous', 32, 1): ('c8172825e3324487', 'ace6191fa1c7f811', '686e9a6216976759'),
    ('kselect', 'synchronous', 2, 0): ('2ec2b6632ff7e8a8', '02110ae6881c39ad', '9d942ce15c7f33ca'),
    ('kselect', 'synchronous', 2, 1): ('0544cb428746c3a4', '7738fad936616975', '1e0b81009b293255'),
    ('kselect', 'synchronous', 8, 0): ('2f2a73833b61ff16', '532c3d6ee5d49b7b', '730d9b85b048eca4'),
    ('kselect', 'synchronous', 8, 1): ('cea0af3ceeebe300', '8d24248dbef6fe6d', 'b2be18004c071cfa'),
    ('kselect', 'synchronous', 32, 0): ('30e739bd5f5a9892', '447eb6ce8f84c61a', 'fb6ec8a6d4be9e58'),
    ('kselect', 'synchronous', 32, 1): ('16eb59bac863f996', '3ba3c01ab8c48bb7', '658d807465e8e83c'),
    ('kselect', 'asynchronous', 2, 0): ('63a3e6b41e69e8b7', '87c945b83f9ac2ab', 'd621577b85380664'),
    ('kselect', 'asynchronous', 2, 1): ('3b504dcbbf2f92d1', '3b211b81226c168c', '5f1836fd9a9a670f'),
    ('kselect', 'asynchronous', 8, 0): ('445e829aae009538', '2cc15b022bdc8d7f', 'ff1074b5e6758810'),
    ('kselect', 'asynchronous', 8, 1): ('9b781a05e7b1036f', '1eaa4a956dd43ba6', '365d7b30fcc240be'),
    ('kselect', 'asynchronous', 32, 0): ('169b221814c7e03c', '9a3e69843496aee4', '5ee31f08e40d4864'),
    ('kselect', 'asynchronous', 32, 1): ('00ea4b8f78c26a33', '7c6800170a914d14', '6ed6e2f84c4be6da'),
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

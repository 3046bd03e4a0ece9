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
    ('skeap', 'synchronous', 2, 0): ('21d7f9b9d8e7d300', '388368d3c75fc922', 'd9bb4ce8ec9a4eeb'),
    ('skeap', 'synchronous', 2, 1): ('3ea13ba246972417', 'b28d0136ddafb062', 'a3fcf65fa7b7f8d8'),
    ('skeap', 'synchronous', 8, 0): ('ae9ed31f89c54071', 'c9e5fc435d38d1f1', '6b7514429f256e54'),
    ('skeap', 'synchronous', 8, 1): ('b0300f13284f2d47', '44be1a8a7c2cedf7', 'c6346a8d6225a3e5'),
    ('skeap', 'synchronous', 32, 0): ('be552005897c9419', '24621a035be4f904', '176c24fa1687933c'),
    ('skeap', 'synchronous', 32, 1): ('c90ace5a5dc75b5d', 'f47010e4b7efe9d0', 'df07f35bea686236'),
    ('skeap', 'asynchronous', 2, 0): ('1c524537638c1d22', '388368d3c75fc922', '69a5ffa4ac72402b'),
    ('skeap', 'asynchronous', 2, 1): ('beef4bec5dd50591', 'b28d0136ddafb062', '052f1173968295be'),
    ('skeap', 'asynchronous', 8, 0): ('098e5787453aa905', 'c9e5fc435d38d1f1', 'ba6b9d571cdc0eb3'),
    ('skeap', 'asynchronous', 8, 1): ('7fa9874da446bdb1', '44be1a8a7c2cedf7', '5e14ecd2d1c93c1f'),
    ('skeap', 'asynchronous', 32, 0): ('b31b24321a83e116', '24621a035be4f904', '22a758e1b46c46ec'),
    ('skeap', 'asynchronous', 32, 1): ('3474a147cecd7a51', 'f47010e4b7efe9d0', '58364dd531afc09e'),
    ('seap', 'synchronous', 2, 0): ('6a15562bfee360e9', '20b74a1a27c9e5bd', '2ef73255cfe6f9cb'),
    ('seap', 'synchronous', 2, 1): ('c05a71c4ba04fd7d', 'e1b12c6bea5a474d', '178a5b8e34c32ea3'),
    ('seap', 'synchronous', 8, 0): ('2918f57f36bd975f', 'd06939338a165fc2', 'f3cf16b6d2054cef'),
    ('seap', 'synchronous', 8, 1): ('aedfcd26b8456a78', 'ca4b983baa9d08a2', '91f0d60650889aa2'),
    ('seap', 'synchronous', 32, 0): ('26d6d4d628936d20', '9a42dec75bd1d68e', 'bf733be3bf416548'),
    ('seap', 'synchronous', 32, 1): ('9549f2a25ffe6a66', 'ace6191fa1c7f811', '86c1556eb765723d'),
    ('seap', 'asynchronous', 2, 0): ('33314cc39bd3f3be', '3cc614f9072381d6', 'd597884fabbf5716'),
    ('seap', 'asynchronous', 2, 1): ('c9b21e23088c0c0b', 'ddf0f70ad3f82eef', 'fef24d3614c8c742'),
    ('seap', 'asynchronous', 8, 0): ('8f7040e0e8e21355', 'd06939338a165fc2', '0f8a8605de2d3094'),
    ('seap', 'asynchronous', 8, 1): ('dc18c7e65ab0e8c0', 'ca4b983baa9d08a2', '30264fec1dd873eb'),
    ('seap', 'asynchronous', 32, 0): ('77f1c103b80d0bef', '9a42dec75bd1d68e', '06eeff224695c099'),
    ('seap', 'asynchronous', 32, 1): ('232ca868ff9c3816', 'ace6191fa1c7f811', 'e331951d2c9ad683'),
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

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
    ('seap', 'synchronous', 2, 0): ('5dea388db6b2fa20', '20b74a1a27c9e5bd', '59cb81bc4c441bb6'),
    ('seap', 'synchronous', 2, 1): ('9aa669e85d5fab02', 'e1b12c6bea5a474d', 'aaa0ba01ef0117c9'),
    ('seap', 'synchronous', 8, 0): ('e36b543e95e481fc', 'd06939338a165fc2', '028439fbab6b99c6'),
    ('seap', 'synchronous', 8, 1): ('003806f0f25c8fb9', 'ca4b983baa9d08a2', '07dd55f3c40446c6'),
    ('seap', 'synchronous', 32, 0): ('83113600e0329c7c', '9a42dec75bd1d68e', '5e0beca7a6138570'),
    ('seap', 'synchronous', 32, 1): ('0d75daa18884d6de', 'ace6191fa1c7f811', '86da60033c98798e'),
    ('seap', 'asynchronous', 2, 0): ('1f42b6c85671973e', '3cc614f9072381d6', 'a507fdc1bbcc2d9d'),
    ('seap', 'asynchronous', 2, 1): ('65a22be496d91a34', 'ddf0f70ad3f82eef', '228091e8eddeee2f'),
    ('seap', 'asynchronous', 8, 0): ('37595af77ad560c9', 'd06939338a165fc2', 'd6dac17abbea7b42'),
    ('seap', 'asynchronous', 8, 1): ('6605bf99bd1fe64c', 'ca4b983baa9d08a2', '0a899f217ac3dd4b'),
    ('seap', 'asynchronous', 32, 0): ('ec5882b85504fd0a', '9a42dec75bd1d68e', 'e7ec65bd906fbc04'),
    ('seap', 'asynchronous', 32, 1): ('4c2b3c9c7f6a442a', 'ace6191fa1c7f811', '6040dd58792be53e'),
    ('kselect', 'synchronous', 2, 0): ('ade66a546d9bc0f3', '91a1dbfb5ad1f9dd', '2e916dc2b9a544f2'),
    ('kselect', 'synchronous', 2, 1): ('7ac579cc74314bff', '74116688be7b86cd', 'e8f1cb21a9e9dd61'),
    ('kselect', 'synchronous', 8, 0): ('399f2e93791b2770', '160c3a6d6396aa27', '4540d67fb00ad70e'),
    ('kselect', 'synchronous', 8, 1): ('81677e0046a3cfb2', 'e5bcdefa45c18414', '529ebb46ebd3e8b1'),
    ('kselect', 'synchronous', 32, 0): ('a54ae55e22afba6a', '80d570b9d28a1fc8', 'e2a0581386fa05a7'),
    ('kselect', 'synchronous', 32, 1): ('0e965af35c9612de', '245adcf9a99d7ee0', '21578cd0720c6e2a'),
    ('kselect', 'asynchronous', 2, 0): ('6198befe2734c71b', '7836f2129cef4b42', 'f08700a9f7dacad5'),
    ('kselect', 'asynchronous', 2, 1): ('40eeef55bae1fa11', 'd3a1e24296e90729', 'cb4f8fcb24bded60'),
    ('kselect', 'asynchronous', 8, 0): ('0d60e55375e4dcf2', '0443c2e3e486eeb2', '69a9e93326a2c443'),
    ('kselect', 'asynchronous', 8, 1): ('f7eef4f220233d6d', '2932d1aee8566d08', '0ff6f7cacfee22c7'),
    ('kselect', 'asynchronous', 32, 0): ('ecd12179f9a7186a', 'c77eebe07f617a74', '31300b44a72d7a72'),
    ('kselect', 'asynchronous', 32, 1): ('e84e271b7f37acae', '15f2d1fc5e7a43e6', 'da706474356dfce8'),
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

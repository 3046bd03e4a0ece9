"""Trace identity: fixed runs keep their exact behaviour.

Each case pins three sha256 digests (first 16 hex digits) of one run: the
full ``trace=`` event stream, the records (for KSelect the answer, its
bookkeeping and ``diag``) and ``run_metrics``.  The stream holds every
send, every delivery and one ``activate`` event per ``on_activate`` call.
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
    ('skeap', 'synchronous', 2, 0): ('a3e148ef159bfbc5', '388368d3c75fc922', '747a94622ced5566'),
    ('skeap', 'synchronous', 2, 1): ('123f500079b374b2', 'b28d0136ddafb062', '4be5255f656c1e07'),
    ('skeap', 'synchronous', 8, 0): ('c83e2101b8141120', 'c9e5fc435d38d1f1', '411bb3ac3731d5b3'),
    ('skeap', 'synchronous', 8, 1): ('b9ab1af9770ca179', '44be1a8a7c2cedf7', 'd2c27d8f970fafe5'),
    ('skeap', 'synchronous', 32, 0): ('3b73e13045afd982', '24621a035be4f904', '70fa88fbc1e9f158'),
    ('skeap', 'synchronous', 32, 1): ('918c25bc0b37bddb', 'f47010e4b7efe9d0', 'ea22edba7a19b66b'),
    ('skeap', 'asynchronous', 2, 0): ('2862e02b2ab2fdcb', 'b5aa0fc289755ada', '20c1e8954974710c'),
    ('skeap', 'asynchronous', 2, 1): ('3fbb7b5b606dcfff', '3fc0f323e6ffd0d5', '78b3320e249ac19b'),
    ('skeap', 'asynchronous', 8, 0): ('279244107676fa3a', 'c9e5fc435d38d1f1', 'e3b28bd930f65a92'),
    ('skeap', 'asynchronous', 8, 1): ('ef37d0eb4de46741', '44be1a8a7c2cedf7', 'da4cc8d0039a469a'),
    ('skeap', 'asynchronous', 32, 0): ('78b2423ace7fd6a4', '24621a035be4f904', '773ce97c534418e3'),
    ('skeap', 'asynchronous', 32, 1): ('fc0bbabda6927c23', 'f47010e4b7efe9d0', 'fc5ac2452a95405d'),
    ('seap', 'synchronous', 2, 0): ('5f471d58bc491266', '3cc614f9072381d6', '1e426abe9bf59bcc'),
    ('seap', 'synchronous', 2, 1): ('7a819af7f6d6fd75', '7c756086b65236f6', '8ca4d97f3ed56e28'),
    ('seap', 'synchronous', 8, 0): ('e77aaa58e2e18453', 'd06939338a165fc2', '3bce7b6f831c00ee'),
    ('seap', 'synchronous', 8, 1): ('57b3070673f6d63c', 'ca4b983baa9d08a2', 'f74038d4b9aa28f6'),
    ('seap', 'synchronous', 32, 0): ('990067c47b5a7578', '9a42dec75bd1d68e', '8d0a226c684ac4f9'),
    ('seap', 'synchronous', 32, 1): ('44764eeae8080085', 'ace6191fa1c7f811', '74cffc43a133328f'),
    ('seap', 'asynchronous', 2, 0): ('d02ff947cfa30a44', '3cc614f9072381d6', 'b73975aa33d5ed18'),
    ('seap', 'asynchronous', 2, 1): ('c24e0f8de7458cfd', '7c756086b65236f6', 'e30af3c2c17562ad'),
    ('seap', 'asynchronous', 8, 0): ('85aa5bf399ad94d0', 'd06939338a165fc2', 'f42be0ffa71b3e0b'),
    ('seap', 'asynchronous', 8, 1): ('67f6562846d1a8c9', 'ca4b983baa9d08a2', '2ae22375b0969d11'),
    ('seap', 'asynchronous', 32, 0): ('9280549b00b28c5c', '9a42dec75bd1d68e', '7bcb4c6abb2fcacb'),
    ('seap', 'asynchronous', 32, 1): ('d166f5f4f49d0538', 'ace6191fa1c7f811', '97276a81a6c00290'),
    ('kselect', 'synchronous', 2, 0): ('a55f0df1dc200296', '59a02f3ac39a5d06', '8bac549f7323130f'),
    ('kselect', 'synchronous', 2, 1): ('2707cbd46baf38f9', 'b463de13591b052a', '88f72ca1a2bcd3b5'),
    ('kselect', 'synchronous', 8, 0): ('0acfb527fdeb8370', '70b0cea0c172bcbc', '1bdd944cca61d7af'),
    ('kselect', 'synchronous', 8, 1): ('648ac3d728a11389', '03850e5d0118b793', '4db51379957e01be'),
    ('kselect', 'synchronous', 32, 0): ('140c69571906a41e', '8c1076b9b27f09da', 'e805921ff87a3f79'),
    ('kselect', 'synchronous', 32, 1): ('5f78b3df7c08e434', '35f239eaee7bd413', '0f1b651a2f725c96'),
    ('kselect', 'asynchronous', 2, 0): ('a0092f85930f5d16', '748df3f957a7c140', '9289e0b8db4d5d68'),
    ('kselect', 'asynchronous', 2, 1): ('36d4e420174b8340', 'f5f2b4885849778b', '9289e0b8db4d5d68'),
    ('kselect', 'asynchronous', 8, 0): ('28917d5692f1a316', '7ec12db548973bdf', '7ca3ed86c1bf3138'),
    ('kselect', 'asynchronous', 8, 1): ('ea796f3fb99d71df', '0a061e83afba5214', 'c434b2630bc2b8b1'),
    ('kselect', 'asynchronous', 32, 0): ('9a5b3c938b38ef38', 'c17aee55a03d49e0', '3c69c1c9e32018f8'),
    ('kselect', 'asynchronous', 32, 1): ('7102f12ea2ef4b61', '1da61bf25e6290c9', 'a9592497770e89ae'),
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

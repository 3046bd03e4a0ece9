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
    ('seap', 'synchronous', 2, 0): ('7bd62ebb147f230f', '3cc614f9072381d6', 'eb96112b2d3cf610'),
    ('seap', 'synchronous', 2, 1): ('84b1a267ca011732', '7c756086b65236f6', '3a7f3dddab6b7e32'),
    ('seap', 'synchronous', 8, 0): ('eec789937e917958', 'd06939338a165fc2', '7b5fa325c52e51f1'),
    ('seap', 'synchronous', 8, 1): ('2321e02228cb03d5', 'ca4b983baa9d08a2', 'a00a689f565b0031'),
    ('seap', 'synchronous', 32, 0): ('63d8d3c14e8f333b', '9a42dec75bd1d68e', '5120b467363ff53d'),
    ('seap', 'synchronous', 32, 1): ('58335618fffb865b', 'ace6191fa1c7f811', '3744d2039dc13e8e'),
    ('seap', 'asynchronous', 2, 0): ('b5d97ba7efde0cbf', '3cc614f9072381d6', '8c0a60548891e2ae'),
    ('seap', 'asynchronous', 2, 1): ('637634a47c694bb3', '7c756086b65236f6', 'a73c4159534bd396'),
    ('seap', 'asynchronous', 8, 0): ('14a9050082befbf4', 'd06939338a165fc2', '88eabe9580840caa'),
    ('seap', 'asynchronous', 8, 1): ('fdabdf49405828d9', 'ca4b983baa9d08a2', '5c63dd8bf6d24d09'),
    ('seap', 'asynchronous', 32, 0): ('e6f664f0952d477d', '9a42dec75bd1d68e', '33682d15557defc1'),
    ('seap', 'asynchronous', 32, 1): ('8b0349cc9724c07a', 'ace6191fa1c7f811', 'd16e2bc977a22bf1'),
    ('kselect', 'synchronous', 2, 0): ('bc43eab5a99d95bb', '1563b2bc06c2066a', 'dc4c7279fa3c8e03'),
    ('kselect', 'synchronous', 2, 1): ('7f10e2c2d49405fe', 'e246066e2ac6e35c', 'a71f86db664d6eeb'),
    ('kselect', 'synchronous', 8, 0): ('a2b9dfd25ee0e3a0', '32bb65e896aa9c5e', '024bd4944715812a'),
    ('kselect', 'synchronous', 8, 1): ('c964b57296d09cb8', 'd786f306a78458c4', '19ff89a1cae518f8'),
    ('kselect', 'synchronous', 32, 0): ('6aba2932badf5403', 'be398730afb5f2f9', '5bfec958e97e27ed'),
    ('kselect', 'synchronous', 32, 1): ('8ef072d0f476a013', '71971ff8771a698e', 'e18975fbc5893439'),
    ('kselect', 'asynchronous', 2, 0): ('390873aaf4e3ed3b', 'f475dec9c1ad0fe2', '43661e1b6a5b1a2f'),
    ('kselect', 'asynchronous', 2, 1): ('c5735ed469e436e4', '22cb40e67d72f64d', '43661e1b6a5b1a2f'),
    ('kselect', 'asynchronous', 8, 0): ('b78d160e12eeadc2', '1cca31c1f230af3f', '49bd15135b5f46a0'),
    ('kselect', 'asynchronous', 8, 1): ('0da207f1d8587a98', '509bd5be9e063467', '43ffa817e388b9ca'),
    ('kselect', 'asynchronous', 32, 0): ('d42f68ddd2f5fc99', '3873f6288087ab50', '32c03585aceab779'),
    ('kselect', 'asynchronous', 32, 1): ('812a151dca311120', 'cbadfe17e34b2f84', 'b17516069927b71e'),
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

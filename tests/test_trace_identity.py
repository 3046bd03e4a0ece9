"""Trace identity: fixed runs keep their exact behaviour.

Each case pins three sha256 digests (first 16 hex digits) of one run: the
full ``trace=`` event stream, the records (for KSelect the answer, its
bookkeeping and ``diag``) and ``run_metrics``.  An engine, overlay or
protocol change that is meant to keep behaviour must leave every digest as
it is; the async cases also pin the schedule's RNG draw order.

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
    ('skeap', 'synchronous', 2, 0): ('a14af76fe51cfba6', '388368d3c75fc922', '747a94622ced5566'),
    ('skeap', 'synchronous', 2, 1): ('09cd417f85ae5790', 'b28d0136ddafb062', '4be5255f656c1e07'),
    ('skeap', 'synchronous', 8, 0): ('e5d15c7060ca0274', 'c9e5fc435d38d1f1', '411bb3ac3731d5b3'),
    ('skeap', 'synchronous', 8, 1): ('f5061294840eae68', '44be1a8a7c2cedf7', 'd2c27d8f970fafe5'),
    ('skeap', 'synchronous', 32, 0): ('9e4aee1d5034cdee', '24621a035be4f904', '70fa88fbc1e9f158'),
    ('skeap', 'synchronous', 32, 1): ('2c44a6fb6d597ab8', 'f47010e4b7efe9d0', 'ea22edba7a19b66b'),
    ('skeap', 'asynchronous', 2, 0): ('062307ca9759c8b7', 'b5aa0fc289755ada', '20c1e8954974710c'),
    ('skeap', 'asynchronous', 2, 1): ('20ec36889d7689b3', '3fc0f323e6ffd0d5', '78b3320e249ac19b'),
    ('skeap', 'asynchronous', 8, 0): ('ed06b58add4b0078', 'c9e5fc435d38d1f1', 'e3b28bd930f65a92'),
    ('skeap', 'asynchronous', 8, 1): ('b57f0b8a421b2f4b', '44be1a8a7c2cedf7', 'da4cc8d0039a469a'),
    ('skeap', 'asynchronous', 32, 0): ('a4fb6cfce0946a0c', '24621a035be4f904', '773ce97c534418e3'),
    ('skeap', 'asynchronous', 32, 1): ('697e0d2f9aa6e543', 'f47010e4b7efe9d0', 'fc5ac2452a95405d'),
    ('seap', 'synchronous', 2, 0): ('0eb5a5b03c4bb75d', '3cc614f9072381d6', 'ad059a2f458a62ec'),
    ('seap', 'synchronous', 2, 1): ('2e0f25b2ce9048ef', '7c756086b65236f6', 'cd759585625a7ebd'),
    ('seap', 'synchronous', 8, 0): ('0c73b18c78c8b94d', '63c1dd3ae0ab1822', 'c34774c28ec71f55'),
    ('seap', 'synchronous', 8, 1): ('f10ef5a8d0c84d0b', '908554c562cdfa92', '4a2ca08e1fe72821'),
    ('seap', 'synchronous', 32, 0): ('7fff6e8b8a25dce6', '215be5ac71832bd5', '2005353a0e5adbb1'),
    ('seap', 'synchronous', 32, 1): ('cbaae7cacfeb20e6', '215f0bdeb34c5d17', '6cb7612e457bc46d'),
    ('seap', 'asynchronous', 2, 0): ('d002ddf0f513e129', '3cc614f9072381d6', '8c0a60548891e2ae'),
    ('seap', 'asynchronous', 2, 1): ('2fc9708605171fc5', '7c756086b65236f6', 'a73c4159534bd396'),
    ('seap', 'asynchronous', 8, 0): ('98a4dd5ff3228cde', '63c1dd3ae0ab1822', '88eabe9580840caa'),
    ('seap', 'asynchronous', 8, 1): ('a0ee7983c7ae3144', '908554c562cdfa92', '5c63dd8bf6d24d09'),
    ('seap', 'asynchronous', 32, 0): ('3859612518c1dbde', '215be5ac71832bd5', '33682d15557defc1'),
    ('seap', 'asynchronous', 32, 1): ('042fe559c3aecb4c', '215f0bdeb34c5d17', 'd16e2bc977a22bf1'),
    ('kselect', 'synchronous', 2, 0): ('437efc91eed9f6c1', '1563b2bc06c2066a', 'dc4c7279fa3c8e03'),
    ('kselect', 'synchronous', 2, 1): ('fd71da55155b9a24', 'e246066e2ac6e35c', 'a71f86db664d6eeb'),
    ('kselect', 'synchronous', 8, 0): ('f59718f66650a661', '32bb65e896aa9c5e', '024bd4944715812a'),
    ('kselect', 'synchronous', 8, 1): ('0c8b73b12461b53f', 'd786f306a78458c4', '19ff89a1cae518f8'),
    ('kselect', 'synchronous', 32, 0): ('9e29525d88ab0a99', 'be398730afb5f2f9', '5bfec958e97e27ed'),
    ('kselect', 'synchronous', 32, 1): ('0c88f60e6ac9eeb2', '71971ff8771a698e', 'e18975fbc5893439'),
    ('kselect', 'asynchronous', 2, 0): ('c604ddbd48cffd6d', 'f475dec9c1ad0fe2', '43661e1b6a5b1a2f'),
    ('kselect', 'asynchronous', 2, 1): ('b16e86a5bc571c56', '22cb40e67d72f64d', '43661e1b6a5b1a2f'),
    ('kselect', 'asynchronous', 8, 0): ('b04955b0abe4454b', '1cca31c1f230af3f', '49bd15135b5f46a0'),
    ('kselect', 'asynchronous', 8, 1): ('214b9386f996deac', '509bd5be9e063467', '43ffa817e388b9ca'),
    ('kselect', 'asynchronous', 32, 0): ('891aea2ab6c579d5', '3873f6288087ab50', '32c03585aceab779'),
    ('kselect', 'asynchronous', 32, 1): ('8661026bc365d4f7', 'cbadfe17e34b2f84', 'b17516069927b71e'),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_case(protocol: str, mode: str, n: int, seed: int) -> tuple[str, str, str]:
    stream = hashlib.sha256()

    def trace(event: dict) -> None:
        stream.update(
            f"{event['kind']} {event['time']} {event['src']} {event['dst']} "
            f"{event['bits']}\n".encode()
        )

    if protocol == "kselect":
        result = run_kselect(
            n, m=n * n, k=n, seed=seed, mode=mode, schedule_seed=seed, trace=trace
        )
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
        result = runner(
            n, seed=seed, lam=2, epochs=2, mode=mode, schedule_seed=seed, trace=trace
        )
        records = [r.to_json() for r in result.records]
    return (
        stream.hexdigest()[:16],
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

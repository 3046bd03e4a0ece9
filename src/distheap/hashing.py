"""Deterministic 64-bit mixing hash, and the one rule for seeded draws.

Overlay labels, DHT keys, sampling coins and rendezvous keys are hashed
by ``mix64``, a splitmix64 fold: a fixed (seed, tag, inputs) triple
always yields the same value.  Workload and schedule draws come from a
``random.Random`` seeded by ``mix64`` and are taken through ``below``,
which states CPython's rule for ``randrange`` here, so the draws do not
rest on a private detail of ``random``.

Hashes repeat their heads: KSelect hashes thousands of keys that share
``(seed, tag, *selection key)``.  So ``mix64`` folds everything but the
last input through ``_fold``, a small bounded cache of folded prefixes,
and mixes only the last input on each call.  The values are the plain
fold's, bit for bit.
"""
from __future__ import annotations

import random
from functools import lru_cache

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class Tag:
    """Domain separation tags, one per use of the hash."""

    LABEL = 1
    SKEAP_KEY = 2
    SPLUS_INSERT_KEY = 3
    SPLUS_POSITION_KEY = 4
    KS_SAMPLE = 5
    KS_POSITION_KEY = 6
    KS_PAIR = 7
    WORKLOAD = 8
    SCHEDULE = 9


def _mix(x: int) -> int:
    # splitmix64 finalizer
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


@lru_cache(maxsize=256)
def _fold(seed: int, head: tuple[int, ...]) -> int:
    """``mix64(seed, *head)``, each shorter prefix folded once as well."""
    if not head:
        return _mix((seed & _MASK) ^ _GOLDEN)
    return _mix(_fold(seed, head[:-1]) ^ _mix((head[-1] & _MASK) + _GOLDEN))


def mix64(seed: int, *values: int) -> int:
    """Fold ``values`` into ``seed``, returning a well-mixed 64-bit word."""
    if not values:
        return _fold(seed, values)
    # _mix(_fold(seed, head) ^ _mix(last)), both mixes inline
    x = ((values[-1] & _MASK) + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    x ^= (x >> 31) ^ _fold(seed, values[:-1])
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def below(rng: random.Random, n: int) -> int:
    """A draw from ``range(n)``: the same stream as ``rng.randrange(n)``.

    CPython's rule: draw ``n.bit_length()`` bits, again while the draw
    is not below ``n``.  ``1 + below(rng, u)`` is ``rng.randint(1, u)``.
    """
    if n < 1:
        raise ValueError(f"empty range for below: {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def hash_unit(tag: int, inputs: tuple[int, ...], seed: int) -> float:
    """Deterministic pseudo-uniform value in [0, 1) for the given inputs."""
    return mix64(seed, tag, *inputs) / 2.0**64


def hash_unit_pair(tag: int, i: int, j: int, seed: int) -> float:
    """Symmetric variant: the pair (i, j) is canonicalized to (min, max)."""
    if i > j:
        i, j = j, i
    return hash_unit(tag, (i, j), seed)

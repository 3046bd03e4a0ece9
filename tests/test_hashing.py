import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distheap.hashing import Tag, below, hash_unit, hash_unit_pair, mix64

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _plain_mix(x):
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def plain_mix64(seed, *values):
    """The reference: the splitmix64 fold, two mixes per input, no cache."""
    h = _plain_mix((seed & _MASK) ^ _GOLDEN)
    for v in values:
        h = _plain_mix(h ^ _plain_mix((v & _MASK) + _GOLDEN))
    return h


# small values, negatives, and values at and past 2**63 and 2**64, where
# the masks and the carry of ``+ _GOLDEN`` matter
WORDS = st.one_of(
    st.integers(-300, 300),
    st.integers(-(2**70), 2**70),
    st.integers(2**63 - 2, 2**63 + 2),
    st.integers(2**64 - 2, 2**64 + 2),
    st.integers(2**64 - _GOLDEN - 2, 2**64 - _GOLDEN + 2),
)


def test_deterministic_across_calls():
    a = hash_unit(Tag.LABEL, (3, 7), 12345)
    b = hash_unit(Tag.LABEL, (3, 7), 12345)
    assert a == b


def test_distinct_inputs_give_distinct_values():
    seen = {hash_unit(Tag.LABEL, (i,), 99) for i in range(1000)}
    assert len(seen) == 1000


def test_tag_separation():
    assert hash_unit(Tag.LABEL, (5,), 7) != hash_unit(Tag.SKEAP_KEY, (5,), 7)


def test_seed_separation():
    assert hash_unit(Tag.LABEL, (5,), 7) != hash_unit(Tag.LABEL, (5,), 8)


def test_pair_symmetry():
    for seed in range(20):
        assert hash_unit_pair(Tag.KS_PAIR, 3, 7, seed) == hash_unit_pair(
            Tag.KS_PAIR, 7, 3, seed
        )


def test_pair_distinguishes_pairs():
    assert hash_unit_pair(Tag.KS_PAIR, 1, 2, 5) != hash_unit_pair(Tag.KS_PAIR, 1, 3, 5)


def test_uniform_mean():
    # Monte Carlo check of uniformity: mean of 1e5 samples near 1/2
    samples = [hash_unit(Tag.WORKLOAD, (i,), 2024) for i in range(100_000)]
    assert 0.49 <= statistics.fmean(samples) <= 0.51


def test_uniform_buckets():
    counts = [0] * 10
    for i in range(50_000):
        counts[int(hash_unit(Tag.WORKLOAD, (i, 1), 7) * 10)] += 1
    assert all(4500 < c < 5500 for c in counts)


def test_mix64_range():
    for i in range(100):
        assert 0 <= mix64(1, i) < 2**64


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=WORDS, values=st.lists(WORDS, max_size=7))
def test_mix64_equals_the_plain_fold(seed, values):
    assert mix64(seed, *values) == plain_mix64(seed, *values)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=WORDS,
    head=st.lists(WORDS, max_size=6),
    lasts=st.lists(WORDS, min_size=1, max_size=8),
)
def test_mix64_equals_the_plain_fold_under_a_repeated_head(seed, head, lasts):
    for last in lasts:
        assert mix64(seed, *head, last) == plain_mix64(seed, *head, last)


def test_mix64_equals_the_plain_fold_after_its_cache_evicts():
    heads = [(Tag.KS_PAIR, i, i * 7) for i in range(600)]  # more heads than the cache keeps
    for _ in range(2):
        for head in heads:
            assert mix64(11, *head, 3) == plain_mix64(11, *head, 3)


# one value per tag, from the plain fold
PINNED_UNITS = [
    (Tag.LABEL, (5, 0), 1, 0.010706238591803112),
    (Tag.SKEAP_KEY, (3, 17), 1, 0.5847483316782178),
    (Tag.SPLUS_INSERT_KEY, (12, 4), 7, 0.5463915067464591),
    (Tag.SPLUS_POSITION_KEY, (2, 9), 7, 0.267949462530086),
    (Tag.KS_SAMPLE, (0, 3, 0, 41, 2), 1, 0.9053719650073349),
    (Tag.KS_POSITION_KEY, (1, 2, 0, 5), 1, 0.48975770494646165),
    (Tag.KS_PAIR, (0, 4, 1, 3, 11), 2, 0.09779836205425851),
    (Tag.WORKLOAD, (-4,), 3, 0.9589676854107617),
    (Tag.SCHEDULE, (2**64 + 3,), 0, 0.22738791284414697),
]


@pytest.mark.parametrize("tag, inputs, seed, expected", PINNED_UNITS)
def test_hash_unit_is_pinned(tag, inputs, seed, expected):
    assert hash_unit(tag, inputs, seed) == expected


BELOW_BOUNDS = [1, 2, 3, 15, 16, 17, 128, 2**31 + 1, 2**64 + 3]


@pytest.mark.parametrize("n", BELOW_BOUNDS)
def test_below_draws_the_randrange_stream(n):
    ours, theirs = random.Random(n), random.Random(n)
    assert [below(ours, n) for _ in range(500)] == [theirs.randrange(n) for _ in range(500)]
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", BELOW_BOUNDS)
def test_one_plus_below_draws_the_randint_stream(n):
    ours, theirs = random.Random(-n), random.Random(-n)
    assert [1 + below(ours, n) for _ in range(500)] == [theirs.randint(1, n) for _ in range(500)]
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [0, -3])
def test_below_an_empty_range_is_an_error(n):
    with pytest.raises(ValueError, match="empty range"):
        below(random.Random(1), n)

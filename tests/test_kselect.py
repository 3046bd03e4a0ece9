import math
import random
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import fields
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distheap import kselect
from distheap.experiments import make_elements, run_kselect, run_skeap_plus
from distheap.kselect import (
    NEG_INF,
    PHASE2_CAP,
    POS_INF,
    RESAMPLE_CAP,
    CandOp,
    CompareOp,
    CopyAggMsg,
    CopySplit,
    KSelectNode,
    ProbeReport,
    VoteMsg,
    combine_minmax,
    delta_for,
    exponent_for,
    order_statistics,
    phase1_iterations,
    sample_probability,
)
from distheap.node import PutOp, RouteMsg
from distheap.overlay import CycleTopology
from distheap.sim import ASYNC, SYNC, Element, SimConfig, SimulationFault, Simulator
from distheap.skeap_plus import StoreOp


def E(prio, origin=0, seq=None, _counter=[0]):
    _counter[0] += 1
    return Element(prio, origin, seq if seq is not None else _counter[0])


# -- pure helpers ------------------------------------------------------------


def test_exponent():
    assert exponent_for(4, 4) == 1
    assert exponent_for(4, 5) == 2
    assert exponent_for(4, 16) == 2
    assert exponent_for(4, 64) == 3
    assert exponent_for(10, 1) == 1


def test_phase1_iteration_count():
    assert phase1_iterations(1) == 1
    assert phase1_iterations(2) == 2
    assert phase1_iterations(3) == 3  # ceil(log2 3) + 1
    assert phase1_iterations(4) == 3


def test_order_statistics_normal():
    cands = sorted([E(1), E(4), E(5)], key=lambda e: e.key)
    lo, hi = order_statistics(cands, k=3, n=2)
    assert (lo, hi) == (1, 4)  # floor(3/2)=1st smallest, ceil(3/2)=2nd


def test_order_statistics_k_below_n_keeps_lower_open():
    cands = sorted([E(5), E(9)], key=lambda e: e.key)
    lo, hi = order_statistics(cands, k=1, n=4)
    assert lo == NEG_INF
    assert hi == 5


def test_order_statistics_small_node_keeps_upper_open():
    # a node with fewer candidates than ceil(k/n) cannot upper-bound the
    # target: clamping to its own maximum would prune the true answer
    cands = sorted([E(3)], key=lambda e: e.key)
    lo, hi = order_statistics(cands, k=6, n=2)
    assert lo == 3  # local max is a sound lower-cut contribution
    assert hi == POS_INF


def test_order_statistics_empty_keeps_upper_open():
    # an empty node cannot bound the target from above; its +inf absorbs the
    # max aggregation while staying neutral for the min side
    assert order_statistics([], k=5, n=2) == (POS_INF, POS_INF)


def test_combine_minmax_sentinels():
    parts = [(POS_INF, NEG_INF), (3, 7), (5, POS_INF)]
    assert combine_minmax(parts) == (3, POS_INF)
    assert combine_minmax([(NEG_INF, 2), (1, 4)]) == (NEG_INF, 4)


def _lo_min(a, b):
    # the lower fold: NEG_INF absorbs, POS_INF is neutral
    if NEG_INF in (a, b):
        return NEG_INF
    if a == POS_INF:
        return b
    if b == POS_INF:
        return a
    return min(a, b)


def _hi_max(a, b):
    # the upper fold: POS_INF absorbs, NEG_INF is neutral
    if POS_INF in (a, b):
        return POS_INF
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    return max(a, b)


_bounds = st.one_of(st.sampled_from([NEG_INF, POS_INF]), st.integers(0, 6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_bounds, _bounds), max_size=5))
def test_combine_minmax_matches_pairwise_folds(parts):
    want = reduce(
        lambda acc, part: (_lo_min(acc[0], part[0]), _hi_max(acc[1], part[1])),
        parts,
        (POS_INF, NEG_INF),
    )
    got = combine_minmax(iter(parts))
    assert got == want
    assert list(map(type, got)) == list(map(type, want))  # a sentinel stays a sentinel


_keys = st.tuples(st.integers(0, 6), st.integers(0, 2), st.integers(0, 3))
# sorted candidates over few priorities, so that the bounds meet ties
_candidate_lists = st.sets(_keys, max_size=12).map(lambda keys: [Element(*k) for k in sorted(keys)])
# a phase-2 window end: open, or an element that may or may not be a candidate
_window_ends = st.one_of(st.none(), _keys.map(lambda k: Element(*k)))


def _holding(cands):
    """Node 0 of a two-node system, holding ``cands`` for selection 7."""
    node = KSelectNode(Simulator(SimConfig(n=2, seed=0)), 0, CycleTopology.build(2, 0))
    node.candidates[7] = list(cands)
    return node


def _open(bound):
    return bound in (NEG_INF, POS_INF)  # either sentinel leaves its side open


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_candidate_lists, _bounds, _bounds)
def test_phase1_prune_keeps_the_priorities_within_the_bounds(cands, lo, hi):
    node = _holding(cands)
    answers = []
    node.contribute_all = lambda kind, key, value: answers.append((kind, key, value))
    node.flood_k1p((7, 1), (lo, hi))
    [(wave, key, (below, above))] = answers
    assert (wave, key) == ("k1c", (7, 1))  # answered once, on the k1c wave
    assert node.candidates[7] == [
        e for e in cands if (_open(lo) or lo <= e.priority) and (_open(hi) or e.priority <= hi)
    ]
    assert below == sum(1 for e in cands if not _open(lo) and e.priority < lo)
    assert above == sum(1 for e in cands if not _open(hi) and e.priority > hi)


def _phase1_bounds(lists, k):
    """The combined phase-1 bounds of per-node sorted priority lists."""
    return combine_minmax(
        order_statistics([Element(p, v, i) for i, p in enumerate(prios)], k, len(lists))
        for v, prios in enumerate(lists)
    )


def _bisect_prune(lists, lo, hi):
    """Keep each node's priorities within ``[lo, hi]`` (a sentinel leaves its
    side open); return the kept lists and the counts pruned below and above."""
    kept, below, above = [], 0, 0
    for prios in lists:
        start = 0 if _open(lo) else bisect_left(prios, lo)
        stop = len(prios) if _open(hi) else bisect_right(prios, hi)
        kept.append(prios[start:stop])
        below += start
        above += len(prios) - stop
    return kept, below, above


# per-node sorted priorities over few values (duplicates), empty nodes included
_priority_lists = st.lists(
    st.lists(st.integers(0, 5), max_size=6).map(sorted), min_size=1, max_size=6
).filter(lambda lists: any(lists))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_priority_lists, st.data())
def test_a_phase1_cut_with_nothing_below_leaves_the_bounds_as_they_were(lists, data):
    # a cut that prunes nothing below leaves k, and so both indices, as they
    # were; a finite hi means that every node held ceil(k/n) candidates, and
    # the cut took only priorities above hi, which sort after each node's
    # ceil(k/n)-th, so the next bounds are the same and prune nothing.  And
    # with k // n <= 1 the lower bound (-inf or the global minimum) prunes
    # nothing.  Phase 1 is replayed here cut by cut until one prunes nothing below
    n = len(lists)
    k = data.draw(st.integers(1, sum(map(len, lists))))
    while True:
        bounds = _phase1_bounds(lists, k)
        lists, below, _ = _bisect_prune(lists, *bounds)
        if k // n <= 1:
            assert below == 0
        if not below:
            break
        k -= below
    assert _phase1_bounds(lists, k) == bounds
    assert _bisect_prune(lists, *bounds) == (lists, 0, 0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_candidate_lists, _window_ends, _window_ends)
def test_phase2_prune_keeps_the_element_window(cands, lo, hi):
    node = _holding(cands)
    below, above = node._prune(7, lo and lo.key, hi and hi.key)
    assert node.candidates[7] == [
        e for e in cands if (lo is None or lo.key <= e.key) and (hi is None or e.key <= hi.key)
    ]
    assert below == sum(1 for e in cands if lo is not None and e.key < lo.key)
    assert above == sum(1 for e in cands if hi is not None and e.key > hi.key)


def test_phase1_worked_example():
    # two nodes, k=3: priorities {1,4,5} and {2,3,6} -> bounds [1,4],
    # pruning drops {5,6}, k stays 3
    a = sorted([E(1), E(4), E(5)], key=lambda e: e.key)
    b = sorted([E(2), E(3), E(6)], key=lambda e: e.key)
    bounds = combine_minmax([order_statistics(a, 3, 2), order_statistics(b, 3, 2)])
    assert bounds == (1, 4)
    survivors = [e for e in a + b if 1 <= e.priority <= 4]
    pruned_below = sum(1 for e in a + b if e.priority < 1)
    assert len(survivors) == 4
    assert pruned_below == 0
    target = sorted(a + b, key=lambda e: e.key)[2]
    assert target.priority == 3
    assert target in survivors


def test_delta_formula():
    assert delta_for(64) == math.ceil(0.5 * math.sqrt(6) * 64**0.25)
    assert delta_for(4) >= 1


def test_sample_probability_floor_and_boundary():
    assert sample_probability(256, 4096) == 16 / 4096
    assert sample_probability(4, 100) == 8 / 100  # floored expected sample
    assert sample_probability(16, 3) == 1.0  # N below the target sample size


def test_sampling_expected_size_monte_carlo():
    # E[n'] for n=256, N=4096 is 16; check the hash-coin sampler's mean
    from distheap.hashing import Tag, hash_unit

    p = sample_probability(256, 4096)
    total = 0
    trials = 400
    for trial in range(trials):
        total += sum(
            1 for i in range(4096) if hash_unit(Tag.KS_SAMPLE, (trial, i), 77) < p
        )
    mean = total / trials
    assert abs(mean - 16) < 1.6  # within 10%


# -- end-to-end selection ---------------------------------------------------------


def oracle_rank(n, m, seed, k):
    placement = make_elements(n, m, seed, n ** exponent_for(n, max(m, 2)))
    flat = sorted((e for node in placement for e in node), key=lambda e: e.key)
    return flat[k - 1]


def test_all_elements_on_one_node_degenerate():
    # placement is random, but a tiny system with m elements all of equal
    # priority space still must return the exact k-th
    res = run_kselect(n=2, m=5, k=3, seed=123)
    assert res.correct, (res.error, res.answer, res.oracle)


@pytest.mark.parametrize("k_kind", ["min", "max", "mid"])
@pytest.mark.parametrize("n,m", [(4, 4), (4, 64), (8, 8), (8, 64), (16, 256)])
def test_extremes_and_middle(n, m, k_kind):
    k = {"min": 1, "max": m, "mid": (m + 1) // 2}[k_kind]
    res = run_kselect(n=n, m=m, k=k, seed=31 * n + m)
    assert res.correct, (n, m, k, res.error, res.answer, res.oracle)


# the known median stall (ROADMAP item 5); the change that mends it removes the marker
@pytest.mark.xfail(strict=True, reason="phase 2 stalled at N=114")
def test_a_median_of_n_squared_elements_at_n64():
    res = run_kselect(64, 4096, 2048, seed=1)
    assert res.correct, res.error


# (n, m, k, seed, kselect globals patched, error, retries): every early end
EARLY_ENDS = {
    "k=0": (4, 10, 0, 5, {}, "k=0 outside [1, 10]", 0),
    "m=0": (4, 0, 1, 5, {}, "k=1 outside [1, 0]", 0),
    "k>m": (4, 10, 11, 5, {}, "k=11 outside [1, 10]", 0),
    "resample-cap": (
        16, 256, 100, 1, {"sample_probability": lambda n, candidates: 1e-9},
        "sampling repeatedly produced no candidates", RESAMPLE_CAP + 1,
    ),
    "phase2-cap": (
        64, 4096, 64, 1, {"PHASE2_CAP": 1}, "phase 2 stalled at N=216 after 1 iterations", 0,
    ),
}


@pytest.mark.parametrize("case", EARLY_ENDS)
def test_out_of_range_k_is_protocol_error(case, monkeypatch):
    n, m, k, seed, patches, error, retries = EARLY_ENDS[case]
    for name, value in patches.items():
        monkeypatch.setattr(kselect, name, value)
    res = run_kselect(n=n, m=m, k=k, seed=seed)  # a stall would raise SimulationFault
    assert res.error == error
    assert res.answer is None
    assert res.retries == retries


def _started(n, m, seed, k=None, mode=SYNC):
    """A KSelect system placed as ``run_kselect`` places it, selection of
    ``k`` (by default n) started; returns (simulator, nodes, anchor)."""
    sim = Simulator(SimConfig(n=n, seed=seed, mode=mode))
    topo = CycleTopology.build(n, seed)
    nodes = [KSelectNode(sim, v, topo) for v in range(n)]
    for node, elems in zip(nodes, make_elements(n, m, seed, n ** exponent_for(n, m))):
        sim.add_node(node)
        node.seed_elements(elems)
    anchor = nodes[topo.root.owner]
    anchor.run_program(anchor.select(n if k is None else k))
    return sim, nodes, anchor


@pytest.mark.parametrize(
    "kind,key",
    [("k1c", (0, 1)), ("k1", (1, 1)), ("k2n", (0, 1, 0))],
    ids=["next-barrier", "other-selection", "sort-count"],
)
def test_anchor_rejects_a_wave_it_does_not_wait_for(kind, key):
    _, _, anchor = _started(8, 64, 1)  # the selection waits for the first k1 wave
    with pytest.raises(SimulationFault, match="unasked"):
        anchor.resume((kind, key), (1, 2))


def test_two_programs_may_not_wait_for_one_barrier():
    _, _, anchor = _started(8, 64, 1)  # the selection waits for the first k1 wave

    def program():
        yield "k1", (0, 1)

    with pytest.raises(SimulationFault, match="two anchor programs wait for"):
        anchor.run_program(program())


def test_anchor_rejects_a_stale_probe_report(monkeypatch):
    passes = []
    wave_down = KSelectNode.wave_down

    def recording(self, kind, key, vid, share):
        if kind == "k2n" and vid == self.topo.root:
            passes.append(key)
        wave_down(self, kind, key, vid, share)

    monkeypatch.setattr(KSelectNode, "wave_down", recording)
    sim, _, anchor = _started(16, 256, 1)
    while len(passes) < 2:  # run into the second sorting pass
        sim.step_round()
    report = ProbeReport(passes[0], "lo", Element(1, 0, 1))
    refused = ("probes", passes[0])  # the first pass, which no program waits for
    with pytest.raises(SimulationFault, match=re.escape(f"barrier {refused} reached the anchor")):
        anchor.on_message(0, report)


def test_sorting_state_is_released_after_a_selection():
    sim, nodes, anchor = _started(16, 256, 1)
    sim.run_sync()
    assert anchor.selection.result is not None
    for node in nodes:
        assert node.copy_slots == {} and node.chosen == {} and node.rendezvous == {}
        assert not any(kind == "k2n" for kind, _, _ in node._waves)


def test_no_wave_session_outlives_a_selection():
    # the reply waves but k2n have no down half: they end with their combine
    sim, nodes, anchor = _started(64, 64 * 64, 1)
    sim.run_sync()
    assert anchor.selection.result is not None
    assert sum(len(node._waves) for node in nodes) == 0
    # an empty sample's k2n pass ends at its empty share
    sim, nodes, anchor = _started(16, 256, 25, k=128)
    sim.run_sync()
    assert anchor.selection.result is not None and anchor.selection.retries == 1
    assert sum(len(node._waves) for node in nodes) == 0
    with pytest.raises(SimulationFault, match="before the wave combined"):
        anchor.wave_down("ki", (0,), anchor.topo.root, (1, 1))


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_a_forced_empty_sample_ends_at_its_empty_share(mode, monkeypatch):
    # the first sample draws nothing: every node gets an empty k2n share,
    # which ends its session and its chosen list, and the re-drawn sample
    # goes on to the exact answer
    choose, deliver_k2n = KSelectNode._choose, KSelectNode.deliver_k2n
    empty = (0, 1, 0)  # (selection, pass, salt)
    shares = []

    def first_empty(self, key, cands, p, how):
        return [] if key == empty else choose(self, key, cands, p, how)

    def delivered(self, key, share):
        if key == empty:
            shares.append(share[2:])
        deliver_k2n(self, key, share)

    monkeypatch.setattr(KSelectNode, "_choose", first_empty)
    monkeypatch.setattr(KSelectNode, "deliver_k2n", delivered)
    n, m, seed = 16, 256, 1
    sim, nodes, anchor = _started(n, m, seed, mode=mode)
    if mode == SYNC:
        sim.run_sync()
    else:
        sim.run_async(0)
    assert anchor.selection.result == oracle_rank(n, m, seed, n)
    assert anchor.selection.retries == 1
    assert shares == [(0, 0, 0, 0)] * n
    for node in nodes:
        assert node._waves == {} and node.chosen == {} and node._programs == {}


@pytest.mark.parametrize("seed", range(25))
def test_random_small_sweep_matches_oracle(seed):
    rng = random.Random(seed)
    n = rng.choice([4, 8, 16])
    m = rng.choice([n, 3 * n, n * n])
    k = rng.randint(1, m)
    res = run_kselect(n=n, m=m, k=k, seed=seed)
    assert res.correct, (n, m, k, res.error, res.diag)


@pytest.mark.parametrize("schedule_seed", range(6))
def test_async_schedules_same_answer(schedule_seed):
    res = run_kselect(n=8, m=64, k=20, seed=9, mode=ASYNC, schedule_seed=schedule_seed)
    assert res.correct, (res.error, res.diag)


def test_phase1_bound_contains_target_every_iteration():
    for seed in range(10):
        n, m = 8, 512
        k = random.Random(seed).randint(1, m)
        res = run_kselect(n=n, m=m, k=k, seed=seed)
        assert res.correct
        target = res.oracle
        for row in res.diag:
            if row["phase"] == "p1":
                lo, hi = row["p_min"], row["p_max"]
                if lo not in (NEG_INF, POS_INF):
                    assert lo <= target.priority
                if hi not in (NEG_INF, POS_INF):
                    assert target.priority <= hi


def test_target_rank_tracks_k_through_pruning():
    # replay the recorded prune bounds against the full element population:
    # after every iteration the target's rank among survivors equals k
    n, m, seed = 8, 256, 3
    k = 100
    res = run_kselect(n=n, m=m, k=k, seed=seed)
    assert res.correct
    placement = make_elements(n, m, seed, n ** exponent_for(n, m))
    survivors = sorted((e for node in placement for e in node), key=lambda e: e.key)
    target = survivors[k - 1]
    for row in res.diag:
        if row["phase"] == "p1":
            lo, hi = row["p_min"], row["p_max"]
            survivors = [
                e
                for e in survivors
                if (lo in (NEG_INF, POS_INF) or e.priority >= lo)
                and (hi in (NEG_INF, POS_INF) or e.priority <= hi)
            ]
        elif row["phase"] == "p2":
            lo_e, hi_e = row["bounds"]
            survivors = [
                e
                for e in survivors
                if (lo_e is None or e.key >= lo_e.key)
                and (hi_e is None or e.key <= hi_e.key)
            ]
        else:
            continue
        assert len(survivors) == row["N"]
        assert survivors[row["k"] - 1] == target


def test_phase2_iterations_bounded_and_retries_rare():
    total_iters = 0
    total_retries = 0
    for seed in range(15):
        res = run_kselect(n=16, m=256, k=(seed * 17) % 256 + 1, seed=seed)
        assert res.correct
        total_iters += res.phase2_iterations
        total_retries += res.retries
    assert total_retries <= max(1, total_iters // 50)


def test_rounds_scale_with_log_n(monkeypatch):
    # O(log n) rounds = O(1) anchor passes of O(log n) rounds each.  The
    # total ratio rounds[64] / rounds[4] (10.6-35.3 over seeds 0-9) mixes in
    # a pass count that only the caps bound at these n: a phase-2 iteration
    # shrinks N by about n' / (2 delta + 1), which stays near 1 for
    # 32 <= n <= 256 (0.89 at n=64), so n=64 may run up to PHASE2_CAP
    # iterations, while n=4 skips phase 2 (N < SAMPLE_FLOOR after phase 1).
    # So check the two factors: rounds per pass grow like log n, and the
    # pass count stays under the protocol's n-independent caps.
    rounds, floods = {}, {}
    flood = KSelectNode.flood

    def counting_flood(self, kind, key, payload):
        floods[self.sim.cfg.n] += 1
        flood(self, kind, key, payload)

    monkeypatch.setattr(KSelectNode, "flood", counting_flood)
    for n in (4, 16, 64):
        floods[n] = 0
        res = run_kselect(n=n, m=n * n, k=n, seed=1)
        assert res.correct
        rounds[n] = res.rounds
        # the phase-3 pass, two floods per phase-1 and per phase-2 iteration
        # and one per re-drawn empty sample (test_floods_per_selection); the
        # cap also allows the unfused count flood and prune floods
        q = exponent_for(n, n * n)
        cap = 2 + 2 * phase1_iterations(q) + 3 * PHASE2_CAP + res.retries
        assert floods[n] <= cap, (n, floods[n], cap)
    assert rounds[64] > rounds[4]
    per_pass = {n: rounds[n] / floods[n] for n in rounds}
    assert per_pass[64] <= per_pass[4] * (math.log2(64) / math.log2(4)) * 3, per_pass


def _recorded_floods(monkeypatch):
    """Every anchor flood from now on, as (kind, key, payload)."""
    floods = []
    flood = KSelectNode.flood

    def recording(self, kind, key, payload):
        floods.append((kind, key, payload))
        flood(self, kind, key, payload)

    monkeypatch.setattr(KSelectNode, "flood", recording)
    return floods


@pytest.mark.parametrize(
    "n,m,k,seed,retries",
    [
        (4, 16, 4, 1, 0),
        (16, 256, 16, 1, 0),
        (64, 4096, 64, 1, 0),
        (8, 512, 8, 1, 0),
        (16, 256, 128, 25, 1),
        (8, 20, 12, 2, 0),  # an empty node: the one phase-1 iteration floods no k1p
    ],
)
def test_floods_per_selection(n, m, k, seed, retries, monkeypatch):
    # a k1 and a k1p flood per phase-1 iteration (no k1p where neither side
    # can cut: k // n <= 1 and an open upper bound), a k2 and a k2r flood per
    # phase-2 iteration, a k2 flood per re-drawn sample and one for phase 3:
    # the count rides the first k1 wave, each prune the next k2 flood
    floods = _recorded_floods(monkeypatch)
    res = run_kselect(n=n, m=m, k=k, seed=seed)
    assert res.correct
    assert res.retries == retries
    p1 = [row for row in res.diag if row["phase"] == "p1"]
    p2 = sum(row["phase"] == "p2" for row in res.diag)
    uncut = sum(row["k"] // n <= 1 and row["p_max"] == POS_INF for row in p1)
    assert len(floods) == 2 * len(p1) - uncut + 2 * p2 + retries + 1
    assert {kind for kind, _, _ in floods} <= {"k1", "k1p", "k2", "k2r"}


def test_each_sample_is_drawn_from_the_pruned_candidates(monkeypatch):
    floods = _recorded_floods(monkeypatch)
    drawn = []
    choose = KSelectNode._choose

    def recording(self, key, cands, p, mode):
        drawn.append((key, list(cands)))
        return choose(self, key, cands, p, mode)

    monkeypatch.setattr(KSelectNode, "_choose", recording)
    res = run_kselect(n=16, m=4096, k=16, seed=1)
    assert res.correct
    bounds = {key: payload[2] for kind, key, payload in floods if kind == "k2"}
    assert sum(b != (None, None) for b in bounds.values()) >= 2
    assert {key for key, _ in drawn} == set(bounds)
    for key, cands in drawn:
        lo, hi = bounds[key]
        for e in cands:
            assert lo is None or lo.key <= e.key
            assert hi is None or e.key <= hi.key


@pytest.mark.parametrize("n", [4, 8, 16])
def test_phase1_stops_after_a_cut_that_prunes_nothing(n):
    # with m > n^2 phase 1 may run three iterations; a cut that prunes
    # nothing below leaves the next the same bounds, so it is the last and
    # no idle iteration follows it.  With k = n it is the first, which
    # prunes above only; with k = m every cut but the last prunes below
    m = n**3
    rows = {}
    for k in (n, m):
        res = run_kselect(n=n, m=m, k=k, seed=1)
        assert res.correct
        p1 = rows[k] = [row for row in res.diag if row["phase"] == "p1"]
        assert len(p1) <= phase1_iterations(exponent_for(n, m))
        assert all(row["pruned_below"] + row["pruned_above"] for row in p1), p1  # none idle
        assert all(row["pruned_below"] for row in p1[:-1]), p1
    assert [row["pruned_below"] for row in rows[n]] == [0]
    assert len(rows[m]) > 1


def test_anchor_checks_every_later_k1_count(monkeypatch):
    # k >= 2n, so that the first cut prunes below and a second k1 wave runs
    prune = KSelectNode._prune

    def reporting_only(self, inv, lo_key, hi_key):
        cands = self.candidates[inv]
        counts = prune(self, inv, lo_key, hi_key)
        self.candidates[inv] = cands  # report the cut, keep every candidate
        return counts

    monkeypatch.setattr(KSelectNode, "_prune", reporting_only)
    with pytest.raises(SimulationFault, match="candidate count"):
        run_kselect(n=8, m=64, k=32, seed=1)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_a_rank_n_selection_among_n_squared_floods_one_k1_and_one_k1p(n, monkeypatch):
    # k // n = 1: the lower bound is the global minimum, so the first cut
    # prunes nothing below and ends phase 1; the finite upper bound still cuts
    floods = _recorded_floods(monkeypatch)
    res = run_kselect(n, n * n, n, seed=1)
    assert res.correct
    kinds = Counter(kind for kind, _, _ in floods)
    assert (kinds["k1"], kinds["k1p"]) == (1, 1)
    [p1] = [row for row in res.diag if row["phase"] == "p1"]
    assert p1["pruned_below"] == 0 < p1["pruned_above"]


def _selected_from(lists, k):
    """The anchor's record of a sync selection of rank ``k`` over nodes that
    hold the priorities ``lists`` (node v's elements are ``(p, v, i)``)."""
    n = len(lists)
    sim = Simulator(SimConfig(n=n, seed=1))
    topo = CycleTopology.build(n, 1)
    nodes = [KSelectNode(sim, v, topo) for v in range(n)]
    for v, node in enumerate(nodes):
        sim.add_node(node)
        node.seed_elements([Element(p, v, i) for i, p in enumerate(lists[v])])
    anchor = nodes[topo.root.owner]
    anchor.run_program(anchor.select(k))
    sim.run_sync()
    return anchor.selection


@pytest.mark.parametrize("k", [1, 7, 8, 15])
def test_a_selection_below_2n_with_an_empty_node_floods_no_k1p(k, monkeypatch):
    # k // n <= 1 makes lo -inf or the global minimum, and the empty node's
    # +inf makes hi +inf: neither side can cut, so the anchor skips the k1p
    # barrier and logs the cut of nothing
    floods = _recorded_floods(monkeypatch)
    n = 8
    lists = [[3 * v + j for j in range(3)] for v in range(n)]
    lists[5] = []
    sel = _selected_from(lists, k)
    flat = sorted(p for prios in lists for p in prios)
    assert sel.error is None and sel.result.priority == flat[k - 1]
    kinds = Counter(kind for kind, _, _ in floods)
    assert (kinds["k1"], kinds["k1p"]) == (1, 0)
    [p1] = [row for row in sel.diag if row["phase"] == "p1"]
    assert (p1["pruned_below"], p1["pruned_above"], p1["p_max"]) == (0, 0, POS_INF)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_a_selection_below_2n_runs_one_phase1_iteration(n):
    for m in (n, n * n, n**3):
        for k in sorted({1, n, 2 * n - 1} & set(range(1, m + 1))):
            res = run_kselect(n=n, m=m, k=k, seed=n + m + k)
            assert res.correct, (n, m, k)
            assert sum(row["phase"] == "p1" for row in res.diag) == 1, (n, m, k)


def test_no_candidate_list_outlives_a_selection():
    sim, nodes, anchor = _started(16, 256, 1)
    sim.run_sync()
    assert anchor.selection.result is not None
    assert all(node.candidates == {} for node in nodes)


def _sent_operations(monkeypatch):
    """Every payload sent from now on, a routed operation unwrapped from the
    ``RouteMsg`` of each hop that carries it."""
    sent = []
    send = Simulator.send

    def recording(self, src, dst, payload):
        sent.append(payload.inner if isinstance(payload, RouteMsg) else payload)
        send(self, src, dst, payload)

    monkeypatch.setattr(Simulator, "send", recording)
    return sent


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_messages_carry_no_field_their_receiver_holds(mode, monkeypatch):
    # Seap runs KSelect in every delete phase, stores its inserted elements
    # and puts the selected ones at their positions
    sent = _sent_operations(monkeypatch)
    res = run_skeap_plus(16, seed=1, lam=2, mode=mode)
    assert res.ok
    slot_messages = (CopySplit, CompareOp, VoteMsg, CopyAggMsg)
    kinds = Counter(type(op) for op in sent)
    assert all(kinds[cls] > 0 for cls in (*slot_messages, CandOp, PutOp, StoreOp))
    for op in sent:
        if isinstance(op, slot_messages):
            # a copy slot is named by naturals; the receiver adds the key
            held = [getattr(op, f.name) for f in fields(op) if f.name != "key"]
            assert not any(
                type(v) is tuple and v[: len(op.key)] == op.key for v in held
            ), op
        element = getattr(op, "element", None)
        if element is not None:
            # the element names itself: no field repeats its (origin, seq)
            held = [getattr(op, f.name) for f in fields(op) if f.name != "element"]
            assert (element.origin, element.seq) not in held, op
    # only a copy tree's root reports an order, from its own CandOp
    assert not {"n_prime", "probe_lo", "probe_hi", "target"} & {
        f.name for f in fields(CopySplit)
    }

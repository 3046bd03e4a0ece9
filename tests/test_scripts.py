"""Scripted runs: a script ``{node: {epoch: [(kind, priority), ...]}}`` is
checked where it enters a run, and every run of a valid script is correct.

The generated scripts cover what the generated workloads do not: sizes
that are not powers of two, requests in every epoch (elements left from
one epoch meet the deletes of the next), nodes idle in some epochs, and
priorities from a small range, so ties are common.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distheap import run_skeap, run_skeap_plus
from distheap.batches import DELETE, INSERT
from distheap.sim import ASYNC, SYNC
from oracles import brute_force_order

N = 4


def _skeap(script, epochs=1):
    return run_skeap(N, seed=1, priorities=2, epochs=epochs, script=script)


def _seap(script, epochs=1):
    return run_skeap_plus(N, seed=1, epochs=epochs, mode=ASYNC, schedule_seed=2, script=script)


RUNS = pytest.mark.parametrize("run", [_skeap, _seap], ids=["skeap", "seap"])


@RUNS
@pytest.mark.parametrize("node", [-1, N])
def test_a_script_node_outside_the_run_is_rejected(run, node):
    with pytest.raises(ValueError, match=rf"node {node}, outside \[0, {N}\)"):
        run({node: {0: [(INSERT, 1)]}})


@RUNS
@pytest.mark.parametrize("epoch", [-1, 2])
def test_a_script_epoch_outside_the_run_is_rejected(run, epoch):
    with pytest.raises(ValueError, match=rf"epoch {epoch} outside \[0, 2\)"):
        run({1: {epoch: [(DELETE, None)]}}, epochs=2)


@RUNS
def test_a_script_request_of_unknown_kind_is_rejected(run):
    with pytest.raises(ValueError, match="unknown request kind 'find-min'"):
        run({1: {0: [("find-min", None)]}})


@pytest.mark.parametrize(
    "run,universe,prio",
    [(_skeap, 2, 0), (_skeap, 2, 3), (_seap, N * N, 0), (_seap, N * N, 10**6)],
    ids=["skeap-0", "skeap-above", "seap-0", "seap-above"],
)
def test_a_script_insert_priority_outside_the_universe_is_rejected(run, universe, prio):
    with pytest.raises(ValueError, match=rf"priority {prio} outside \[1, {universe}\]"):
        run({1: {0: [(INSERT, prio)]}})


@RUNS
def test_a_script_delete_with_a_priority_is_rejected(run):
    with pytest.raises(ValueError, match="a delete has priority 1"):
        run({1: {0: [(DELETE, 1)]}})


@st.composite
def scripted_runs(draw):
    n = draw(st.sampled_from([2, 3, 5, 8]))
    epochs = draw(st.integers(1, 3))
    top = draw(st.integers(1, 3))  # priorities 1..top
    request = st.one_of(
        st.tuples(st.just(INSERT), st.integers(1, top)),
        st.tuples(st.just(DELETE), st.none()),
    )
    by_epoch = st.dictionaries(st.integers(0, epochs - 1), st.lists(request, max_size=3))
    script = draw(st.dictionaries(st.integers(0, n - 1), by_epoch, max_size=n))
    mode = draw(st.sampled_from([SYNC, ASYNC]))
    schedule_seed = draw(st.integers(0, 2**16)) if mode == ASYNC else 0
    return dict(
        n=n, seed=draw(st.integers(0, 3)), epochs=epochs, mode=mode,
        schedule_seed=schedule_seed, script=script,
    ), top


def _issued(script):
    return sum(len(reqs) for by_epoch in script.values() for reqs in by_epoch.values())


@given(scripted_runs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_generated_skeap_scripts_run_correctly(case):
    args, top = case
    res = run_skeap(priorities=top, **args)
    assert res.ok, res.verdict.violation
    assert len(res.records) == _issued(args["script"])
    if len(res.records) <= 8:
        assert brute_force_order(res.records) is not None


@given(scripted_runs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_generated_seap_scripts_run_correctly(case):
    args, _ = case
    res = run_skeap_plus(**args)
    assert res.ok, (res.verdict.violation, res.extra["phase_violation"])
    assert len(res.records) == _issued(args["script"])
    if len(res.records) <= 8:
        assert brute_force_order(res.records) is not None

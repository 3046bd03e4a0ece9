import pytest

from distheap.batches import DELETE, INSERT
from distheap.consistency import BOTTOM
from distheap.experiments import _run_heap, run_skeap_plus
from distheap.sim import ASYNC, SYNC, Element
from distheap.skeap_plus import build_skeap_plus


def run_script(mode, script, n=4, seed=1, epochs=1):
    res = run_skeap_plus(n, seed=seed, epochs=epochs, mode=mode, schedule_seed=3, script=script)
    assert res.ok, res.verdict.violation
    assert res.extra["phase_optimal"], res.extra["phase_violation"]
    return res


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_deletes_on_an_empty_heap_take_the_k_star_zero_path(mode):
    res = run_script(mode, {0: [(DELETE, None)], 2: [(DELETE, None), (DELETE, None)]})
    assert res.extra["epochs"] == [{"epoch": 0, "k": 3, "k_star": 0, "m": 0}]
    assert len(res.records) == 3
    assert all(r.kind == DELETE and r.returned == BOTTOM for r in res.records)


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
def test_insert_then_two_deletes_gives_the_element_and_one_bottom(mode):
    res = run_script(mode, {1: [(INSERT, 5), (DELETE, None), (DELETE, None)]})
    assert res.extra["epochs"] == [{"epoch": 0, "k": 2, "k_star": 1, "m": 1}]
    returned = [r.returned for r in res.records if r.kind == DELETE]
    assert returned == [Element(5, 1, 1), BOTTOM]


@pytest.mark.parametrize("mode", [SYNC, ASYNC])
@pytest.mark.parametrize(
    "script", [None, {0: [(DELETE, None)]}], ids=["generated", "scripted"]
)
def test_no_wave_session_outlives_a_run(mode, script):
    # si and KSelect's reply waves end with their combine; the sd wave of an
    # epoch without deletes sends no share and ends at the fskip flood
    n = 16
    _, nodes, _ = _run_heap(
        build_skeap_plus, 3, None, script,
        n=n, seed=1, priority_universe=n * n, lam=2, mode=mode, epochs=3,
    )
    assert sum(len(node._waves) for node in nodes) == 0

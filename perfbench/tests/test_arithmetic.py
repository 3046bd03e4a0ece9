"""Arithmetic of the benchmark itself: self times, error rate, phase rounds.

Run with ``python3 -m pytest perfbench/tests -q``; nothing here imports distheap.
"""
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as R  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402


def test_self_time_subtracts_children_not_grandchildren():
    # run [0, 10] -> a [1, 5] -> b [2, 3];  run -> c [6, 8]
    names = ["x.run", "y.a", "z.b", "y.c"]
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 5.0, 3.0, 8.0]
    parents = [-1, 0, 1, 0]
    table = T.self_times(names, starts, ends, parents)
    assert table["x.run"] == (1, 10.0, 4.0)
    assert table["y.a"] == (1, 4.0, 3.0)
    assert table["z.b"] == (1, 1.0, 1.0)
    assert table["y.c"] == (1, 2.0, 2.0)
    layers = T.layer_self(table)
    assert layers == {"x": 4.0, "y": 5.0, "z": 1.0}
    # self times partition the root span
    assert sum(layers.values()) == pytest.approx(ends[0] - starts[0])


def test_self_time_sums_calls_of_one_name():
    table = T.self_times(["a.f", "a.f", "a.g"], [0.0, 2.0, 2.5], [1.0, 4.0, 3.0], [-1, -1, 1])
    assert table["a.f"] == (2, 3.0, 2.5)
    assert table["a.g"] == (1, 0.5, 0.5)


def test_wall_per_calib_divides_by_the_mean_calibration():
    assert R.wall_per_calib(1.5, 0.1, 0.2) == pytest.approx(10.0)
    # a host twice as slow doubles run and calibration alike
    assert R.wall_per_calib(3.0, 0.2, 0.4) == pytest.approx(10.0)
    for times in ((0.0, 0.1, 0.1), (1.0, 0.0, 0.1), (1.0, 0.1, -0.1)):
        with pytest.raises(ValueError):
            R.wall_per_calib(*times)


def test_calibration_work_is_fixed():
    assert R._calibration_work() == R._calibration_work()
    assert R.calibrate() > 0


def test_error_rate():
    assert W.error_rate(0, 4) == 0.0
    assert W.error_rate(4, 4) == 1.0
    assert W.error_rate(1, 4) == 0.25
    for failed, attempted in ((0, 0), (5, 4), (-1, 3)):
        with pytest.raises(ValueError):
            W.error_rate(failed, attempted)


def test_failed_uses_each_protocols_checker():
    skeap, kselect, seap = (W.WORKLOADS[n] for n in
                            ("skeap-sync-n512", "kselect-sync-n128", "seap-async-n128"))
    assert not W.failed(skeap, SimpleNamespace(ok=True))
    assert W.failed(skeap, SimpleNamespace(ok=False))
    assert not W.failed(kselect, SimpleNamespace(correct=True))
    assert W.failed(kselect, SimpleNamespace(correct=False))
    # Seap needs both its serializability verdict and phase optimality
    for ok, phase_optimal in ((True, False), (False, True), (False, False)):
        assert W.failed(seap, SimpleNamespace(ok=ok, extra={"phase_optimal": phase_optimal}))
    assert not W.failed(seap, SimpleNamespace(ok=True, extra={"phase_optimal": True}))


def test_kselect_rounds_split_by_anchor_floods():
    tr = T.Tracer(timing=False)
    sel = SimpleNamespace(inv=0, start_round=10, rounds=90)
    tr.selections.append((sel, False))
    tr.flood_stamps += [
        (10, "ki", (0,), "p1"),
        (20, "k1", (0, 1), "p1"),
        (40, "k2", (0, 1, 0), "p2"),
        (70, "k2r", (0, 1, 0), "p2"),
        (80, "k2", (0, 2, 0), "p3"),
        (15, "ki", (1,), "p1"),  # another selection's flood is not counted
    ]
    tr.root_stamps += [(18, "ki", (0,)), (35, "k1", (0, 1))]
    phases, barriers = tr.kselect_rounds()
    assert phases == {"p1": 30, "p2": 40, "p3": 20}
    assert sum(phases.values()) == sel.rounds
    assert barriers[0]["rounds"] == 8 and barriers[1]["rounds"] == 15
    assert barriers[2]["rounds"] is None


def test_idle_activations_are_those_without_a_send():
    tr = T.Tracer(timing=False)
    events = ["activate", "send", "activate", "deliver", "send", "activate", "activate", "send"]
    for t, kind in enumerate(events):
        tr({"kind": kind, "time": t, "src": 0, "dst": 0, "bits": 9})
    tr.finish_events()
    assert tr.activations == 4
    assert tr.idle_activations == 2  # the second and third; the send after "deliver" is not theirs
    assert tr.deliveries == 1
    assert tr.clock == len(events) - 1

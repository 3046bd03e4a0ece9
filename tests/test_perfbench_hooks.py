"""The benchmark's tracer still finds every hook point it wraps.

``perfbench/tracer.py`` wraps distheap from outside, at the attributes
callers resolve: engine methods, every class-level ``size_bits``, the
message-size helpers and the protocol methods.  A refactor that moves one
of them breaks only the traced benchmark run; these tests catch it here.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

from distheap import node, run_kselect, run_skeap, run_skeap_plus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer as perf_tracer  # noqa: E402

N = 8

# protocol -> one run of it, given the ``trace=`` callback
RUNS = {
    "skeap": lambda trace: run_skeap(N, seed=1, priorities=2, lam=2, epochs=2, trace=trace),
    "seap": lambda trace: run_skeap_plus(N, seed=1, lam=2, epochs=2, trace=trace),
    "kselect": lambda trace: run_kselect(N, N * N, N, seed=1, trace=trace),
}


def _snapshot() -> dict:
    """Every distheap module global and class attribute, by identity."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname != "distheap" and not modname.startswith("distheap."):
            continue
        for attr, value in vars(module).items():
            out[(modname, attr)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    out[(modname, attr, cattr)] = cvalue
    return out


def _run_installed(timing: bool, protocol: str = "skeap"):
    tr = perf_tracer.Tracer(timing)
    before = _snapshot()
    tr.install()
    try:
        patched = {(owner, attr) for owner, attr, _ in tr._patched}
        result = RUNS[protocol](None if timing else tr)
    finally:
        tr.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == []
    return tr, result, patched


def _expected_hooks(leaves: bool) -> set:
    """Methods wrapped in both passes; with ``leaves``, the counting pass's size helpers."""
    from distheap import batches, kselect, node, sim

    hooks = {(sim.Simulator, attr) for attr in ("step_round", "run_sync", "run_async", "send")}
    for module in (node, kselect):
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ \
                    and "size_bits" in cls.__dict__:
                hooks.add((cls, "size_bits"))
    if leaves:
        hooks |= {(cls, "bits") for cls in (sim.Element, batches.Batch, batches.EntryShare)}
        hooks |= {(sim, "nat_bits"), (sim, "interval_bits"), (node, "value_bits")}
    return hooks


def test_counting_tracer_hooks_and_restore():
    tr, result, patched = _run_installed(timing=False)
    assert _expected_hooks(leaves=True) <= patched
    rounds = result.metrics["rounds"]
    assert rounds > 0
    assert tr.activations == 0  # the engine traces no activate event
    assert tr.counts["sim.step_round"] == rounds
    assert tr.counts["sim.run_sync"] == 1
    assert tr.counts["sim.send"] == result.metrics["messages_sent"]
    assert tr.counts["msgsize.size_bits"] > 0
    assert tr.counts["msgsize.leaf"] > 0


def test_timing_tracer_hooks_and_restore():
    tr, result, patched = _run_installed(timing=True)
    assert _expected_hooks(leaves=False) <= patched
    table = tr.table()
    assert table["sim.step_round"][0] == result.metrics["rounds"]
    assert table["sim.send"][0] == result.metrics["messages_sent"]
    assert table["msgsize.size_bits"][0] > 0


def _outcome(result) -> list:
    """What a run computed besides its metrics: a heap's records, or a
    selection's answer, error and pruning rows."""
    if hasattr(result, "records"):
        return [r.to_json() for r in result.records]
    return [result.answer, result.error, result.diag]


def _kind_handlers(protocol: str) -> set:
    """The flood and wave handlers (``flood_k``, ``combine_k``, ``split_k``,
    ``deliver_k``) the protocol's classes define, aliases included."""
    from distheap import kselect, skeap, skeap_plus

    classes = {
        "skeap": (skeap.SkeapNode,),
        "seap": (skeap_plus.SkeapPlusNode, kselect.KSelectNode),
        "kselect": (kselect.KSelectNode,),
    }[protocol]
    roles = ("flood", "combine", "split", "deliver")
    return {(cls, attr) for cls in classes for attr in vars(cls) if attr.split("_")[0] in roles}


@pytest.mark.parametrize("protocol", sorted(RUNS))
@pytest.mark.parametrize("timing", [False, True])
def test_tracer_leaves_runs_unchanged(timing, protocol):
    # the tracer wraps every flood and wave handler, the aliased ones too,
    # and the run still computes the same
    plain = RUNS[protocol](None)
    _, traced, patched = _run_installed(timing, protocol)
    assert _kind_handlers(protocol) and _kind_handlers(protocol) <= patched
    assert traced.metrics == plain.metrics
    assert _outcome(traced) == _outcome(plain)


def test_sizers_built_under_the_tracer_keep_none_of_its_counters():
    # each message class's size function is built on first use; one built
    # while the counting tracer is installed must still call the helpers
    # that are bound once the tracer is gone
    node._SIZERS.clear()
    tr = perf_tracer.Tracer(timing=False)
    tr.install()
    try:
        run_skeap_plus(N, seed=1, lam=2, epochs=2)
    finally:
        tr.restore()
    assert len(node._SIZERS) == len(
        {
            cls.__name__
            for cls in node.Message.__subclasses__()
            if cls.__module__.startswith("distheap")
        }
    )  # every message class was first sized under the tracer
    assert tr.counts["msgsize.size_bits"] > 0 and tr.counts["msgsize.leaf"] > 0
    counts = dict(tr.counts)
    run_skeap_plus(N, seed=1, lam=2, epochs=2)
    assert dict(tr.counts) == counts


def test_tracer_names_every_kselect_flood_and_its_reply_wave():
    # the traced benchmark's per-phase rounds read these names
    from distheap import kselect

    assert perf_tracer.KSELECT_REPLY_WAVE == kselect._REPLY
    assert set(perf_tracer.KSELECT_FLOODS) == set(kselect._REPLY)

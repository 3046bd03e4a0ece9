"""Every request a node issues reaches the checkers exactly once.

The protocols fill in the requests that ``RequestSource`` issues, and the
run hands those same objects to the checkers, so a request can be neither
dropped nor counted twice between issue and verdict.
"""
from collections import Counter

import pytest

from distheap import experiments, run_skeap, run_skeap_plus
from distheap.sim import ASYNC, SYNC


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("mode", [SYNC, ASYNC])
@pytest.mark.parametrize("run", [run_skeap, run_skeap_plus], ids=["skeap", "seap"])
def test_each_issued_request_is_recorded_once(run, mode, n, seed, monkeypatch):
    built = []
    run_heap = experiments._run_heap

    def keeping_nodes(*args, **kwargs):
        sim, nodes, anchor = run_heap(*args, **kwargs)
        built.extend(nodes)
        return sim, nodes, anchor

    monkeypatch.setattr(experiments, "_run_heap", keeping_nodes)
    res = run(n, seed=seed, mode=mode, schedule_seed=seed)
    issued = Counter((node.id, req.seq) for node in built for req in node.source.issued)
    recorded = Counter((r.node, r.seq) for r in res.records)
    assert issued and set(issued.values()) == {1}
    assert recorded == issued

import json

import pytest

from distheap import ASYNC, SYNC, run_kselect, run_skeap, run_skeap_plus
from distheap.cli import main


@pytest.mark.parametrize(
    "protocol,mode", [("skeap", "sync"), ("seap", "sync"), ("kselect", "sync"), ("kselect", "async")]
)
def test_run_prints_the_direct_runs_totals(protocol, mode, capsys):
    main(["run", "--protocol", protocol, "--n", "8", "--seed", "1", "--mode", mode,
          "--schedule-seed", "2"])
    out = json.loads(capsys.readouterr().out)
    sim_mode = SYNC if mode == "sync" else ASYNC
    if protocol == "kselect":
        direct = run_kselect(8, m=64, k=8, seed=1, mode=sim_mode, schedule_seed=2)
        assert out["correct"] == direct.correct
    else:
        runner = run_skeap if protocol == "skeap" else run_skeap_plus
        direct = runner(8, seed=1, mode=sim_mode, schedule_seed=2)
        assert out["ok"] == direct.ok
        assert out["verdict"] == direct.verdict.to_json()
        if protocol == "seap":
            assert out["phase_optimal"] is direct.extra["phase_optimal"] is True
            assert out["phase_violation"] is direct.extra["phase_violation"] is None
    assert out["config"]["protocol"] == protocol
    assert out["totals"]["rounds"] == direct.metrics["rounds"]
    assert out["totals"]["messages_sent"] == direct.metrics["messages_sent"]


def test_run_rejects_a_single_node(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--protocol", "skeap", "--n", "1", "--seed", "0"])
    assert "--n must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", ["seap", "kselect"])
def test_async_clock_is_the_last_event_time(protocol, capsys):
    main(["run", "--protocol", protocol, "--n", "8", "--seed", "1", "--mode", "async",
          "--schedule-seed", "2"])
    out = json.loads(capsys.readouterr().out)
    events = []
    if protocol == "kselect":
        direct = run_kselect(8, m=64, k=8, seed=1, mode=ASYNC, schedule_seed=2,
                             trace=events.append)
    else:
        direct = run_skeap_plus(8, seed=1, mode=ASYNC, schedule_seed=2, trace=events.append)
    assert out["totals"]["rounds"] == 0
    assert out["clock"] == direct.final_time == events[-1]["time"] > 0

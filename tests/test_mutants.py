"""The mutation gate's catalog still applies to this tree.

``mutants/run.py`` runs the gate itself, outside tier-1; here each
mutant's old text must occur exactly once in its file and each killer must
be a test outside the identity files that exists (``catalog.check``), and
a pytest run that outlives its time limit is stopped and counts as a kill.
"""
from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "mutants"))
import catalog  # noqa: E402


def test_every_mutant_applies_to_this_tree():
    catalog.check(ROOT)


def test_a_mutant_whose_text_moved_is_an_error(monkeypatch):
    moved = catalog.Mutant("moved", "src/distheap/node.py", "no such text", "", ("x",), "")
    monkeypatch.setattr(catalog, "CATALOG", catalog.CATALOG + (moved,))
    with pytest.raises(ValueError, match="moved: its old text occurs 0 times"):
        catalog.check(ROOT)


def test_a_killer_in_an_identity_file_is_an_error(monkeypatch):
    first = catalog.CATALOG[0]
    digest = "tests/test_trace_identity.py::test_trace_records_and_metrics_unchanged"
    pinned = catalog.Mutant("pinned", first.file, first.old, first.new, (digest,), "")
    monkeypatch.setattr(catalog, "CATALOG", (pinned,))
    with pytest.raises(ValueError, match="is in an identity file"):
        catalog.check(ROOT)


def _runner():
    """``mutants/run.py``, loaded under its own name (``perfbench`` has a
    ``run`` module too)."""
    spec = importlib.util.spec_from_file_location("mutants_run", ROOT / "mutants" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_pytest_run_past_its_time_limit_is_stopped(tmp_path, monkeypatch):
    (tmp_path / "test_sleep.py").write_text("import time\n\n\ndef test_sleep():\n    time.sleep(60)\n")
    run = _runner()
    monkeypatch.setattr(run, "TIMEOUT_S", 2)
    start = time.perf_counter()
    assert run._pytest(tmp_path, ["test_sleep.py"]) == (None, [])
    assert time.perf_counter() - start < 30


def test_a_mutant_that_times_out_counts_as_killed(monkeypatch, capsys):
    run = _runner()
    first = catalog.CATALOG[0]
    monkeypatch.setattr(catalog, "CATALOG", (first,))
    # the unmutated killers pass; the mutant's run is stopped at its limit
    outcomes = iter([(0, []), (None, [])])
    monkeypatch.setattr(run, "_pytest", lambda tree, tests: next(outcomes))
    assert run.main() == 0
    row = json.loads(capsys.readouterr().out)
    assert (row["name"], row["killed"], row["reason"]) == (first.name, True, "timeout")

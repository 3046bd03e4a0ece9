"""The mutation gate's catalog still applies to this tree.

``mutants/run.py`` runs the gate itself, outside tier-1; here each
mutant's old text must occur exactly once in its file and each killer must
be a test outside the identity files that exists (``catalog.check``).
"""
from __future__ import annotations

import sys
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

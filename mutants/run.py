"""Run the mutation gate: every catalogued mutant must be killed.

    python3 mutants/run.py

For each mutant of ``mutants/catalog.py``, the runner copies the tree to
a temporary directory, applies the mutant there and runs the tests named
to kill it, with tier-1's ``PYTHONPATH``.  It prints one JSON row per
mutant: its name, whether it was killed and why (``"failed"`` or
``"timeout"``; ``"passed"`` for a survivor), the failures seen and the
seconds taken.  A mutant's tests that run longer than ``TIMEOUT_S``
seconds are stopped, and the mutant counts as killed: a fault that makes
a run hang is caught, and the gate does not hang with it.  Before any
mutant it runs every killer once on an unmutated copy; they must pass
there, in time, so that a failure on a mutant is the mutant's.
Hypothesis does not shrink in the copies: the gate needs a failing
example, not the smallest one.

Exit status: 0 if every mutant was killed, 1 if any survived, 2 if the
catalog does not apply to this tree or a killer fails unmutated.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import catalog

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120  # per pytest run; the killers take seconds on the unmutated tree
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out")
NO_SHRINK = """\
from hypothesis import Phase, settings

settings.register_profile("gate", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("gate")
"""


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=IGNORED)
        else:
            shutil.copy2(src, dest / name)
    (dest / "conftest.py").write_text(NO_SHRINK)


def _pytest(tree: Path, tests: list[str]) -> tuple[int | None, list[str]]:
    """Run ``tests`` in ``tree``; return pytest's exit code, or None if the
    run was stopped after ``TIMEOUT_S`` seconds, and the ids of the tests
    that failed or errored."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, []
    failures = [
        line.split()[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1
    ]
    return proc.returncode, failures


def main() -> int:
    try:
        catalog.check(ROOT)
    except ValueError as err:
        print(f"catalog: {err}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "unmutated"
        _copy(base)
        killers = sorted({k for m in catalog.CATALOG for k in m.killers})
        code, failures = _pytest(base, killers)
        if code != 0:
            why = "timeout" if code is None else failures or code
            print(f"killers fail on the unmutated tree: {why}", file=sys.stderr)
            return 2
        survived = 0
        for m in catalog.CATALOG:
            start = time.perf_counter()
            tree = Path(tmp) / m.name
            _copy(tree)
            catalog.apply(m, tree)
            code, failures = _pytest(tree, list(m.killers))
            shutil.rmtree(tree)
            # 1: a test failed; 2: collection failed, say on an import the mutant broke
            reason = "timeout" if code is None else "failed" if code in (1, 2) else "passed"
            killed = reason != "passed"
            survived += not killed
            row = {
                "name": m.name, "file": m.file, "killed": killed, "reason": reason,
                "exit_code": code, "failures": failures,
                "seconds": round(time.perf_counter() - start, 1),
            }
            print(json.dumps(row), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

"""Every ``def`` in ``src/distheap`` is called by a run or the CLI, or is
allowed by name with its reason.

A fresh process imports the package under ``sys.setprofile`` and runs a
small fixed set: each protocol in both modes at n=8, a scripted Seap run
whose deletes outnumber its inserts, a selection that ends early and the
``distheap run`` command for each protocol.  The process must be fresh:
in a warm one, ``node``'s registries (``_SIZERS``, ``_HANDLER_NAMES``)
have already filled and skip the builders they call.  It runs the
package this test imported, so a copy of the tree censuses itself.

The test compiles each module and lists its defs (functions, methods and
nested defs; not lambdas, comprehensions, class bodies or the methods
``dataclass`` generates), keyed by (file, first line, ``co_name``), as
Python 3.10 has no ``co_qualname``.  The defs the run never entered must
be exactly ``ALLOWED``.  A helper that only a test calls belongs beside
the tests, not in ``src/``.
"""
from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import distheap

PACKAGE = Path(distheap.__file__).resolve().parent

_BASE_HOOK = "a base hook: it raises, as reaching it is a fault"
_PINNED = "the identity pins and perfbench's digest read it"

# "file:Class.method" (a nested def as "outer.inner") -> why no run calls it
ALLOWED = {
    "sim.py:ProtocolNode.on_message": _BASE_HOOK,
    "sim.py:ProtocolNode.done": "the base contract (a node with no waits is done); "
    "OverlayNode overrides it",
    "overlay.py:CycleTopology.route": "the reference that route_step is tested against",
    "overlay.py:CycleTopology.height": "perfbench reads it",
    "overlay.py:CycleTopology.debruijn_hops": "perfbench's tracer reads it",
    "hashing.py:hash_unit_pair": "perfbench's tracer wraps it by name (ROADMAP item 7A deletes it)",
    "consistency.py:OperationRecord.to_json": _PINNED,
    "consistency.py:OperationRecord.to_json.elem": _PINNED,
}

CENSUS = r"""
import contextlib, io, json, os, sys

entered = {}


def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered[id(code)] = code  # kept alive, so no id is reused


sys.setprofile(hook)
import distheap
from distheap import ASYNC, SYNC, cli, run_kselect, run_skeap, run_skeap_plus
from distheap.batches import DELETE, INSERT

for mode in (SYNC, ASYNC):
    run_skeap(8, seed=1, mode=mode, schedule_seed=1)
    run_skeap_plus(8, seed=1, mode=mode, schedule_seed=1)
    run_kselect(8, 64, 8, seed=1, mode=mode, schedule_seed=1)
bottoms = {0: {0: [(INSERT, 3), (DELETE, None)]}, 2: {0: [(DELETE, None)], 1: [(DELETE, None)]}}
run_skeap_plus(4, seed=1, epochs=2, script=bottoms)
run_kselect(4, 10, 11, 5)  # k > m: the selection ends early
with contextlib.redirect_stdout(io.StringIO()):
    for protocol in ("skeap", "seap", "kselect"):
        cli.main(["run", "--protocol", protocol, "--n", "8", "--seed", "1"])
sys.setprofile(None)

package = os.path.dirname(os.path.abspath(distheap.__file__))
print(json.dumps(sorted(
    (os.path.basename(c.co_filename), c.co_firstlineno, c.co_name)
    for c in entered.values()
    if os.path.dirname(os.path.abspath(c.co_filename)) == package
)))
"""


def _defs(code: types.CodeType, file: str, prefix: str = "") -> dict[tuple, str]:
    """Every def below ``code``: (file, first line, co_name) -> dotted name."""
    found = {}
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
            continue  # lambdas and comprehensions
        name = prefix + const.co_name
        if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
            found[(file, const.co_firstlineno, const.co_name)] = name
        found.update(_defs(const, file, name + "."))
    return found


def _entered() -> set[tuple]:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", CENSUS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return {tuple(key) for key in json.loads(proc.stdout)}


def test_every_src_def_is_called_or_allowed():
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defs.update(_defs(compile(path.read_text(), str(path), "exec"), path.name))
    entered = _entered()
    uncalled = sorted(f"{key[0]}:{name}" for key, name in defs.items() if key not in entered)
    assert uncalled == sorted(ALLOWED), (
        f"never called and not allowed: {sorted(set(uncalled) - ALLOWED.keys())}; "
        f"allowed but called: {sorted(ALLOWED.keys() - set(uncalled))}"
    )

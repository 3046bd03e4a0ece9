"""Every ``def`` in ``src/distheap`` is called by a run or the CLI, and
every field of its dataclasses is read by its own code, or the def or
field is allowed by name with its reason.

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

Before the runs, the process puts a counting descriptor on every field of
every dataclass the package defines: over a ``slots`` class's member
descriptor, or in place of a plain class's attribute, keeping the value
in the instance's ``__dict__``.  It counts a read only from a function in
the package's files, so not from a built sizer (compiled from
``<size_bits ...>``), a ``bits`` method or a method that ``dataclass``
generates (compiled from ``<string>``): sizing a field is not reading it.
The fields no run reads must be exactly ``UNREAD``.
"""
from __future__ import annotations

import functools
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
    "sim.py:nat_bits": "the fault path of every inline natural: only a negative value, which "
    "no run sends, reaches it; tests/test_sim.py checks the rule against it",
    "sim.py:interval_bits": "the benchmark tracer's counting pass wraps `sim.interval_bits` "
    "by name; item 22 removes that",
    "consistency.py:OperationRecord.to_json": _PINNED,
    "consistency.py:OperationRecord.to_json.elem": _PINNED,
}

_RESULT = "a run's result, as the caller sees it: tests and perfbench read it"

# "file:Class.field" -> why no run reads it
UNREAD = {
    "node.py:RouteMsg.inner_bits": "sized only, by design: it holds the routed operation's "
    "size, which the built sizer adds in place of the operation's own",
    **{
        f"experiments.py:KSelectResult.{name}": _RESULT
        for name in ("n", "m", "k", "seed", "rounds", "retries", "phase2_iterations", "diag")
    },
    **{f"experiments.py:HeapRunResult.{name}": _RESULT for name in ("n", "seed", "records")},
}

CENSUS = r"""
import contextlib, io, json, os, sys

entered = {}


def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered[id(code)] = code  # kept alive, so no id is reused


sys.setprofile(hook)
import dataclasses, importlib, pkgutil
import distheap

package = os.path.dirname(os.path.abspath(distheap.__file__))
reads = {}
from_package = {}  # code object -> whether a read from it counts


def count(key, code):
    counts = from_package.get(code)
    if counts is None:
        counts = from_package[code] = code.co_name != "bits" and (
            os.path.dirname(os.path.abspath(code.co_filename)) == package
        )
    if counts:
        reads[key] += 1


class SlotField:
    def __init__(self, key, member):
        self.key, self.member = key, member

    def __get__(self, obj, owner=None):
        if obj is None:
            return self.member
        count(self.key, sys._getframe(1).f_code)
        return self.member.__get__(obj, owner)

    def __set__(self, obj, value):
        self.member.__set__(obj, value)


class DictField:
    def __init__(self, key, name):
        self.key, self.name = key, name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        count(self.key, sys._getframe(1).f_code)
        try:
            return obj.__dict__[self.name]
        except KeyError:
            raise AttributeError(self.name) from None

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


for info in pkgutil.iter_modules(distheap.__path__):
    module = importlib.import_module(f"distheap.{info.name}")
    for cls in list(vars(module).values()):
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            continue
        if cls.__module__ != module.__name__:
            continue
        for f in dataclasses.fields(cls):
            key = f"{info.name}.py:{cls.__qualname__}.{f.name}"
            reads[key] = 0
            if f.name in cls.__dict__.get("__slots__", ()):
                setattr(cls, f.name, SlotField(key, cls.__dict__[f.name]))
            else:
                setattr(cls, f.name, DictField(key, f.name))
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

print(json.dumps({
    "entered": sorted(
        (os.path.basename(c.co_filename), c.co_firstlineno, c.co_name)
        for c in entered.values()
        if os.path.dirname(os.path.abspath(c.co_filename)) == package
    ),
    "reads": reads,
}))
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


@functools.cache
def _census() -> dict:
    """The census process's output: the defs it entered and the reads of
    each dataclass field."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", CENSUS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_src_def_is_called_or_allowed():
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defs.update(_defs(compile(path.read_text(), str(path), "exec"), path.name))
    entered = {tuple(key) for key in _census()["entered"]}
    uncalled = sorted(f"{key[0]}:{name}" for key, name in defs.items() if key not in entered)
    assert uncalled == sorted(ALLOWED), (
        f"never called and not allowed: {sorted(set(uncalled) - ALLOWED.keys())}; "
        f"allowed but called: {sorted(ALLOWED.keys() - set(uncalled))}"
    )


def test_every_src_dataclass_field_is_read_or_allowed():
    reads = _census()["reads"]
    unread = sorted(name for name, count in reads.items() if not count)
    assert unread == sorted(UNREAD), (
        f"never read and not allowed: {sorted(set(unread) - UNREAD.keys())}; "
        f"allowed but read: {sorted(UNREAD.keys() - set(unread))}"
    )

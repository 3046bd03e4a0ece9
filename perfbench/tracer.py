"""Span tracer for the traced run: wraps distheap's layer boundaries from outside.

Each wrapper replaces a function or method at the attribute its callers
resolve (a module global, or a class attribute found through the MRO).
A traced run makes two passes over the same workload:

* the timing pass records one span per call at every layer boundary: a
  name, a start, an end and the parent span, kept in flat arrays in memory
  and written out when the run ends.  It installs nothing else, so self
  times carry only the spans' own cost.
* the counting pass installs the same boundaries as call counters, plus
  counters on the message-size leaf helpers (``nat_bits``, ``value_bits``,
  ``*.bits``), the ``trace=`` callback (engine events, per-class message
  sizes) and hooks that read route lengths, parked DHT gets and anchor-side
  flood stamps, which give KSelect's rounds per phase.

Node activations get no span: there is one per node per round, so a span
would cost more than most activations.  Their cost is the engine's
(``sim``) self time, and the work an activation starts is traced below it.
"""
from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Flood kind -> KSelect phase; "k2" floods are phase 3 when they sample everything.
KSELECT_FLOODS = {"ki": "p1", "k1": "p1", "k1p": "p1", "k2": "p2", "k2r": "p2", "k2p": "p2"}
# The wave each KSelect flood is answered by.
KSELECT_REPLY_WAVE = {"ki": "ki", "k1": "k1", "k1p": "k1c", "k2": "k2n", "k2r": "k2r", "k2p": "k2s"}

MESSAGE_CLASSES = (
    "FloodMsg", "WaveUpMsg", "WaveDownMsg",
    "RouteMsg.PutOp", "RouteMsg.GetOp", "RouteMsg.CandOp", "RouteMsg.CompareOp",
    "PutAckMsg", "GetReplyMsg",
    "CopySplit", "VoteMsg", "CopyAggMsg", "ProbeReport",
)


def self_times(names, starts, ends, parents) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total seconds, self seconds).

    A span's self time is its duration minus the time its child spans
    cover; children of one span never overlap, since the program is
    single-threaded.
    """
    child_cover = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_cover[parent] += ends[i] - starts[i]
    out: dict[str, list] = {}
    for i, name in enumerate(names):
        duration = ends[i] - starts[i]
        row = out.get(name)
        if row is None:
            row = out[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child_cover[i]
    return {name: tuple(row) for name, row in out.items()}


def layer_self(table: dict[str, tuple[int, float, float]]) -> dict[str, float]:
    """Self seconds per layer; a span's layer is its name up to the first dot."""
    out: dict[str, float] = defaultdict(float)
    for name, (_, _, self_s) in table.items():
        out[name.split(".", 1)[0]] += self_s
    return dict(out)


def message_class(payload) -> str:
    name = type(payload).__name__
    if name == "RouteMsg":
        return f"RouteMsg.{type(payload.inner).__name__}"
    return name


class Tracer:
    """Wrappers, spans and counters for one pass of a traced run."""

    def __init__(self, timing: bool) -> None:
        self.timing = timing
        self.name_ids: dict[str, int] = {}
        self.span_names: list[str] = []
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        # engine, from the trace= callback
        self.clock = 0
        self.activations = 0
        self.idle_activations = 0
        self.deliveries = 0
        self._in_activation = False
        self._activation_sends = 0
        self._send_class = "?"
        self.msgs: Counter = Counter()
        self.bits_max: dict[str, int] = defaultdict(int)
        # overlay, primitives and protocols
        self.route_hops: list[int] = []
        self.routed: Counter = Counter()
        self.parked_gets = 0
        self.flood_stamps: list[tuple[int, str, tuple, str]] = []
        self.root_stamps: list[tuple[int, str, tuple]] = []
        self.sort_passes: list[int] = []
        self.selections: list[tuple[object, bool]] = []
        self.batch_entries: list[int] = []

    # -- spans ---------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return nid

    def span(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped as the boundary ``name``.

        Timing pass: each call records a span.  Counting pass: each call
        counts, and ``before(args)`` runs ahead of it with its return value
        passed to ``after(args, token, result)``.
        """
        if not self.timing:
            return self._counter(name, fn, before, after)
        nid = self._name_id(name)
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack,
        )

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()

        return wrapper

    def _counter(self, name: str, fn, before=None, after=None):
        counts = self.counts
        if before is None and after is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, token, result)
                return result

        return wrapper

    def leaf(self, fn):
        """A message-size helper: counted in the counting pass, untouched when timing."""
        return fn if self.timing else self._counter("msgsize.leaf", fn)

    def run_span(self, name: str, call):
        """Run ``call()`` under a root span; returns (result, seconds)."""
        wrapped = self.span(name, call)
        t0 = perf_counter()
        result = wrapped()
        return result, perf_counter() - t0

    # -- patching ---------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.span(name, raw.__func__, before, after)))
        else:
            self._set(cls, attr, self.span(name, raw, before, after))

    def patch_function(self, fn, wrapper) -> None:
        """Rebind every ``distheap`` module global that refers to ``fn``."""
        hits = 0
        for modname, module in list(sys.modules.items()):
            if modname == "distheap" or modname.startswith("distheap."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapper)
                        hits += 1
        if hits == 0:
            raise RuntimeError(f"{fn.__qualname__} is bound in no distheap module")

    def restore(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        mod = {
            m: importlib.import_module(f"distheap.{m}")
            for m in (
                "sim", "overlay", "node", "batches", "skeap", "kselect",
                "skeap_plus", "consistency", "hashing", "experiments",
            )
        }
        sim_m, node_m, ks_m = mod["sim"], mod["node"], mod["kselect"]

        # engine
        Simulator = sim_m.Simulator
        for attr in ("step_round", "run_sync", "run_async"):
            self.patch_method(Simulator, attr, f"sim.{attr}")
        self.patch_method(Simulator, "send", "sim.send", before=self._before_send)

        # message sizes: one span per size_bits, counts for the leaf helpers
        for module in (node_m, ks_m):
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__module__ == module.__name__ \
                        and "size_bits" in cls.__dict__:
                    self.patch_method(cls, "size_bits", "msgsize.size_bits")
        if not self.timing:
            for fn in (sim_m.nat_bits, sim_m.interval_bits, node_m.value_bits):
                self.patch_function(fn, self.leaf(fn))
            for cls in (sim_m.Element, mod["batches"].Batch, mod["batches"].EntryShare):
                self._set(cls, "bits", self.leaf(cls.__dict__["bits"]))

        # overlay
        topo_cls = mod["overlay"].CycleTopology
        self.patch_method(topo_cls, "build", "overlay.build")
        self.patch_method(topo_cls, "responsible", "overlay.responsible")
        self.patch_method(topo_cls, "route_step", "overlay.route_step", after=self._after_route_step)

        # primitives
        node_cls = node_m.OverlayNode
        self.patch_method(node_cls, "on_message", "node.on_message",
                          before=self._parked_before_message, after=self._parked_after)
        self.patch_method(node_cls, "flood", "node.flood", before=self._before_flood)
        self.patch_method(node_cls, "wave_down", "node.wave_down", before=self._before_wave_down)
        self.patch_method(node_cls, "route_send", "node.route_send", before=self._before_route_send)
        self.patch_method(node_cls, "dht_get", "node.dht_get",
                          before=self._parked_before_get, after=self._parked_after)
        for attr in ("wave_contribute", "contribute_all", "dht_put"):
            self.patch_method(node_cls, attr, f"node.{attr}")

        # protocols: every public method a protocol class defines itself
        for layer, cls in (
            ("skeap", mod["skeap"].SkeapNode),
            ("kselect", ks_m.KSelectNode),
            ("seap", mod["skeap_plus"].SkeapPlusNode),
        ):
            for attr, value in list(vars(cls).items()):
                if attr != "on_activate" and not attr.startswith("_") and callable(value) \
                        and not isinstance(value, type):
                    before = after = None
                    if layer == "kselect" and attr == "wave_root":
                        before = self._before_wave_root
                    if layer == "kselect" and attr == "start_selection":
                        after = self._after_start_selection
                    self.patch_method(cls, attr, f"{layer}.{attr}", before, after)
        self.patch_function(
            mod["skeap_plus"].finalize_records,
            self.span("seap.finalize_records", mod["skeap_plus"].finalize_records),
        )

        # batches
        batches_m = mod["batches"]
        for attr in ("snapshot_batch", "anchor_assign", "decompose"):
            fn = getattr(batches_m, attr)
            self.patch_function(fn, self.span(f"batches.{attr}", fn))
        fn = batches_m.combine_all
        self.patch_function(fn, self.span("batches.combine_all", fn, after=self._after_combine))

        # checkers
        for fn in (mod["consistency"].make_verdict, mod["experiments"].check_phase_optimality):
            self.patch_function(fn, self.span(f"consistency.{fn.__name__}", fn))

        # hashing
        hashing_m = mod["hashing"]
        for fn in (hashing_m.mix64, hashing_m.hash_unit, hashing_m.hash_unit_pair):
            self.patch_function(fn, self.span(f"hashing.{fn.__name__}", fn))

    # -- hooks -------------------------------------------------------------------
    def _before_send(self, args):
        self._send_class = message_class(args[3])

    def __call__(self, event: dict) -> None:
        """The ``trace=`` callback: engine events and message sizes."""
        kind = event["kind"]
        self.clock = event["time"]
        if kind == "send":
            cls = self._send_class
            self.msgs[cls] += 1
            if event["bits"] > self.bits_max[cls]:
                self.bits_max[cls] = event["bits"]
            self._activation_sends += 1
            return
        if self._in_activation and self._activation_sends == 0:
            self.idle_activations += 1
        self._in_activation = kind == "activate"
        self._activation_sends = 0
        if kind == "activate":
            self.activations += 1
        elif kind == "deliver":
            self.deliveries += 1

    def finish_events(self) -> None:
        if self._in_activation and self._activation_sends == 0:
            self.idle_activations += 1
        self._in_activation = False

    def _after_route_step(self, args, token, result):
        if result is None:  # args: (topo, current, key, start_label, hop)
            self.route_hops.append(args[4])
            self.counts["walk"] += max(0, args[4] - args[0].debruijn_hops())

    def _before_route_send(self, args):
        self.routed[type(args[2]).__name__] += 1

    def _parked_before_message(self, args):
        payload = args[2]
        if type(payload).__name__ == "RouteMsg" and type(payload.inner).__name__ == "GetOp":
            return len(args[0].waiting_gets)
        return None

    def _parked_before_get(self, args):
        return len(args[0].waiting_gets)

    def _parked_after(self, args, token, result):
        if token is not None:
            self.parked_gets += len(args[0].waiting_gets) - token

    def _before_flood(self, args):
        node, kind, key, payload = args
        if kind in KSELECT_FLOODS:
            phase = KSELECT_FLOODS[kind]
            if kind == "k2" and payload[1] == "all":
                phase = "p3"
            self.flood_stamps.append((node.sim.time, kind, key, phase))

    def _before_wave_root(self, args):
        node, kind, key, _ = args
        self.root_stamps.append((node.sim.time, kind, key))

    def _before_wave_down(self, args):
        node, kind, key, vid, share = args
        if kind == "k2n" and vid == node.topo.root:
            self.sort_passes.append(share[1])

    def _after_start_selection(self, args, token, selection):
        self.selections.append((selection, type(args[0]).__name__ == "SkeapPlusNode"))

    def _after_combine(self, args, token, batch):
        self.batch_entries.append(len(batch.entries))

    # -- results -------------------------------------------------------------------
    def table(self) -> dict[str, tuple[int, float, float]]:
        open_spans = [s for s in self.stack if s >= 0]
        if open_spans:
            raise RuntimeError(f"{len(open_spans)} spans still open")
        return self_times(
            [self.span_names[i] for i in self.names], self.starts, self.ends, self.parents
        )

    def kselect_rounds(self) -> tuple[dict[str, int], list[dict]]:
        """Rounds per phase (summed over selections) and per anchor barrier.

        A phase runs from one anchor flood to the next flood of the same
        selection, the last one to the selection's end.  Initialisation (the
        ``ki`` count) is booked to phase 1.
        """
        phases = {"p1": 0, "p2": 0, "p3": 0}
        for sel, _ in self.selections:
            end = sel.start_round + sel.rounds
            stamps = [s for s in self.flood_stamps if s[2][0] == sel.inv
                      and sel.start_round <= s[0] <= end]
            for (t, _, _, phase), nxt in zip(stamps, stamps[1:] + [(end,)]):
                phases[phase] += nxt[0] - t
        roots = {(kind, key): t for t, kind, key in self.root_stamps}
        barriers = []
        for t, kind, key, phase in self.flood_stamps:
            done = roots.get((KSELECT_REPLY_WAVE[kind], key))
            barriers.append({"kind": kind, "key": list(key), "phase": phase, "flood": t,
                             "wave_root": done, "rounds": None if done is None else done - t})
        return phases, barriers

    def write_spans(self, path: Path) -> None:
        """Spans as gzip'ed TSV: id, parent, name, start and end in microseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        names = self.span_names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{names[self.names[i]]}\t"
                    f"{(self.starts[i] - t0) * 1e6:.1f}\t{(self.ends[i] - t0) * 1e6:.1f}\n"
                )

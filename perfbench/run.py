"""Outside-in benchmark of distheap.

    python3 perfbench/run.py --workload skeap-sync-n512 --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--seed`` is the async schedule seed (sync runs have no schedule, so it
changes nothing there); the protocol seed is fixed per workload and can be
overridden with ``--sim-seed``.

With ``--trace 0`` the run makes one reference run (with a clock-only
``trace=`` callback, untimed), then timed runs, each after a few timed
set-ups and between two timings of a fixed calibration loop, until
``--seconds`` have passed; it prints the end-to-end metrics.
``wall_per_calib`` is the median over timed runs of the run's wall time
divided by the mean of the two calibration timings around it: on a
shared host the speed drifts by up to 1.7x for minutes at a time, which
no choice among raw wall times survives, while the ratio cancels it.
The raw wall times are in the report.  With ``--trace 1`` it alternates
untraced and traced runs and prints the per-layer metrics.  Either way every run's output is
checked with the protocol's own checker and its determinism digest must
equal the first run's.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is a
report with the numbers the result line has no slot for; the same report,
and the traced run's spans, are written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import gc
import heapq
import importlib
import json
import resource
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import tracer as T
import workloads as W

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS_PER_RUN = 3
MIN_TIMED_RUNS = 3
CALIBRATION_STEPS = 120_000


class BenchmarkAbort(RuntimeError):
    pass


class _Cell:
    __slots__ = ("key", "count")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0

    def bump(self, by: int) -> int:
        self.count += by
        return self.count


def _calibration_work() -> int:
    """Fixed interpreter work of the simulator's kind: dicts, slotted objects, a heap."""
    cells: dict[int, _Cell] = {}
    heap: list = []
    acc = 0
    for i in range(CALIBRATION_STEPS):
        key = (i * 40503) & 0x3FF
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _Cell(key)
        heapq.heappush(heap, (cell.bump(i & 7), key, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[2]
    return acc + sum(sorted(c.count for c in cells.values())[-8:])


def calibrate() -> float:
    """Seconds for the fixed calibration work, with the collector off.

    The loop is the benchmark's own code, so a change to distheap cannot
    move it; it measures how fast the host runs at the moment.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        _calibration_work()
        return perf_counter() - t0
    finally:
        gc.enable()


def import_distheap():
    """Import ``distheap`` afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "distheap" or m.startswith("distheap.")]:
        del sys.modules[name]
    dh = importlib.import_module("distheap")
    if ROOT / "src" not in Path(dh.__file__).resolve().parents:
        raise BenchmarkAbort(f"imported distheap from {dh.__file__}, not from the checkout")
    return dh


def setup_once(wl, times: list[float]):
    """Time a fresh ``import distheap`` plus overlay, simulator and nodes; returns the package."""
    gc.collect()
    t0 = perf_counter()
    dh = import_distheap()
    W.build(dh, wl)
    times.append(perf_counter() - t0)
    return dh


class Runs:
    """Checks each run's output and its digest against the first run's."""

    def __init__(self, wl):
        self.wl = wl
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, result, label: str, clock: int | None = None) -> None:
        wl = self.wl
        self.attempted += 1
        self.failed += W.failed(wl, result)
        digest = W.digest(wl, result)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise BenchmarkAbort(f"{label} run digest {digest} != first run's {self.digest}")
        if clock is not None:
            self.problems += [f"{label}: {p}" for p in W.cross_checks(wl, result, clock)]


def run_untraced(wl, runs: Runs, seconds: float, schedule_seed: int) -> dict:
    """Set-up repetitions interleaved with timed runs, after one reference run.

    Interleaving spreads the set-up samples over the same stretch of host
    time as the runs, so a slow minute does not skew one of them alone.
    Each timed run lies between two calibration timings; its ratio to
    their mean is the run's host-speed-free cost.
    """
    setups: list[float] = []
    dh = setup_once(wl, setups)
    ref_clock = W.ClockTrace()
    ref = W.run(dh, wl, schedule_seed, trace=ref_clock)
    runs.check(ref, "reference", ref_clock.last)

    walls, calibs, ratios = [], [], []
    deadline = perf_counter() + seconds
    while len(walls) < MIN_TIMED_RUNS or perf_counter() < deadline:
        for _ in range(SETUP_REPS_PER_RUN):
            dh = setup_once(wl, setups)
        gc.collect()
        before = calibrate()
        t0 = perf_counter()
        result = W.run(dh, wl, schedule_seed)
        wall = perf_counter() - t0
        after = calibrate()
        walls.append(wall)
        calibs += [before, after]
        ratios.append(wall_per_calib(wall, before, after))
        runs.check(result, "timed")
    return {"walls": walls, "calibs": calibs, "ratios": ratios, "setups": setups,
            "sim": W.simulated(wl, ref, ref_clock.last)}


def wall_per_calib(wall: float, before: float, after: float) -> float:
    """A run's wall time in units of the calibration timings taken around it."""
    if min(wall, before, after) <= 0:
        raise ValueError(f"times must be positive: {wall}, {before}, {after}")
    return 2 * wall / (before + after)


def traced_pass(wl, dh, schedule_seed: int, timing: bool):
    """One run with the tracer installed; returns (tracer, result, seconds)."""
    tracer = T.Tracer(timing)
    tracer.install()
    try:
        result, wall = tracer.run_span(
            "experiments.run",
            lambda: W.run(dh, wl, schedule_seed, trace=None if timing else tracer),
        )
    finally:
        tracer.restore()
    return tracer, result, wall


def run_traced(wl, dh, runs: Runs, seconds: float, schedule_seed: int) -> dict:
    counter, result, _ = traced_pass(wl, dh, schedule_seed, timing=False)
    counter.finish_events()
    runs.check(result, "counting pass", counter.clock)

    walls, traced_walls, calibs, layers = [], [], [], []
    deadline = perf_counter() + seconds
    while not traced_walls or perf_counter() < deadline:
        calibs.append(calibrate())
        gc.collect()
        t0 = perf_counter()
        untraced = W.run(dh, wl, schedule_seed)
        walls.append(perf_counter() - t0)
        runs.check(untraced, "untraced")
        timer, timed_result, traced_wall = traced_pass(wl, dh, schedule_seed, timing=True)
        runs.check(timed_result, "timing pass")
        traced_walls.append(traced_wall)
        table = timer.table()
        layers.append(per_layer(wl, dh, table, counter, result))

    metrics = {name: (statistics.median(l[name][0] for l in layers), layers[0][name][1])
               for name in layers[0]}
    metrics["trace.overhead_s"] = (min(traced_walls) - min(walls), "s")
    metrics["host.calib_s"] = (statistics.median(calibs), "s")
    _, barriers = counter.kselect_rounds()
    spans_path = OUT_DIR / f"spans-{wl.name}.tsv.gz"
    timer.write_spans(spans_path)
    return {
        "metrics": metrics,
        "walls": walls,
        "traced_walls": traced_walls,
        "sim_rounds": W.simulated(wl, result, counter.clock)["sim_rounds"],
        "route_hops_top": sorted(counter.route_hops)[-5:],
        "spans": len(timer.starts),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_table": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in table.items()},
        "kselect_barriers": barriers,
    }


def per_layer(wl, dh, table, counter, result) -> dict:
    """Per-layer metrics as name -> (value, unit).

    Times come from the timing pass's span ``table``, counts from the
    counting pass ``counter``.
    """
    selfs = T.layer_self(table)
    counts = counter.counts

    def total(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[1]

    phases, _ = counter.kselect_rounds()
    selections = counter.selections
    seap = wl.protocol == "seap"
    gets = counts["node.dht_get"]
    out = {
        "sim.activations": (counter.activations, "count"),
        "sim.activations_idle_share": (counter.idle_activations / max(1, counter.activations), "share"),
        "sim.deliveries": (counter.deliveries, "count"),
        "sim.self_s": (selfs.get("sim", 0.0), "s"),
        "msgsize.calls": (counts["msgsize.size_bits"] + counts["msgsize.leaf"], "count"),
        "msgsize.self_s": (selfs.get("msgsize", 0.0), "s"),
        "overlay.tree_height": (dh.CycleTopology.build(wl.n, wl.sim_seed).height(), "hops"),
        "overlay.route_hops_p50": (statistics.median(counter.route_hops or [0]), "hops"),
        "overlay.route_hops_max": (max(counter.route_hops, default=0), "hops"),
        "overlay.route_walk_hops": (counts["walk"], "hops"),
        "overlay.responsible_calls": (counts["overlay.responsible"], "count"),
        "overlay.self_s": (selfs.get("overlay", 0.0), "s"),
        "node.floods": (counts["node.flood"], "count"),
        "node.routes": (counts["node.route_send"], "count"),
        "node.dht_puts": (counts["node.dht_put"], "count"),
        "node.dht_gets": (gets, "count"),
        "node.gets_parked_share": (counter.parked_gets / max(1, gets), "share"),
    }
    known = set(T.MESSAGE_CLASSES)
    for cls in T.MESSAGE_CLASSES:
        out[f"node.msgs.{cls}"] = (counter.msgs[cls], "count")
        out[f"node.bits.{cls}"] = (counter.bits_max.get(cls, 0), "bits")
    out["node.msgs.other"] = (sum(v for k, v in counter.msgs.items() if k not in known), "count")
    out["node.self_s"] = (selfs.get("node", 0.0), "s")
    out.update({
        "batches.combine_s": (total("batches.combine_all"), "s"),
        "batches.decompose_s": (total("batches.decompose"), "s"),
        "batches.anchor_assign_s": (total("batches.anchor_assign"), "s"),
        "skeap.batch_entries_mean": (
            statistics.fmean(counter.batch_entries) if counter.batch_entries else 0.0, "count"),
        "skeap.self_s": (selfs.get("skeap", 0.0), "s"),
        "kselect.barriers": (len(counter.flood_stamps), "count"),
        "kselect.p1_rounds": (phases["p1"], "rounds"),
        "kselect.p2_rounds": (phases["p2"], "rounds"),
        "kselect.p3_rounds": (phases["p3"], "rounds"),
        "kselect.p2_iterations": (sum(s.p2_iter for s, _ in selections), "count"),
        "kselect.retries": (sum(s.retries for s, _ in selections), "count"),
        "kselect.sort_passes": (len(counter.sort_passes), "count"),
        "kselect.sort_candidates_max": (max(counter.sort_passes, default=0), "count"),
        "kselect.compares": (counter.routed["CompareOp"] // 2, "count"),
        "kselect.self_s": (selfs.get("kselect", 0.0), "s"),
        "seap.selections": (sum(1 for _, by_seap in selections if by_seap), "count"),
        "seap.k_star_total": (sum(r["k_star"] for r in result.extra["epochs"]) if seap else 0, "count"),
        "seap.bottoms": (
            sum(1 for r in result.records if r.returned == dh.BOTTOM) if seap else 0, "count"),
        "seap.finalize_s": (total("seap.finalize_records"), "s"),
        "seap.self_s": (selfs.get("seap", 0.0), "s"),
        "consistency.verdict_s": (
            total("consistency.make_verdict") + total("consistency.check_phase_optimality"), "s"),
        "hashing.calls": (
            counts["hashing.mix64"] + counts["hashing.hash_unit"] + counts["hashing.hash_unit_pair"],
            "count"),
        "hashing.self_s": (selfs.get("hashing", 0.0), "s"),
        "experiments.self_s": (selfs.get("experiments", 0.0), "s"),
    })
    return out


def check_declared(metrics: dict, kind: str) -> None:
    """The metrics must be exactly those BENCHMARK.json declares, with its units."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        diff = sorted(set(want.items()) ^ set(got.items()))
        raise BenchmarkAbort(f"{kind} metrics differ from BENCHMARK.json: {diff}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="async schedule seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sim-seed", type=int, default=None,
                        help="protocol seed (default: the workload's)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "distheap" / "__init__.py").is_file():
        print(f"error: no distheap sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    wl = W.WORKLOADS[args.workload]
    if args.sim_seed is not None:
        wl = replace(wl, sim_seed=args.sim_seed)
    runs = Runs(wl)
    report = {"workload": wl.name, "sim_seed": wl.sim_seed, "schedule_seed": args.seed,
              "trace": args.trace}
    try:
        if args.trace:
            dh = import_distheap()
            traced = run_traced(wl, dh, runs, args.seconds, args.seed)
            metrics = traced.pop("metrics")
            report.update(traced)
        else:
            measured = run_untraced(wl, runs, args.seconds, args.seed)
            sim = measured["sim"]
            wall_median = statistics.median(measured["walls"])
            metrics = {
                "wall_per_calib": (statistics.median(measured["ratios"]), "ratio"),
                "setup_s": (statistics.median(measured["setups"]), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "sim_rounds": (sim["sim_rounds"], "rounds"),
                "messages": (sim["messages"], "count"),
                "max_message_bits": (sim["max_message_bits"], "bits"),
            }
            report.update({
                "setup_times": measured["setups"],
                "walls": measured["walls"],
                "wall_min_s": min(measured["walls"]),
                "wall_median_s": wall_median,
                "msgs_per_s": sim["messages_delivered"] / wall_median,
                "calib_s": statistics.median(measured["calibs"]),
                "calibs": measured["calibs"],
                "wall_per_calib_runs": measured["ratios"],
                "max_congestion": sim["max_congestion"] if sim["max_congestion"] is not None
                else "not applicable (async)",
                "requests_per_round": sim["requests_per_round"]
                if sim["requests_per_round"] is not None else "not applicable (no heap requests)",
                "requests_completed": sim["requests_completed"],
            })
        check_declared(metrics, "per_layer" if args.trace else "end_to_end")
    except BenchmarkAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    report.update({
        "digest": runs.digest,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "error_rate": W.error_rate(runs.failed, runs.attempted),
        "problems": runs.problems,
    })
    OUT_DIR.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "e2e"
    (OUT_DIR / f"report-{wl.name}-{kind}-seed{args.seed}.json").write_text(
        json.dumps(report, indent=1, default=repr) + "\n"
    )
    brief = {k: v for k, v in report.items() if k not in ("span_table", "kselect_barriers")}
    print(json.dumps({"report": brief}, default=repr))
    print(json.dumps({
        "correct": not runs.problems,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The ``distheap`` command: run one protocol and print a JSON summary.

    distheap run --protocol skeap --n 64 --seed 1 [--mode async --schedule-seed 3]

It prints one JSON object: the configuration, the ``run_metrics`` totals
(without the per-round rows; ``rounds`` counts synchronous rounds, so it
is 0 in async mode), the ``clock`` (the simulator's clock after the run:
the round count in sync mode, the time of the last event in async mode)
and the outcome.  For Skeap and Seap that is
the checkers' verdict and ``ok``, and for Seap also ``phase_optimal`` and
``phase_violation``; for KSelect, which selects the k-th of m = n²
elements with k = n, it is ``correct`` and ``error``.
"""
from __future__ import annotations

import argparse
import json

from .experiments import run_kselect, run_skeap, run_skeap_plus
from .sim import ASYNC, SYNC

MODES = {"sync": SYNC, "async": ASYNC}
TOTALS = ("rounds", "max_congestion", "max_message_bits", "messages_sent", "messages_delivered")


def run(protocol: str, n: int, seed: int, mode: str, schedule_seed: int) -> dict:
    config = {"protocol": protocol, "n": n, "seed": seed, "mode": mode,
              "schedule_seed": schedule_seed}
    if protocol == "kselect":
        config.update(m=n * n, k=n)
        res = run_kselect(
            n, m=n * n, k=n, seed=seed, mode=MODES[mode], schedule_seed=schedule_seed
        )
        outcome = {"correct": res.correct, "error": res.error}
    else:
        runner = run_skeap if protocol == "skeap" else run_skeap_plus
        res = runner(n, seed=seed, mode=MODES[mode], schedule_seed=schedule_seed)
        outcome = {"ok": res.ok, "verdict": res.verdict.to_json()}
        if protocol == "seap":
            outcome.update((k, res.extra[k]) for k in ("phase_optimal", "phase_violation"))
    totals = {k: res.metrics[k] for k in TOTALS}
    return {"config": config, "totals": totals, "clock": res.final_time, **outcome}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="distheap")
    commands = parser.add_subparsers(dest="command", required=True)
    run_cmd = commands.add_parser("run", help="run one protocol and print a JSON summary")
    run_cmd.add_argument("--protocol", choices=("skeap", "seap", "kselect"), required=True)
    run_cmd.add_argument("--n", type=int, required=True)
    run_cmd.add_argument("--seed", type=int, required=True)
    run_cmd.add_argument("--mode", choices=tuple(MODES), default="sync")
    run_cmd.add_argument("--schedule-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error("--n must be at least 2")
    print(json.dumps(run(args.protocol, args.n, args.seed, args.mode, args.schedule_seed)))


if __name__ == "__main__":
    main()

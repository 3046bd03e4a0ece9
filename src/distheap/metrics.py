"""Run metrics assembly."""
from __future__ import annotations

from .sim import Simulator


def run_metrics(sim: Simulator, extra: dict | None = None) -> dict:
    rounds = sim.round_metrics
    out = {
        "rounds": len(rounds),
        "max_congestion": max((r.max_congestion for r in rounds), default=0),
        "max_message_bits": sim.max_message_bits,
        "messages_sent": sim.sent,
        "messages_delivered": sim.delivered,
        "per_round": [
            {
                "round": r.round,
                "delivered": r.delivered,
                "max_congestion": r.max_congestion,
                "max_message_bits": r.max_message_bits,
            }
            for r in rounds
        ],
    }
    if extra:
        out.update(extra)
    return out


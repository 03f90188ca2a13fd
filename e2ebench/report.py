"""Metric definitions: units, the percentile rule, and the per-layer
metrics folded from a traced round.

Names and units live in ``BENCHMARK.json`` at the repository root;
:data:`LAYER_MAP` says, for each per-layer metric, which end-to-end
metric it should move and on which workload (written down before any
optimisation, so a claimed gain can be checked against it).
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: metric -> (end-to-end metrics it should move,
#:            workloads where it should, workloads where it barely can)
LAYER_MAP: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...],
                           Tuple[str, ...]]] = {}


def _layer(names: str, moves: str, on: str, little: str) -> None:
    for name in names.split():
        LAYER_MAP[name] = (tuple(moves.split()), tuple(on.split()),
                           tuple(little.split()))


_layer("core.step_s core.local_steps",
       "wall_s sim_msgs_per_s", "large-n", "pipeline")
_layer("sim.engine.self_s sim.engine.global_steps "
       "sim.engine.executed_steps sim.engine.leap_ratio "
       "sim.engine.steplimit_runs sim.engine.steplimit_share",
       "wall_s", "campaign large-n", "pipeline")
_layer("sim.metrics.s sim.metrics.records sim.network.s "
       "sim.network.deliveries sim.monitor.s sim.monitor.checks",
       "sim_msgs_per_s", "large-n campaign", "pipeline")
_layer("adversary.s adversary.calls", "wall_s", "large-n campaign",
       "pipeline")
_layer("sim.batch.s sim.batch.trials sim.batch.chunks "
       "sim.batch.fallback_frac",
       "specs_per_s peak_rss_mb", "campaign", "pipeline large-n")
_layer("sim.topology.build_s consensus.s consensus.runs",
       "wall_s", "campaign", "large-n")
_layer("spec.build_s spec.codec_s spec.exec_ms_p50 spec.exec_ms_pmax "
       "spec.exec_ms_pmax_pct spec.exec_samples",
       "specs_per_s", "pipeline", "large-n")
_layer("experiments.pool.startup_s experiments.pool.busy_s "
       "experiments.pool.overhead_s experiments.pool.jobs "
       "experiments.pool.retries",
       "specs_per_s", "pipeline", "large-n campaign")
_layer("store.open_s store.put_s store.puts store.bytes_written "
       "store.lookup_s store.hit_ratio store.quarantined",
       "specs_per_s wall_s", "pipeline", "large-n")
_layer("store.query.select_s store.query.rows", "wall_s", "pipeline",
       "large-n")
_layer("trace.overhead_ratio", "", "pipeline large-n campaign", "")

#: Percentiles tried for the tail figure, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def load_definitions() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """``(p, value)``: the highest of :data:`PERCENTILES` with at least
    ten samples above its nearest-rank value; the median when there are
    too few samples for any tail."""
    ordered = sorted(samples)
    count = len(ordered)

    def rank(p: float) -> int:  # nearest rank, 1-based
        return max(1, math.ceil(round(p * count / 100.0, 9)))

    best = PERCENTILES[0]
    for p in PERCENTILES:
        if count - rank(p) >= 10:
            best = p
    return best, ordered[rank(best) - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Any, store: Dict[str, float],
                  overhead_ratio: float) -> Dict[str, float]:
    """Per-layer figures of one traced round.

    ``store`` carries what the benchmark measured around the store
    itself: ``bytes_written`` and ``quarantined``.
    """
    own, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    busy = tracer.total.get("experiments.pool.job", 0.0)
    global_steps = counts.get("sim.engine.global_steps", 0)
    trials = counts.get("sim.batch.trials", 0)
    fallbacks = counts.get("sim.batch.fallbacks", 0)
    samples = tracer.exec_ms or [0.0]
    tail_p, tail_value = tail_percentile(samples)
    return {
        "core.step_s": own.get("core.step", 0.0),
        "core.local_steps": calls.get("core.step", 0),
        "consensus.s": own.get("consensus.step", 0.0),
        "consensus.runs": counts.get("consensus.runs", 0),
        "sim.engine.self_s": own.get("sim.engine", 0.0),
        "sim.engine.global_steps": global_steps,
        "sim.engine.executed_steps":
            counts.get("sim.engine.executed_steps", 0),
        "sim.engine.leap_ratio": _ratio(
            global_steps - counts.get("sim.engine.executed_steps", 0),
            global_steps),
        "sim.engine.steplimit_runs":
            counts.get("sim.engine.steplimit_runs", 0),
        "sim.engine.steplimit_share": _ratio(
            counts.get("sim.engine.steplimit_s", 0.0), busy),
        "sim.metrics.s": own.get("sim.metrics", 0.0),
        "sim.metrics.records": calls.get("sim.metrics", 0),
        "sim.network.s": own.get("sim.network", 0.0),
        "sim.network.deliveries": counts.get("sim.network.deliveries", 0),
        "sim.monitor.s": own.get("sim.monitor", 0.0),
        "sim.monitor.checks": calls.get("sim.monitor", 0),
        "adversary.s": own.get("adversary", 0.0),
        "adversary.calls": calls.get("adversary", 0),
        "sim.batch.s": own.get("sim.batch", 0.0),
        "sim.batch.trials": trials,
        "sim.batch.chunks": counts.get("sim.batch.chunks", 0),
        "sim.batch.fallback_frac": _ratio(fallbacks, trials + fallbacks),
        "sim.topology.build_s": own.get("sim.topology.build", 0.0),
        "spec.build_s": own.get("spec.build", 0.0),
        "spec.codec_s": own.get("spec.codec", 0.0),
        "spec.exec_ms_p50": median(samples),
        "spec.exec_ms_pmax": tail_value,
        "spec.exec_ms_pmax_pct": tail_p,
        "spec.exec_samples": len(tracer.exec_ms),
        "experiments.pool.startup_s":
            counts.get("experiments.pool.startup_s", 0.0),
        "experiments.pool.busy_s": busy,
        "experiments.pool.overhead_s":
            counts.get("experiments.pool.capacity_s", 0.0)
            - counts.get("experiments.pool.parallel_busy_s", 0.0),
        "experiments.pool.jobs": counts.get("experiments.pool.jobs", 0),
        "experiments.pool.retries":
            counts.get("experiments.pool.retries", 0),
        "store.open_s": own.get("store.open", 0.0),
        "store.put_s": own.get("store.put", 0.0),
        "store.puts": counts.get("store.puts", 0),
        "store.bytes_written": store["bytes_written"],
        "store.lookup_s": own.get("store.lookup", 0.0),
        "store.hit_ratio": _ratio(counts.get("store.hits", 0),
                                  counts.get("store.lookups", 0)),
        "store.quarantined": store["quarantined"],
        "store.query.select_s": own.get("store.query.select", 0.0),
        "store.query.rows": counts.get("store.query.rows", 0),
        "trace.overhead_ratio": overhead_ratio,
    }


def with_units(values: Dict[str, float],
               definitions: List[Dict[str, Any]]) -> Dict[str, Any]:
    """``{name: {"value", "unit"}}`` for exactly the defined metrics."""
    return {
        d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
        for d in definitions
    }

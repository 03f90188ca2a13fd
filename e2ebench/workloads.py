"""Seeded spec generators for the three benchmark workloads.

Every input a run uses is a pure function of ``(workload, seed)``: the
spec list, and for ``pipeline`` the synthetic records that pre-fill the
store.  The program under test only ever sees the generated specs.

Cells share the paper's regime ``d=2, delta=4``.  The crash condition is
``crashes = f = n // 8`` random early victims.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from typing import Any, Dict, List

from repro.spec.runspec import RunSpec
from repro.store.base import make_record

__all__ = [
    "GNP",
    "STRATA_PATH",
    "WORKLOADS",
    "campaign_specs",
    "composition",
    "condition_of",
    "gnp_strata",
    "gossip_spec",
    "large_n_specs",
    "pipeline_specs",
    "prefill_records",
]

D, DELTA = 2, 4

#: The G(n,p) block of the campaign: n=32 at the default p = 2 ln(n)/n.
#: ``gnp_strata.json`` classifies its seeds (see ``make_gnp_strata.py``).
GNP = {"n": 32, "seeds": 128, "per_cell": 4}

STRATA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "gnp_strata.json")


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def _seeds(rng: random.Random, count: int) -> List[int]:
    return rng.sample(range(1, 1 << 30), count)


def condition_of(spec: RunSpec) -> str:
    """``calm``, ``crash`` (random early victims) or a named plan."""
    if spec.crashes is None:
        return "calm"
    if isinstance(spec.crashes, dict):
        return spec.crashes.get("name", "explicit")
    return "crash"


def gossip_spec(algorithm: str, n: int, seed: int, condition: str,
                **extra: Any) -> RunSpec:
    crash = {"crashes": n // 8, "f": n // 8} if condition == "crash" else {}
    return RunSpec(algorithm=algorithm, n=n, d=D, delta=DELTA, seed=seed,
                   **crash, **extra)


# -- pipeline ---------------------------------------------------------------#

PIPELINE_ALGORITHMS = ("ears", "sears", "tears", "push-pull", "trivial")
PIPELINE_NS = (16, 20, 24)
PIPELINE_SEEDS = 32
PREFILL_RECORDS = 20_000


def pipeline_specs(seed: int) -> List[RunSpec]:
    """960 tiny complete-graph specs: 5 algorithms x n in {16,20,24} x
    calm/crash x 32 seeds."""
    rng = _rng("pipeline", seed, "specs")
    return [
        gossip_spec(algorithm, n, spec_seed, condition)
        for algorithm in PIPELINE_ALGORITHMS
        for n in PIPELINE_NS
        for condition in ("calm", "crash")
        for spec_seed in _seeds(rng, PIPELINE_SEEDS)
    ]


def prefill_records(seed: int, count: int = PREFILL_RECORDS
                    ) -> List[Dict[str, Any]]:
    """Synthetic records standing in for earlier campaigns.

    Same cells as :func:`pipeline_specs` over a disjoint seed range
    (spec seeds >= 2**30), with metrics drawn from the workload rng, so
    the store holds realistic record shapes the queries must wade
    through.  Stamped with :func:`make_record`, so CRCs verify.
    """
    rng = _rng("pipeline", seed, "prefill")
    cells = [
        (algorithm, n, condition)
        for algorithm in PIPELINE_ALGORITHMS
        for n in PIPELINE_NS
        for condition in ("calm", "crash")
    ]
    records = []
    for spec_seed in rng.sample(range(1 << 30, 1 << 31), count):
        algorithm, n, condition = rng.choice(cells)
        spec = gossip_spec(algorithm, n, spec_seed, condition)
        completed = rng.random() > 0.02
        time = rng.randint(10, 400)
        records.append(make_record(spec, {
            "completed": completed,
            "reason": "completed" if completed else "step-limit",
            "time": time if completed else None,
            "gathering_time": time if completed else None,
            "messages": rng.randint(100, 4000),
            "bits": 0,
            "realized_d": D,
            "realized_delta": DELTA,
            "crashes": n // 8 if condition == "crash" else 0,
        }))
    return records


# -- large-n ----------------------------------------------------------------#

def large_n_specs(seed: int) -> List[RunSpec]:
    """Five big scalar specs: four calm cells and a crash wave that the
    auto engine mostly leaps over."""
    s = _seeds(_rng("large-n", seed, "specs"), 5)
    return [
        gossip_spec("ears", 512, s[0], "calm"),
        gossip_spec("sears", 256, s[1], "calm"),
        gossip_spec("tears", 256, s[2], "calm"),
        gossip_spec("push-pull", 128, s[3], "calm"),
        RunSpec(algorithm="ears", n=512, f=510, d=D, delta=256, seed=s[4],
                crashes={"name": "wave", "count": 510, "at": 1}),
    ]


# -- campaign ---------------------------------------------------------------#

def gnp_strata() -> Dict[str, Any]:
    with open(STRATA_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _gnp_seeds(rng: random.Random, cell: str,
               strata: Dict[str, Any]) -> List[int]:
    """Seeds drawn per outcome stratum, in proportion to its size.

    One EARS G(n,p) run in four or five runs to the step limit, at ~2 s
    each, against ~10 ms for a completing run.  Drawing a fixed number
    of seeds from each outcome (rounded from its share of the table)
    keeps the campaign's cost from swinging with the workload seed,
    while the seeds still come from it.
    """
    outcomes = strata["cells"][cell]
    total, per_cell = GNP["seeds"], GNP["per_cell"]
    picked: List[int] = []
    for reason in sorted(outcomes):
        share = round(per_cell * len(outcomes[reason]) / total)
        picked += rng.sample(outcomes[reason], share)
    excluded = {s for seeds in outcomes.values() for s in seeds}
    completing = [s for s in range(total) if s not in excluded]
    return picked + rng.sample(completing, per_cell - len(picked))


def campaign_specs(seed: int) -> List[RunSpec]:
    """The reference campaign: batch-engine groups, complete-graph
    scalar cells, G(n,p) cells and crash-fault consensus.

    Sized at about 10 s a round so a run takes the median of two or
    three: host speed on a shared 2-core machine drifts by tens of
    percent over minutes, and a single long round showed it in full.
    """
    rng = _rng("campaign", seed, "specs")
    strata = gnp_strata()
    specs = []
    for algorithm in ("ears", "sears"):
        for condition in ("calm", "crash"):
            specs += [
                gossip_spec(algorithm, 128, s, condition, engine="batch")
                for s in _seeds(rng, 16)
            ]
    for algorithm in ("tears", "push-pull"):
        for condition in ("calm", "crash"):
            specs += [gossip_spec(algorithm, 48, s, condition)
                      for s in _seeds(rng, 4)]
    for algorithm in ("ears", "sears", "tears", "ps-push-pull"):
        for condition in ("calm", "crash"):
            cell = f"{algorithm}/{condition}"
            specs += [
                gossip_spec(algorithm, GNP["n"], s, condition,
                            topology="gnp", engine="batch")
                for s in _gnp_seeds(rng, cell, strata)
            ]
    for algorithm in ("ears", "sears", "tears", "ben-or"):
        specs += [
            RunSpec(kind="consensus", algorithm=algorithm, n=32, d=D,
                    delta=DELTA, seed=s)
            for s in _seeds(rng, 2)
        ]
    return specs


WORKLOADS = {
    "pipeline": pipeline_specs,
    "large-n": large_n_specs,
    "campaign": campaign_specs,
}


def composition(specs: List[RunSpec]) -> Dict[str, Dict[str, int]]:
    """Spec counts per algorithm, topology, engine and condition."""
    def count(key) -> Dict[str, int]:
        return dict(sorted(Counter(key(spec) for spec in specs).items()))

    return {
        "algorithm": count(lambda s: f"{s.kind}:{s.algorithm}"),
        "topology": count(lambda s: (s.topology or {}).get("name",
                                                           "complete")),
        "engine": count(lambda s: s.engine),
        "condition": count(condition_of),
        "n": count(lambda s: str(s.n)),
    }

"""Output checks run on every benchmark run.

A run is correct only if every check here passes: each spec has one
record with its hash and no failure, the store verifies clean, queries
return exactly what an independent filter over the known records
returns, a sample of scalar records re-runs bit-identically under
``engine="stepwise"``, and a sample of vectorized records equals a
batch of one.  :func:`digest` fingerprints every simulated field, so
repeats and traced runs can be compared.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sim.batch import batch_eligible
from repro.spec.builder import execute
from repro.spec.runspec import RunSpec
from repro.spec.vectorized import run_batch_specs
from repro.store.base import metrics_of

#: Scalar records cheap enough to re-run stepwise: at most this many
#: simulated steps and processes, and not run to the step limit.
STEPWISE_MAX_TIME = 10_000
STEPWISE_MAX_N = 256


def digest(records: Sequence[Dict[str, Any]]) -> str:
    """SHA-256 over every record's hash and realized metrics."""
    body = sorted((r["spec_hash"], r["metrics"]) for r in records)
    text = json.dumps(body, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _plain(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """The metrics as a store hands them back (a JSON round-trip)."""
    return json.loads(json.dumps(metrics, default=str))


def check_records(specs: Sequence[RunSpec],
                  records: Sequence[Dict[str, Any]]) -> List[str]:
    problems = []
    if len(records) != len(specs):
        problems.append(f"{len(records)} records for {len(specs)} specs")
    for spec, record in zip(specs, records):
        if record.get("spec_hash") != spec.spec_hash:
            problems.append(f"record out of order for {spec.spec_hash}")
        elif record.get("failed"):
            problems.append(f"{spec.spec_hash} failed: "
                            f"{record['metrics'].get('error')}")
        elif spec.kind == "consensus" and not (
                record["metrics"]["agreement"]
                and record["metrics"]["validity"]):
            problems.append(f"{spec.spec_hash} broke agreement/validity")
    return problems


def check_store(store: Any) -> List[str]:
    report = store.verify()
    problems = [f"store.verify: {c}" for c in report["corrupt"]]
    if store.quarantined_entries():
        problems.append("store quarantined entries")
    return problems


def check_query(name: str, got: Sequence[Dict[str, Any]],
                pool: Sequence[Dict[str, Any]],
                predicate: Callable[[Dict[str, Any], Dict[str, Any]], bool],
                limit: Optional[int] = None) -> List[str]:
    """Compare a ``select`` result with a filter over ``pool``."""
    want = sorted(
        (r for r in pool if predicate(r["spec"], r["metrics"])),
        key=lambda r: r["spec_hash"],
    )[:limit]
    if [r["spec_hash"] for r in got] != [r["spec_hash"] for r in want]:
        return [f"query {name}: {len(got)} rows, expected {len(want)}"]
    if list(got) != want:
        return [f"query {name}: row contents differ"]
    return []


def check_samples(records: Sequence[Dict[str, Any]], seed: int,
                  count: int = 2) -> List[str]:
    """Re-run a seeded sample of records and require identical metrics.

    ``count`` scalar records re-run with ``engine="stepwise"`` (stepwise
    == auto), and ``count`` vectorized records re-run as a batch of one
    (composition invariance).
    """
    rng = random.Random(f"samples/{seed}")
    order = list(records)
    rng.shuffle(order)
    vectorized = [r for r in order if _spec(r).engine == "batch"
                  and batch_eligible(_spec(r))]
    scalar = [
        r for r in order
        if not (_spec(r).engine == "batch" and batch_eligible(_spec(r)))
        and r["metrics"]["reason"] != "step-limit"
        and (r["metrics"]["time"] or 0) <= STEPWISE_MAX_TIME
        and _spec(r).n <= STEPWISE_MAX_N
    ]
    problems: List[str] = []
    for record in vectorized[:count]:
        got = metrics_of(run_batch_specs([_spec(record)])[0])
        if _plain(got) != record["metrics"]:
            problems.append(f"{record['spec_hash']}: batch of one differs")
    for record in scalar[:count]:
        spec = _spec(record).replace(engine="stepwise")
        if _plain(metrics_of(execute(spec))) != record["metrics"]:
            problems.append(f"{record['spec_hash']}: stepwise differs")
    return problems


def _spec(record: Dict[str, Any]) -> RunSpec:
    return RunSpec.from_dict(record["spec"])

"""Cached and batched spec execution against an artifact store.

The execution layer of the store package: every entry point takes any
:class:`~repro.store.base.Store` backend and treats a stored spec hash
as a cache hit that runs no simulation.  Batches execute through the
one campaign job loop,
:func:`~repro.experiments.campaign.run_checkpointed_jobs`.  ``execute``,
the job functions ``_spec_job`` and ``_batch_job``, and ``metrics_of``
are looked up at call time, so tests and tracers can monkeypatch them
on this module.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..spec.builder import execute
from ..spec.runspec import RunSpec
from .base import Store, make_record, metrics_of

__all__ = [
    "execute_batch",
    "execute_cached",
    "failed_record",
]

#: Default number of seeds one vectorized engine tick advances together.
DEFAULT_BATCH_SIZE = 64


def execute_cached(
    spec: RunSpec, store: Store
) -> Tuple[Dict[str, Any], bool]:
    """Run ``spec`` unless ``store`` already holds its hash.

    Returns ``(record, cache_hit)``; on a cache hit no simulation runs.
    Overrides are deliberately not accepted here: cached records must be
    pure functions of the spec, or the hash would lie about provenance.
    """
    record = store.get(spec.spec_hash)
    if record is not None:
        return record, True
    outcome = execute(spec)
    return store.put(spec, metrics_of(outcome)), False


def _spec_job(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one serialized spec in a (possibly worker) process."""
    return metrics_of(execute(RunSpec.from_dict(spec_dict)))


def failed_record(spec: RunSpec, outcome: Any) -> Dict[str, Any]:
    """A record-shaped stand-in for a spec whose execution failed.

    Same layout as :func:`~repro.store.base.make_record` plus
    ``"failed": True`` and a ``metrics`` block that downstream readers
    treat as a not-completed run (``completed``/``reason``/``error``/
    ``attempts``). Never written to a store, so a resumed batch retries
    exactly these specs.
    """
    from ..experiments.pool import TIMED_OUT

    reason = (
        "trial-timeout" if outcome.status == TIMED_OUT else "trial-failed"
    )
    record = make_record(spec, {
        "completed": False,
        "reason": reason,
        "error": outcome.error,
        "attempts": outcome.attempts,
    })
    record["failed"] = True
    return record


def _batch_job(spec_dicts: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Execute one group chunk (same cell, different seeds) vectorized."""
    from ..spec.vectorized import run_batch_specs

    specs = [RunSpec.from_dict(d) for d in spec_dicts]
    return [metrics_of(run) for run in run_batch_specs(specs)]


def _run_job(job: Any) -> Any:
    """One :func:`execute_batch` job: a vectorized chunk (a list of spec
    dicts) or a single spec dict.  The two job functions are looked up
    at call time, so tests and tracers can swap them."""
    if isinstance(job, list):
        return _batch_job(job)
    return _spec_job(job)


def _vectorized_units(specs: List[RunSpec], store: Optional[Store],
                      batch_size: int) -> List[Any]:
    """Group a plain batch's pending specs into execution units.

    Unstored specs are deduplicated by hash and partitioned by their
    seed-free canonical identity
    (:func:`~repro.spec.vectorized.batch_group_key`): groups of specs
    *asking* for the batch engine ride one
    :class:`~repro.sim.batch.engine.BatchSimulation` in chunks of at most
    ``batch_size`` seeds (a list of specs per chunk); every other spec —
    adaptive adversaries, consensus, instrumented runs, other engines —
    is its own unit and keeps its scalar engine's bit-exact per-trial
    execution.  Chunks come first, then the scalar specs.
    """
    pending: Dict[str, RunSpec] = {}
    for spec in specs:
        if store is None or spec.spec_hash not in store:
            pending.setdefault(spec.spec_hash, spec)
    groups: Dict[str, List[RunSpec]] = {}
    scalar: List[Any] = []
    for spec in pending.values():
        if spec.engine == "batch":
            # Lazy: the vectorized engine pulls in numpy, which batches
            # without engine="batch" specs never need.
            from ..spec.vectorized import batch_eligible, batch_group_key

            if batch_eligible(spec):
                groups.setdefault(batch_group_key(spec), []).append(spec)
                continue
        scalar.append(spec)
    chunks: List[Any] = []
    if groups:
        from ..sim.batch import max_batch_trials

        for group in groups.values():
            # Cap chunks so one group's packed state fits the memory
            # budget (the I-payload arrays grow with n²).
            size = max(1, min(int(batch_size), max_batch_trials(group[0].n)))
            for i in range(0, len(group), size):
                chunks.append(group[i : i + size])
    return chunks + scalar


def execute_batch(
    specs: Iterable[RunSpec],
    store: Optional[Store] = None,
    processes: int = 1,
    trial_timeout: Optional[float] = None,
    retries: int = 0,
    manifest: Any = None,
    checkpoint_every: int = 8,
    shutdown: Any = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> List[Dict[str, Any]]:
    """Execute a batch of specs, skipping every already-stored hash.

    Specs travel to workers as their serialized dicts, so parallel
    batches need no pickling support beyond plain data.  Records come
    back in spec order; with a store, previously stored specs are cache
    hits and duplicate hashes within the batch execute once.  Every mode
    runs through :func:`~repro.experiments.campaign.run_checkpointed_jobs`
    with one :class:`~repro.experiments.pool.TrialPool`.

    In a plain batch, specs requesting ``engine="batch"`` are grouped by
    cell and run ``batch_size`` seeds per vectorized engine tick (see
    :func:`_vectorized_units`).  A fault-tolerant or checkpointed batch
    runs per trial — a group chunk is not a unit the fault machinery can
    retry seed by seed — and ``execute()`` still vectorizes each
    eligible spec as a batch of one.

    ``trial_timeout`` (seconds per spec) and ``retries`` switch the
    batch to partial-result mode: a spec whose execution hangs, raises,
    or kills its worker yields a :func:`failed_record` (marked
    ``"failed": True``) instead of aborting the batch, and is **not**
    stored — re-running the same batch against the same store retries
    only the failed specs.

    ``manifest`` (a :class:`~repro.experiments.campaign.CampaignManifest`
    or a path) switches the batch to **checkpointed** execution: specs
    run in chunks, and after each chunk the manifest — which records
    every submitted spec (dict and hash), the completed/failed hashes,
    and the batch's RNG provenance — is atomically rewritten, at least
    every ``checkpoint_every`` completions.  With a store, the store
    holds the results and the manifest only progress; without one, the
    realized metrics live in the manifest.  A batch killed mid-run can
    then be resumed from the manifest alone and re-runs exactly the
    missing specs, seed for seed.  ``shutdown`` (a
    :class:`~repro.experiments.campaign.GracefulShutdown` or any
    0-argument callable; needs a ``manifest``) is polled between
    submissions: when it turns truthy the batch stops submitting, drains
    in-flight trials, flushes the store, writes the manifest, and raises
    :class:`~repro.experiments.campaign.CampaignDrained`.
    """
    from ..experiments.campaign import run_checkpointed_jobs

    specs = list(specs)
    per_trial = (
        manifest is not None or trial_timeout is not None or retries > 0
    )
    units = specs if per_trial else _vectorized_units(
        specs, store, batch_size)

    def landed(unit: Any, value: Any) -> Iterable[Tuple[RunSpec, Any]]:
        """(spec, metrics) pairs of one finished unit."""
        return zip(unit, value) if isinstance(unit, list) else [(unit, value)]

    def sink(index: int, value: Any) -> None:
        for spec, metrics in landed(units[index], value):
            store.put(spec, metrics)

    outcomes = run_checkpointed_jobs(
        [
            [spec.to_dict() for spec in unit] if isinstance(unit, list)
            else unit.to_dict()
            for unit in units
        ],
        _run_job,
        keys=[
            (unit[0] if isinstance(unit, list) else unit).spec_hash
            for unit in units
        ],
        manifest=manifest,
        meta={
            "driver": "execute_batch",
            "specs": len(specs),
            "rng": {"seeds": sorted({spec.seed for spec in specs})},
        },
        done=(
            (lambda index: units[index].spec_hash in store)
            if per_trial and store is not None else None
        ),
        sink=sink if store is not None else None,
        sync=store.sync if store is not None else None,
        checkpoint_every=checkpoint_every,
        shutdown=shutdown,
        processes=processes,
        trial_timeout=trial_timeout,
        retries=retries,
    )
    fresh: Dict[str, Dict[str, Any]] = {}
    for unit, outcome in zip(units, outcomes):
        if not outcome.ok:
            fresh[unit.spec_hash] = failed_record(unit, outcome)
        elif store is None:
            for spec, metrics in landed(unit, outcome.value):
                fresh[spec.spec_hash] = make_record(spec, metrics)
    if store is None:
        return [fresh[spec.spec_hash] for spec in specs]
    return [
        store.get(spec.spec_hash) or fresh[spec.spec_hash]
        for spec in specs
    ]

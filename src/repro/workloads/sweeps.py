"""Parameter-sweep drivers: run a configuration grid, aggregate over seeds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..analysis.stats import Summary, summarize
from ..sim.events import StepProfiler
from ..spec.builder import execute
from ..spec.runspec import RunSpec


@dataclass
class SweepPoint:
    """Aggregated measurements for one (algorithm, n, f, d, delta) cell."""

    algorithm: str
    n: int
    f: int
    d: int
    delta: int
    seeds: int
    completion_rate: float
    time: Summary
    messages: Summary
    extras: Dict[str, Any]


def geometric_ns(start: int = 16, stop: int = 256, factor: int = 2
                 ) -> List[int]:
    """Geometric population sweep: start, start·factor, … ≤ stop."""
    ns = []
    n = start
    while n <= stop:
        ns.append(n)
        n *= factor
    return ns


def _job_spec(args):
    """Split one 11-field sweep job into (RunSpec, params-object override).

    Serializable knobs live in the spec; an algorithm parameter *object*
    (e.g. :class:`SearsParams`) cannot, so it rides as an override.
    """
    (algorithm, n, f, d, delta, seed, crashes, params, max_steps, engine,
     topology) = args
    spec = RunSpec(
        kind="gossip", algorithm=algorithm, n=n, f=f, d=d, delta=delta,
        seed=seed, params=params if isinstance(params, dict) else None,
        crashes=crashes, max_steps=max_steps, engine=engine,
        topology=topology,
    )
    return spec, None if isinstance(params, dict) else params


def _sweep_job(args):
    """One (n, seed) gossip run, reduced to the aggregated fields.

    Module-level so parallel sweeps can ship it to worker processes.
    """
    spec, params = _job_spec(args)
    run = execute(spec, params=params)
    return run.completed, run.completion_time, run.messages


def run_and_profile(args, profiler: StepProfiler):
    """As :func:`_sweep_job`, with ``profiler`` observing every step.

    The same profiler instance rides along every run, so its buckets
    accumulate the whole sweep's per-phase wall time.
    """
    spec, params = _job_spec(args)
    run = execute(spec, params=params, observers=(profiler,))
    return run.completed, run.completion_time, run.messages


def sweep_gossip(
    algorithm: str,
    ns: Sequence[int],
    f_of_n: Callable[[int], int],
    d: int = 1,
    delta: int = 1,
    seeds: Iterable[int] = range(3),
    crash: bool = False,
    params_of_n: Optional[Callable[[int], Any]] = None,
    max_steps: Optional[int] = None,
    processes: int = 1,
    profile: Optional[StepProfiler] = None,
    trial_timeout: Optional[float] = None,
    retries: int = 0,
    manifest: Optional[Any] = None,
    checkpoint_every: int = 8,
    shutdown: Optional[Callable[[], bool]] = None,
    engine: str = "auto",
    topology: Any = None,
) -> List[SweepPoint]:
    """Run ``algorithm`` across a population sweep; aggregate per n.

    ``processes > 1`` distributes the (n × seed) runs over a
    :class:`~repro.experiments.pool.TrialPool` (each run is a
    deterministic function of its parameters, so aggregates are identical
    to the sequential sweep). ``profile`` attaches a
    :class:`~repro.sim.events.StepProfiler` to every run, accumulating a
    per-phase wall-time breakdown; profiled sweeps run sequentially so
    the observer sees every step.

    ``trial_timeout``/``retries`` make the runs fault-tolerant: a run
    that hangs, raises, or kills its worker counts as a not-completed
    trial in its cell's ``completion_rate`` instead of aborting the
    sweep.

    ``engine`` selects the execution strategy for every run.
    ``"batch"`` additionally routes an unprofiled, unmanifested sweep
    through :func:`repro.store.batch.execute_batch`, which groups a
    plain batch's eligible (cell, seed) runs through the vectorized
    batched-trial engine, advancing many seeds of one cell per engine
    tick; elsewhere ``execute`` still routes each eligible spec through
    the batch engine as a batch of one.

    ``manifest`` (path or
    :class:`~repro.experiments.campaign.CampaignManifest`) checkpoints
    the sweep: per-run results are persisted (atomically, at least
    every ``checkpoint_every`` completions) keyed by the run's
    parameters, so a sweep killed mid-way resumes seed-for-seed,
    re-executing only the missing (n, seed) runs.  ``shutdown`` (needs a
    ``manifest``) drains the sweep on a graceful-stop request and
    raises :class:`~repro.experiments.campaign.CampaignDrained`.

    ``topology`` restricts every run to a communication graph (a family
    name or ``{"name": ..., **knobs}``); ``None``/``"complete"`` is the
    paper's model.  Non-complete topologies are batch-ineligible, so a
    ``"batch"`` sweep over them transparently runs per-trial.
    """
    # Lazy import: repro.experiments.scaling imports this module, so a
    # top-level import of the campaign loop would be circular.
    from ..experiments.campaign import run_checkpointed_jobs

    seeds = list(seeds)
    jobs = []
    for n in ns:
        f = f_of_n(n)
        params = params_of_n(n) if params_of_n else None
        for seed in seeds:
            jobs.append((algorithm, n, f, d, delta, seed,
                         f if crash else None, params, max_steps, engine,
                         topology))

    if profile is not None:
        outcomes = [
            run_and_profile(job, profile) for job in jobs
        ]
    elif engine == "batch" and manifest is None and all(
        job[7] is None or isinstance(job[7], dict) for job in jobs
    ):
        # Vectorized grouping: same-cell seeds ride one batched engine
        # tick; ineligible cells fall back per-trial inside the batch.
        # (Params *objects* cannot ride a spec, and checkpointed sweeps
        # key their manifests by run parameters, so both stay below.)
        from ..store.batch import execute_batch

        records = execute_batch(
            [_job_spec(job)[0] for job in jobs],
            processes=processes, trial_timeout=trial_timeout,
            retries=retries, shutdown=shutdown,
        )
        outcomes = [
            (metrics["completed"], metrics.get("time"),
             metrics.get("messages"))
            for metrics in (record["metrics"] for record in records)
        ]
    else:
        trials = run_checkpointed_jobs(
            jobs, _sweep_job,
            manifest=manifest,
            meta={
                "driver": "sweep",
                "algorithm": algorithm,
                "ns": list(ns),
                "rng": {"seeds": seeds},
            },
            encode=list, decode=tuple,
            checkpoint_every=checkpoint_every, shutdown=shutdown,
            processes=processes, trial_timeout=trial_timeout,
            retries=retries,
        )
        # A failed/timed-out trial aggregates as a not-completed run.
        outcomes = [
            trial.value if trial.ok else (False, None, None)
            for trial in trials
        ]

    points = []
    for index, n in enumerate(ns):
        f = f_of_n(n)
        per_n = outcomes[index * len(seeds):(index + 1) * len(seeds)]
        times, messages, completions = [], [], []
        for completed, completion_time, message_count in per_n:
            completions.append(completed)
            if completed:
                times.append(float(completion_time))
                messages.append(float(message_count))
        points.append(
            SweepPoint(
                algorithm=algorithm, n=n, f=f, d=d, delta=delta,
                seeds=len(seeds),
                completion_rate=sum(completions) / len(completions),
                time=summarize(times or [float("nan")]),
                messages=summarize(messages or [float("nan")]),
                extras={},
            )
        )
    return points


def quarter(n: int) -> int:
    return n // 4


def near_half(n: int) -> int:
    return (n - 1) // 2


def three_quarters(n: int) -> int:
    return 3 * n // 4

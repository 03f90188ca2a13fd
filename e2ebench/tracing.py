"""Timing wrappers around each layer's public entry points.

Nothing here edits ``src/``: :class:`Instrumentation` swaps module
functions, a few class methods and the attributes of each built
``Simulation`` for wrappers that record a span, and puts every original
back on :meth:`Instrumentation.uninstall`.

Spans nest on one stack per process.  A span's self time is its
duration minus that of the spans it encloses; all layer times reported
by the benchmark are self times, so they add up to at most the wall
time.  Spans are folded into per-name totals as they close (a large-n
round opens millions), and a span re-entered under the same name is
timed once, by the outer call.

Pool workers trace themselves: the traced ``TrialPool.map`` ships each
job as ``(job function, job)`` to :func:`_remote`, which runs the job
under the worker's own tracer (inherited when the worker was forked,
installed on first use otherwise) and returns its totals beside the
result.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

_perf = time.perf_counter

#: The tracer the installed wrappers report to.  Module-level because
#: pool workers reach it through pickled references to the functions
#: below; set only between install() and uninstall().
_ACTIVE: "Tracer | None" = None

_MISSING = object()


class Tracer:
    """Per-process span totals and counters."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._stack: List[list] = []
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Per-spec host milliseconds (a batch chunk's time is shared
        #: evenly among its specs).
        self.exec_ms: List[float] = []
        #: perf_counter() at the start of each pool job.
        self.job_starts: List[float] = []
        #: Spans whose child spans summed past their own duration.
        self.overruns = 0
        #: Span name for ``ProcessHandle.run_step``: the algorithm layer
        #: of the run in progress.
        self.step_layer = "core.step"

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any):
        stack = self._stack
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = _perf() - start
            stack.pop()
            if frame[1] > duration:
                self.overruns += 1
            self.total[name] += duration
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            if stack:
                stack[-1][1] += duration

    def innermost(self) -> "str | None":
        """Name of the span open right now, if any."""
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def export(self) -> Dict[str, Any]:
        return {
            "total": dict(self.total), "self_s": dict(self.self_s),
            "calls": dict(self.calls), "counts": dict(self.counts),
            "exec_ms": list(self.exec_ms),
            "job_starts": list(self.job_starts),
            "overruns": self.overruns,
        }

    def merge(self, data: Dict[str, Any]) -> None:
        for key in ("total", "self_s", "calls", "counts"):
            mine = getattr(self, key)
            for name, value in data[key].items():
                mine[name] += value
        self.exec_ms += data["exec_ms"]
        self.job_starts += data["job_starts"]
        self.overruns += data["overruns"]


# -- pool job wrappers (module level: the pool pickles them by name) -------#

def _job(original: Callable, job: Any, specs: int) -> Any:
    tracer = _ACTIVE
    start = _perf()
    tracer.job_starts.append(start)
    tracer.counts["experiments.pool.jobs"] += 1
    result = tracer.span("experiments.pool.job", original, job)
    share = (_perf() - start) * 1000.0 / specs
    tracer.exec_ms += [share] * specs
    return result


def _traced_spec_job(spec_dict):
    return _job(_ORIGINALS["spec_job"], spec_dict, 1)


def _traced_batch_job(spec_dicts):
    return _job(_ORIGINALS["batch_job"], spec_dicts, len(spec_dicts))


def _remote(fn: Callable, job: Any):
    """Run one pool job in a worker and ship the worker's spans back."""
    if _ACTIVE is None:
        # A worker that was not forked from the traced parent.
        Instrumentation(Tracer()).install()
    _ACTIVE.reset()
    return fn(job), _ACTIVE.export()


_ORIGINALS: Dict[str, Callable] = {}


class Instrumentation:
    """Installs and removes the wrappers for one :class:`Tracer`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        before = owner.__dict__.get(attr, _MISSING)
        setattr(owner, attr, value)
        if before is _MISSING:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, before))

    def install(self) -> None:
        global _ACTIVE
        from repro.experiments.pool import TrialPool
        from repro.sim.process import ProcessHandle
        from repro.spec import builder, vectorized
        from repro.spec.runspec import RunSpec
        from repro.store import batch
        from repro.store.jsonl import JsonlStore
        from repro.store.sqlite import SqliteStore

        tracer = self.tracer
        _ACTIVE = tracer
        _ORIGINALS.update(spec_job=batch._spec_job,
                          batch_job=batch._batch_job)
        self._patch(batch, "_spec_job", _traced_spec_job)
        self._patch(batch, "_batch_job", _traced_batch_job)
        self._patch(batch, "metrics_of",
                    tracer.wrap("spec.codec", batch.metrics_of))
        self._patch(RunSpec, "to_dict",
                    tracer.wrap("spec.codec", RunSpec.to_dict))
        self._patch(RunSpec, "from_dict", classmethod(
            tracer.wrap("spec.codec", RunSpec.from_dict.__func__)))
        self._patch(RunSpec, "spec_hash", property(
            tracer.wrap("spec.codec", RunSpec.spec_hash.fget)))
        self._patch(builder, "build_topology",
                    tracer.wrap("sim.topology.build",
                                builder.build_topology))
        self._patch(builder, "build", self._traced_build(builder.build))
        self._patch(vectorized, "run_batch_specs",
                    self._traced_batch(vectorized.run_batch_specs))

        run_step = ProcessHandle.run_step

        def traced_run_step(handle, inbox):
            return tracer.span(tracer.step_layer, run_step, handle, inbox)

        self._patch(ProcessHandle, "run_step", traced_run_step)
        self._patch(TrialPool, "map", self._traced_map(TrialPool.map))
        self._patch(TrialPool, "map_outcomes",
                    self._traced_map_outcomes(TrialPool.map_outcomes))
        for cls in (JsonlStore, SqliteStore):
            self._patch(cls, "put", self._counted(
                "store.put", cls.put, lambda r: {"store.puts": 1}))
            for method in ("get", "__contains__"):
                self._patch(cls, method, self._counted(
                    "store.lookup", getattr(cls, method),
                    lambda r: {"store.lookups": 1,
                               "store.hits": r not in (None, False)}))
            self._patch(cls, "select", self._counted(
                "store.query.select", cls.select,
                lambda r: {"store.query.rows": len(r)}))

    def uninstall(self) -> None:
        global _ACTIVE
        while self._undo:
            self._undo.pop()()
        _ORIGINALS.clear()
        _ACTIVE = None

    # -- wrapper factories ----------------------------------------------- #

    def _counted(self, name: str, fn: Callable,
                 counter: Callable[[Any], Dict[str, int]]) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = tracer.innermost() == name
            result = tracer.span(name, fn, *args, **kwargs)
            if not nested:  # e.g. Store.__contains__ calling get
                for key, amount in counter(result).items():
                    tracer.counts[key] += amount
            return result
        return wrapper

    def _traced_batch(self, run_batch_specs: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(run_batch_specs)
        def wrapper(specs):
            tracer.counts["sim.batch.trials"] += len(specs)
            tracer.counts["sim.batch.chunks"] += 1
            return tracer.span("sim.batch", run_batch_specs, specs)
        return wrapper

    def _traced_build(self, build: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(build)
        def wrapper(spec, **overrides):
            built = tracer.span("spec.build", build, spec, **overrides)
            if spec.engine == "batch":
                tracer.counts["sim.batch.fallbacks"] += 1
            _instrument_sim(tracer, built)
            return built
        return wrapper

    def _traced_map(self, pool_map: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(pool_map)
        def wrapper(pool, fn, jobs):
            jobs = list(jobs)
            if pool.processes == 1 or len(jobs) <= 1:
                return pool_map(pool, fn, jobs)
            start = _perf()
            pairs = pool_map(pool, functools.partial(_remote, fn), jobs)
            wall = _perf() - start
            results = []
            for result, spans in pairs:
                tracer.merge(spans)
                tracer.counts["experiments.pool.parallel_busy_s"] += (
                    spans["total"]["experiments.pool.job"])
                results.append(result)
            tracer.counts["experiments.pool.capacity_s"] += (
                pool.processes * wall)
            tracer.counts["experiments.pool.startup_s"] += (
                min(s["job_starts"][0] for _, s in pairs) - start)
            return results
        return wrapper

    def _traced_map_outcomes(self, map_outcomes: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(map_outcomes)
        def wrapper(pool, fn, jobs, *args, **kwargs):
            outcomes = map_outcomes(pool, fn, jobs, *args, **kwargs)
            tracer.counts["experiments.pool.retries"] += sum(
                max(0, o.attempts - 1) for o in outcomes)
            return outcomes
        return wrapper


_ADVERSARY_METHODS = ("crashes_at", "schedule_at", "assign_delay",
                      "next_event_at", "has_pending_events",
                      "corrupt_outbox")
_NETWORK_METHODS = ("enqueue", "drop_all_for")
_METRICS_METHODS = ("record_send", "record_delivery", "record_scheduled",
                    "record_crash")


def _instrument_sim(tracer: Tracer, built: Any) -> None:
    """Wrap the built simulation's parts as instance attributes."""
    sim = built.sim
    adversary, network, metrics = sim.adversary, sim.network, sim.metrics
    for name in _ADVERSARY_METHODS:
        setattr(adversary, name,
                tracer.wrap("adversary", getattr(adversary, name)))
    for name in _NETWORK_METHODS:
        setattr(network, name,
                tracer.wrap("sim.network", getattr(network, name)))
    collect = network.collect

    def traced_collect(pid, now):
        inbox = tracer.span("sim.network", collect, pid, now)
        tracer.counts["sim.network.deliveries"] += len(inbox)
        return inbox

    network.collect = traced_collect
    for name in _METRICS_METHODS:
        setattr(metrics, name,
                tracer.wrap("sim.metrics", getattr(metrics, name)))
    if sim.monitor is not None:
        sim.monitor.check = tracer.wrap("sim.monitor", sim.monitor.check)

    step = sim.step

    def counted_step():
        tracer.counts["sim.engine.executed_steps"] += 1
        step()

    sim.step = counted_step
    run = sim.run
    layer = "consensus.step" if built.spec.kind == "consensus" else "core.step"

    def traced_run(*args, **kwargs):
        tracer.step_layer = layer
        start = _perf()
        result = tracer.span("sim.engine", run, *args, **kwargs)
        tracer.counts["sim.engine.global_steps"] += sim.now
        if result.reason == "step-limit":
            tracer.counts["sim.engine.steplimit_runs"] += 1
            tracer.counts["sim.engine.steplimit_s"] += _perf() - start
        if layer == "consensus.step":
            tracer.counts["consensus.runs"] += 1
        return result

    sim.run = traced_run

"""End-to-end campaign benchmark: spec list -> trial pool -> engine ->
store -> query, timed as a whole and, in a traced run, per layer.

    python3 e2ebench/run.py --workload pipeline --seed 0 --seconds 35 \
        --trace 0

Run from the repository root; the program is imported from ``src/``.
Workloads (see ``workloads.py`` and ``README.md``):

``pipeline``  960 tiny specs through ``execute_batch(processes=2)`` into
              a JSONL store pre-filled with 20k records, then a resume
              on a fresh handle (all cache hits) and six ``select``
              queries.
``large-n``   five big scalar specs, one process, into SQLite.
``campaign``  the reference campaign (batch groups, complete-graph and
              G(n,p) cells, consensus), one process, into SQLite, then
              per-cell aggregation queries.

A run sets up several times (reporting the median), then repeats the
workload's round on a fresh store for about ``--seconds``, reporting
medians over rounds.  ``--trace 1`` runs one untraced and one traced
round and reports the per-layer metrics of the traced one.  Outputs are
checked on every run (``checks.py``); the last line of standard output
is the JSON result.
"""

from __future__ import annotations

import time

_LAUNCH = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, NamedTuple, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from repro.spec.builder import execute  # noqa: E402
from repro.spec.runspec import RunSpec  # noqa: E402
from repro.store import execute_batch, open_store  # noqa: E402

import checks  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _LAUNCH

SETUP_REPEATS = 3
WORK_ROOT = os.path.join(ROOT, ".e2ebench_work")


class Round(NamedTuple):
    """What one round measured and returned."""

    records: List[Dict[str, Any]]
    execute_s: float
    wall_s: float
    queries: Dict[str, Any]
    store_path: str


class Summary(NamedTuple):
    """What is kept of a checked round (records are dropped, so memory
    does not grow with the number of rounds)."""

    execute_s: float
    wall_s: float
    specs: int
    messages: int
    failed: int
    incomplete: int
    digest: str


def summarize(result: Round) -> Summary:
    records = result.records
    return Summary(
        result.execute_s, result.wall_s, len(records),
        sum(r["metrics"]["messages"] for r in records),
        sum(1 for r in records if r.get("failed")),
        sum(1 for r in records if not r["metrics"]["completed"]),
        checks.digest(records),
    )


def _open(path: str, tracer: Optional[tracing.Tracer]):
    if tracer is None:
        return open_store(path)
    return tracer.span("store.open", open_store, path)


def _store_bytes(path: str) -> int:
    return sum(os.path.getsize(p) for p in (path, path + "-wal")
               if os.path.exists(p))


class Workload:
    """One workload: set-up, a timed round, and its output checks."""

    processes = 1
    store_name = "store.sqlite"

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed
        self.work = work
        self.specs: List[RunSpec] = []

    def setup(self) -> None:
        self.specs = workloads.WORKLOADS[self.name](self.seed)
        self.warm_up()

    def warm_up(self) -> None:
        """Run one tiny spec per algorithm so lazy imports and caches
        are in place before timing."""
        seen = set()
        for spec in self.specs:
            key = (spec.kind, spec.algorithm, spec.engine)
            if key not in seen:
                seen.add(key)
                execute(spec.replace(n=8, f=None, crashes=None, d=1,
                                     delta=1, topology=None))

    def fresh_store(self, index: int) -> str:
        path = os.path.join(self.work, f"round{index}", self.store_name)
        os.makedirs(os.path.dirname(path))
        return path

    def run_round(self, index: int,
                  tracer: Optional[tracing.Tracer] = None) -> Round:
        path = self.fresh_store(index)
        start = time.perf_counter()
        store = _open(path, tracer)
        records = execute_batch(self.specs, store=store,
                                processes=self.processes)
        executed = time.perf_counter()
        queries = self.after_execute(path, tracer)
        end = time.perf_counter()
        return Round(records, executed - start, end - start, queries, path)

    def after_execute(self, path: str,
                      tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
        return {}

    def check(self, result: Round) -> List[str]:
        problems = checks.check_records(self.specs, result.records)
        problems += checks.check_store(open_store(result.store_path))
        return problems


class Pipeline(Workload):
    name = "pipeline"
    processes = 2
    store_name = "store.jsonl"

    #: name -> (select arguments, the same filter as a predicate on
    #: (spec, metrics)).
    QUERIES = {
        "ears-n16": ({"algorithm": "ears", "n": 16},
                     lambda s, m: s["algorithm"] == "ears" and s["n"] == 16),
        "sears-tears-done": (
            {"algorithm": ["sears", "tears"], "completed": True},
            lambda s, m: s["algorithm"] in ("sears", "tears")
            and m["completed"] is True),
        "chatty": ({"where": "metrics.messages > 3000"},
                   lambda s, m: m["messages"] > 3000),
        "n24-fast": ({"n": 24, "where": "metrics.time < 100"},
                     lambda s, m: s["n"] == 24 and m["time"] is not None
                     and m["time"] < 100),
        "push-pull-50": ({"algorithm": "push-pull", "limit": 50},
                         lambda s, m: s["algorithm"] == "push-pull"),
        "incomplete": ({"completed": False},
                       lambda s, m: m["completed"] is False),
    }

    def setup(self) -> None:
        super().setup()
        self.prefill = workloads.prefill_records(self.seed)
        self.prefill_path = os.path.join(self.work, "prefill.jsonl")
        with open(self.prefill_path, "w", encoding="utf-8") as handle:
            for record in self.prefill:
                handle.write(json.dumps(record, default=str) + "\n")

    def fresh_store(self, index: int) -> str:
        path = super().fresh_store(index)
        shutil.copyfile(self.prefill_path, path)
        return path

    def after_execute(self, path, tracer):
        store = _open(path, tracer)
        resumed = execute_batch(self.specs, store=store,
                                processes=self.processes)
        selected = {
            name: store.select(**args)
            for name, (args, _) in self.QUERIES.items()
        }
        return {"resumed": resumed, "selected": selected}

    def check(self, result: Round) -> List[str]:
        problems = super().check(result)
        if result.queries["resumed"] != result.records:
            problems.append("resume returned different records")
        size = len(self.prefill) + len(self.specs)
        if len(open_store(result.store_path)) != size:
            problems.append("resume wrote to the store")
        pool = self.prefill + result.records
        for name, (args, predicate) in self.QUERIES.items():
            problems += checks.check_query(
                name, result.queries["selected"][name], pool, predicate,
                args.get("limit"))
        return problems


class LargeN(Workload):
    name = "large-n"


class Campaign(Workload):
    name = "campaign"

    def after_execute(self, path, tracer):
        store = _open(path, tracer)
        cells = sorted({(s.kind, s.algorithm) for s in self.specs})
        aggregates = {}
        for kind, algorithm in cells:
            rows = store.select(kind=kind, algorithm=algorithm)
            done = [r["metrics"] for r in rows if r["metrics"]["completed"]]
            aggregates[f"{kind}:{algorithm}"] = {
                "rows": [r["spec_hash"] for r in rows],
                "completed": len(done),
                "mean_time": sum(m["time"] for m in done) / max(1, len(done)),
                "mean_messages": sum(r["metrics"]["messages"] for r in rows)
                / max(1, len(rows)),
            }
        incomplete = store.select(completed=False)
        return {"aggregates": aggregates, "incomplete": incomplete}

    def check(self, result: Round) -> List[str]:
        problems = super().check(result)
        for kind_algorithm, aggregate in result.queries["aggregates"].items():
            kind, algorithm = kind_algorithm.split(":")
            want = sorted(r["spec_hash"] for r in result.records
                          if r["spec"]["kind"] == kind
                          and r["spec"]["algorithm"] == algorithm)
            if aggregate["rows"] != want:
                problems.append(f"aggregate {kind_algorithm}: wrong rows")
        problems += checks.check_query(
            "incomplete", result.queries["incomplete"], result.records,
            lambda s, m: m["completed"] is False)
        return problems


WORKLOAD_RUNNERS = {w.name: w for w in (Pipeline, LargeN, Campaign)}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _end_to_end(rounds: List[Summary], setup_s: float,
                peak_rss_mb: float) -> Dict[str, float]:
    """Medians over rounds; every spec of a round is freshly executed."""
    def per_round(value) -> float:
        return report.median([value(r) for r in rounds])

    specs = sum(r.specs for r in rounds)
    return {
        "setup_s": setup_s,
        "wall_s": per_round(lambda r: r.wall_s),
        "specs_per_s": per_round(lambda r: r.specs / r.execute_s),
        "sim_msgs_per_s": per_round(lambda r: r.messages / r.execute_s),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - sum(r.failed for r in rounds) / specs,
        "complete_frac": 1.0 - sum(r.incomplete for r in rounds) / specs,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    definitions = report.load_definitions()

    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, definitions, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is using it


def _run(args, definitions, work: str) -> int:
    runner = WORKLOAD_RUNNERS[args.workload]
    setups = []
    for attempt in range(SETUP_REPEATS):
        attempt_dir = os.path.join(work, f"setup{attempt}")
        os.makedirs(attempt_dir)
        bench = runner(args.seed, attempt_dir)
        start = time.perf_counter()
        bench.setup()
        setups.append(time.perf_counter() - start)
    setup_s = IMPORT_S + report.median(setups)
    print(f"# {args.workload} seed={args.seed}: {len(bench.specs)} specs "
          f"{json.dumps(workloads.composition(bench.specs))}", flush=True)

    rounds: List[Summary] = []
    problems: List[str] = []
    start = time.perf_counter()
    while True:
        last = bench.run_round(len(rounds))
        problems += bench.check(last)
        rounds.append(summarize(last))
        next_end = (time.perf_counter() - start
                    + report.median([r.wall_s for r in rounds]))
        if args.trace or next_end > args.seconds:
            break
    if args.trace:
        tracer = tracing.Tracer()
        instrumentation = tracing.Instrumentation(tracer)
        instrumentation.install()
        try:
            last = bench.run_round(len(rounds), tracer)
        finally:
            instrumentation.uninstall()
        problems += bench.check(last)
        rounds.append(summarize(last))
        if tracer.overruns:
            problems.append(f"{tracer.overruns} spans outlasted by children")
    peak_rss_mb = _peak_rss_mb()  # before the sample re-runs
    digests = {r.digest for r in rounds}
    if len(digests) != 1:
        problems.append(f"simulated fields differ across rounds: {digests}")
    problems += checks.check_samples(last.records, args.seed)
    for problem in problems:
        print(f"# CHECK FAILED: {problem}", file=sys.stderr)

    if args.trace:
        prefill = getattr(bench, "prefill_path", None)
        layers = report.layer_metrics(tracer, {
            "bytes_written": _store_bytes(last.store_path)
            - (os.path.getsize(prefill) if prefill else 0),
            "quarantined": len(
                open_store(last.store_path).quarantined_entries()),
        }, rounds[-1].wall_s / rounds[0].wall_s)
        metrics = report.with_units(layers, definitions["per_layer"])
    else:
        metrics = report.with_units(
            _end_to_end(rounds, setup_s, peak_rss_mb),
            definitions["end_to_end"])
    walls = " ".join(f"{r.wall_s:.3f}" for r in rounds)
    print(f"# digest {sorted(digests)[0]} round walls (s): {walls}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.specs for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

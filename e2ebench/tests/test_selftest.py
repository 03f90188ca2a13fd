"""Self-tests of the benchmark: generator determinism, metric names and
units, the percentile rule, the layer map and the tracer.

    python3 -m pytest e2ebench/tests -q
"""

import re

import pytest

import report
import run
import tracing
import workloads
from repro.store import execute_batch
from repro.spec.runspec import RunSpec

DEFINITIONS = report.load_definitions()
END_TO_END = [d["name"] for d in DEFINITIONS["end_to_end"]]
PER_LAYER = [d["name"] for d in DEFINITIONS["per_layer"]]
WORKLOAD_NAMES = [w["name"] for w in DEFINITIONS["workloads"]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    generate = workloads.WORKLOADS[name]
    first = [s.spec_hash for s in generate(7)]
    assert first == [s.spec_hash for s in generate(7)]
    assert first != [s.spec_hash for s in generate(8)]
    assert len(set(first)) == len(first)


def test_prefill_is_seeded_and_disjoint_from_the_timed_specs():
    records = workloads.prefill_records(3, count=300)
    assert records == workloads.prefill_records(3, count=300)
    assert records != workloads.prefill_records(4, count=300)
    timed = {s.spec_hash for s in workloads.pipeline_specs(3)}
    assert timed.isdisjoint(r["spec_hash"] for r in records)


@pytest.mark.parametrize("name,count", [
    ("pipeline", 960), ("large-n", 5), ("campaign", 120)])
def test_composition_matches_the_documented_size(name, count):
    specs = workloads.WORKLOADS[name](0)
    assert len(specs) == count
    counts = workloads.composition(specs)
    assert sum(counts["algorithm"].values()) == count


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_campaign_draws_a_fixed_number_of_step_limit_seeds(seed):
    strata = workloads.gnp_strata()["cells"]
    limited = 0
    for spec in workloads.campaign_specs(seed):
        if spec.topology is not None:
            cell = f"{spec.algorithm}/{workloads.condition_of(spec)}"
            limited += spec.seed in strata[cell].get("step-limit", [])
    assert limited == 2


def test_metric_names_and_units_are_well_formed():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    everything = DEFINITIONS["end_to_end"] + DEFINITIONS["per_layer"]
    for metric in everything:
        assert name.match(metric["name"]), metric
        assert unit.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    names = [m["name"] for m in everything]
    assert len(names) == len(set(names))
    for metric in DEFINITIONS["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= (
        next(m for m in everything if m["name"] == "setup_s").items())
    assert WORKLOAD_NAMES == list(run.WORKLOAD_RUNNERS)


def test_every_per_layer_metric_has_a_mapping_entry():
    assert sorted(report.LAYER_MAP) == sorted(PER_LAYER)
    for moves, on, little in report.LAYER_MAP.values():
        assert set(moves) <= set(END_TO_END)
        assert set(on) | set(little) <= set(WORKLOAD_NAMES)


def test_every_defined_metric_is_produced():
    layers = report.layer_metrics(tracing.Tracer(), {
        "bytes_written": 0, "quarantined": 0}, 1.0)
    assert sorted(layers) == sorted(PER_LAYER)
    records = [{"spec_hash": str(i),
                "metrics": {"completed": True, "messages": 5}}
               for i in range(5)]
    summary = run.summarize(run.Round(records, 1.0, 2.0, {}, "unused"))
    assert sorted(run._end_to_end([summary], 0.5, 100.0)) == sorted(
        END_TO_END)


@pytest.mark.parametrize("samples,expected", [
    (list(range(1, 6)), (50.0, 3)),
    (list(range(1, 21)), (50.0, 10)),
    (list(range(1, 101)), (90.0, 90)),
    (list(range(1, 1001)), (99.0, 990)),
    (list(range(1, 10001)), (99.9, 9990)),
])
def test_tail_percentile_keeps_ten_samples_beyond_it(samples, expected):
    assert report.tail_percentile(samples[::-1]) == expected


def test_child_spans_never_sum_past_their_parent():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(2000))

    def parent():
        for _ in range(5):
            tracer.span("child", leaf)
        tracer.span("parent", leaf)  # re-entry: timed by the outer call

    tracer.span("parent", parent)
    assert tracer.overruns == 0
    assert tracer.calls == {"child": 5, "parent": 1}
    assert tracer.total["child"] <= tracer.total["parent"]
    assert tracer.self_s["parent"] == pytest.approx(
        tracer.total["parent"] - tracer.total["child"])


@pytest.mark.parametrize("processes", [1, 2])
def test_tracing_leaves_results_and_program_unchanged(tmp_path, processes):
    from repro.spec import builder
    from repro.store import open_store

    specs = [RunSpec(algorithm=a, n=12, d=2, delta=4, seed=s, engine=e)
             for a, e in (("ears", "batch"), ("tears", "auto"))
             for s in (1, 2)]
    plain = execute_batch(specs, store=open_store(str(tmp_path / "a.db")))
    original_build = builder.build
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    instrumentation.install()
    try:
        traced = execute_batch(specs, processes=processes,
                               store=open_store(str(tmp_path / "b.db")))
    finally:
        instrumentation.uninstall()
    assert builder.build is original_build
    assert [r["metrics"] for r in traced] == [r["metrics"] for r in plain]
    assert tracer.counts["sim.batch.trials"] == 2
    assert tracer.calls["sim.engine"] == 2  # from the workers too
    assert tracer.counts["experiments.pool.jobs"] == 3
    assert len(tracer.exec_ms) == 4
    assert tracer.overruns == 0

"""Tests for experiment grids: spec batches aggregated into tables."""

import time

import repro.store.batch as batch_module
from repro.cli import main
from repro.experiments.grid import aggregate
from repro.spec import RunSpec
from repro.store import RunStore, execute_batch

#: A grid the way ``repro grid`` builds it: algorithm × n × seeds.
GRID = [
    RunSpec(kind="gossip", algorithm="trivial", n=8, d=1, delta=1, f=2,
            seed=seed)
    for seed in range(4)
]

_REAL_SPEC_JOB = batch_module._spec_job


def _misbehaving(spec_dict):
    """Seed 1 raises, seed 2 hangs, every other spec runs for real."""
    if spec_dict["seed"] == 1:
        raise RuntimeError("cell exploded")
    if spec_dict["seed"] == 2:
        time.sleep(3600)
    return _REAL_SPEC_JOB(spec_dict)


class TestFaultTolerantGrid:
    """Specs that hang or raise degrade to failed records, not crashes."""

    def test_partial_results_and_store_resume(self, tmp_path, monkeypatch):
        path = str(tmp_path / "grid.jsonl")
        monkeypatch.setattr(batch_module, "_spec_job", _misbehaving)
        records = execute_batch(GRID, store=RunStore(path), processes=2,
                                trial_timeout=1.0)
        by_seed = {r["spec"]["seed"]: r for r in records}
        for seed in (0, 3):
            assert not by_seed[seed].get("failed")
            assert by_seed[seed]["metrics"]["completed"]
        assert by_seed[1]["failed"]
        assert by_seed[1]["metrics"]["reason"] == "trial-failed"
        assert "cell exploded" in by_seed[1]["metrics"]["error"]
        assert by_seed[2]["failed"]
        assert by_seed[2]["metrics"]["reason"] == "trial-timeout"

        # Failed records never reach the store, so a re-run executes
        # exactly the failed specs.
        store = RunStore(path)
        assert len(store) == 2
        assert GRID[1].spec_hash not in store
        assert GRID[2].spec_hash not in store
        executed = []

        def spy(spec_dict):
            executed.append(spec_dict["seed"])
            return _REAL_SPEC_JOB(spec_dict)

        monkeypatch.setattr(batch_module, "_spec_job", spy)
        records = execute_batch(GRID, store=RunStore(path))
        assert sorted(executed) == [1, 2]
        assert not any(r.get("failed") for r in records)

    def test_clean_grid_leaves_no_summary_on_cache_hit(
            self, tmp_path, capsys, monkeypatch):
        argv = ["grid", "--algorithms", "trivial", "--ns", "8",
                "--seeds", "1", "--store", str(tmp_path / "grid.jsonl"),
                "--trial-timeout", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out

        def no_work(spec_dict):
            raise AssertionError("a cached grid must not execute")

        monkeypatch.setattr(batch_module, "_spec_job", no_work)
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "partial grid" not in first


class TestAggregate:
    def test_group_means(self):
        rows = [
            {"algo": "a", "n": 8, "messages": 10},
            {"algo": "a", "n": 8, "messages": 20},
            {"algo": "b", "n": 8, "messages": 100},
        ]
        means = aggregate(rows, by=["algo", "n"], value="messages")
        assert means[("a", 8)] == 15.0
        assert means[("b", 8)] == 100.0

    def test_none_values_skipped(self):
        rows = [
            {"algo": "a", "time": None},
            {"algo": "a", "time": 4},
        ]
        assert aggregate(rows, by=["algo"], value="time") == {("a",): 4.0}

"""The determinism matrix: every executor at every worker count must
produce byte-identical DFS output and identical engine counters.

This is the engine's core parallelism guarantee (splits formed in file
order, per-task counter shards merged in task-id order, part files
written in reducer-id order), asserted both on a classic word-count job
with a combiner and on a real multi-way spatial join.
"""

import pytest

from repro.mapreduce.counters import C
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.engine import Cluster
from repro.mapreduce.job import MapReduceJob, hash_partitioner

MATRIX = [
    (executor, workers)
    for executor in ("serial", "thread", "process")
    for workers in (1, 2, 8)
]


def word_count_job(combine: bool = True) -> MapReduceJob:
    def mapper(key, line, ctx):
        for word in line.split():
            ctx.emit(word, 1)

    def reducer(word, counts, ctx):
        ctx.emit(f"{word}\t{sum(counts)}")

    def combiner(word, counts):
        return [sum(counts)]

    return MapReduceJob(
        name="wc",
        input_paths=["in"],
        output_path="out",
        mapper=mapper,
        reducer=reducer,
        num_reducers=4,
        partitioner=hash_partitioner,
        combiner=combiner if combine else None,
    )


def run_word_count(executor: str, workers: int):
    """Run word count over several files/splits; snapshot output + counters."""
    cluster = Cluster(dfs=InMemoryDFS(), executor=executor, num_workers=workers)
    cluster.split_records = 7
    lines = [f"w{i % 13} w{i % 5} common w{i}" for i in range(60)]
    cluster.dfs.write_file("in/part-a", lines[:25])
    cluster.dfs.write_file("in/part-b", lines[25:40])
    cluster.dfs.write_file("in/part-c", lines[40:])
    result = cluster.run_job(word_count_job())
    parts = {
        path: cluster.dfs.read_file(path) for path in cluster.dfs.list_dir("out")
    }
    return parts, result.counters.as_dict(), result.output_records


class TestWordCountMatrix:
    baseline = None

    @classmethod
    def setup_class(cls):
        cls.baseline = run_word_count("serial", 1)

    @pytest.mark.parametrize("executor,workers", MATRIX)
    def test_identical_output_and_counters(self, executor, workers):
        parts, counters, output_records = run_word_count(executor, workers)
        base_parts, base_counters, base_output = self.baseline
        assert parts == base_parts  # byte-identical per part file
        assert counters == base_counters
        assert output_records == base_output

    def test_baseline_nontrivial(self):
        parts, counters, __ = self.baseline
        assert len(parts) == 4
        assert counters[C.GROUP_ENGINE][C.MAP_INPUT_RECORDS] == 60
        assert counters[C.GROUP_ENGINE][C.COMBINE_INPUT_RECORDS] > 0


class TestJoinMatrix:
    """A real C-Rep join (two chained jobs, marking + local join + user
    counters) survives the same matrix."""

    baseline = None

    @classmethod
    def setup_class(cls):
        cls.baseline = cls.run_join("serial", 1)

    @staticmethod
    def run_join(executor: str, workers: int):
        from repro.experiments.common import derive_grid
        from repro.experiments.workloads import synthetic_chain
        from repro.joins.registry import make_algorithm
        from repro.query.predicates import Overlap
        from repro.query.query import Query

        query = Query.chain(["R1", "R2", "R3"], Overlap())
        workload = synthetic_chain(300, 1700.0, names=("R1", "R2", "R3"), seed=7)
        grid = derive_grid(workload.datasets, 16)
        cluster = Cluster(executor=executor, num_workers=workers)
        cluster.split_records = 100
        algorithm = make_algorithm("c-rep", query=query, d_max=workload.d_max)
        result = algorithm.run(query, workload.datasets, grid, cluster)
        parts = {
            path: cluster.dfs.read_file(path)
            for path in cluster.dfs.list_dir(result.workflow.final_output_path)
        }
        return (
            sorted(result.tuples),
            parts,
            result.workflow.counters.as_dict(),
            result.stats.shuffled_records,
            result.stats.rectangles_marked,
        )

    @pytest.mark.parametrize("executor,workers", MATRIX)
    def test_identical_join_results(self, executor, workers):
        assert self.run_join(executor, workers) == self.baseline

    def test_baseline_nontrivial(self):
        tuples, parts, counters, shuffled, marked = self.baseline
        assert tuples and parts and shuffled > 0 and marked > 0


class TestReferenceSharingCost:
    """Only a pool that actually forks builds a reference table and
    freezes the collector; serial and thread runs (and a one-worker
    process run, which never forks) run exactly the plain code."""

    @pytest.fixture
    def spies(self, monkeypatch):
        import gc

        import repro.mapreduce.executor as executor_mod

        calls = {"tables": 0, "freezes": 0}
        build, freeze = executor_mod.build_ref_table, gc.freeze

        def spy_build(objs):
            calls["tables"] += 1
            return build(objs)

        def spy_freeze():
            calls["freezes"] += 1
            freeze()

        monkeypatch.setattr(executor_mod, "build_ref_table", spy_build)
        monkeypatch.setattr(gc, "freeze", spy_freeze)
        return calls

    @pytest.mark.parametrize(
        "executor,workers", [("serial", 1), ("thread", 2), ("process", 1)]
    )
    def test_no_table_and_no_freeze_without_a_fork(self, spies, executor, workers):
        assert TestJoinMatrix.run_join(executor, workers)[0]
        assert spies == {"tables": 0, "freezes": 0}

    def test_forking_run_builds_one_table_per_job(self, spies):
        assert TestJoinMatrix.run_join("process", 2)[0]
        assert spies["tables"] == 2  # mark job + join job
        assert spies["freezes"] >= 4  # one per forked phase

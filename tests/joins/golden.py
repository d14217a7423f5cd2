"""Shared harness of the data-path golden suites.

Every suite runs join algorithms on a seeded Table-2-shaped workload
(Q2: a three-relation ``Overlap`` chain) under some configuration leg
and asserts that nothing outside the cluster can tell the leg from a
reference run: byte-identical part files, identical output tuples,
identical :class:`~repro.joins.base.JoinStats` counters (canonical
simulated seconds included) and identical workflow counters once the
telemetry a leg is allowed to add is set aside.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.experiments.common import derive_grid
from repro.experiments.workloads import synthetic_chain
from repro.joins.base import JoinResult
from repro.joins.registry import make_algorithm
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.engine import Cluster
from repro.query.predicates import Overlap
from repro.query.query import Query

SEED = 11

#: Output directory of each algorithm, by registry name.
OUTPUT_DIRS = {
    "cascade": "two-way-cascade/output",
    "all-rep": "all-replicate/output",
    "c-rep": "controlled-replicate/output",
    "c-rep-l": "controlled-replicate-limit/output",
}

#: (executor, workers) legs of the executor axis.
EXECUTORS = [("serial", 1), ("thread", 2), ("process", 2)]

#: Telemetry a memory budget adds: spill counters, plus the attempt
#: counters a budgeted task may carry.
SPILL_TELEMETRY = ("task_", "speculative_", "spill", "skipped_")


class GoldenRun(NamedTuple):
    #: part file path -> its lines, for the algorithm's output directory
    snapshot: dict[str, tuple[str, ...]]
    result: JoinResult
    dfs: InMemoryDFS

    @property
    def counters(self) -> dict[str, dict[str, int]]:
        return self.result.workflow.counters.as_dict()


def chain_workload(n_per_relation: int, space_side: float):
    return synthetic_chain(
        n_per_relation, space_side, names=("R1", "R2", "R3"), seed=SEED
    )


def run_join(workload, algorithm_name: str, **cluster_kwargs: Any) -> GoldenRun:
    """One full join on a fresh ``Cluster(**cluster_kwargs)``."""
    query = Query.chain(["R1", "R2", "R3"], Overlap())
    grid = derive_grid(workload.datasets)
    cluster = Cluster(**cluster_kwargs)
    algorithm = make_algorithm(algorithm_name, query=query, d_max=workload.d_max)
    result = algorithm.run(query, workload.datasets, grid, cluster)
    snapshot = {
        path: tuple(cluster.dfs.read_file(path))
        for path in cluster.dfs.resolve(OUTPUT_DIRS[algorithm_name])
    }
    return GoldenRun(snapshot, result, cluster.dfs)


def join_counters(stats) -> dict[str, Any]:
    """Every JoinStats field that must not depend on the leg
    (wall_clock_seconds is real time and legitimately varies)."""
    return {
        "simulated_seconds": stats.simulated_seconds,
        "shuffled_records": stats.shuffled_records,
        "rectangles_marked": stats.rectangles_marked,
        "rectangles_after_replication": stats.rectangles_after_replication,
        "output_tuples": stats.output_tuples,
        "job_seconds": stats.job_seconds,
    }


def spill_counters(run: GoldenRun) -> dict[str, int]:
    return {k: v for k, v in run.counters["engine"].items() if k.startswith("spill")}


def strip_telemetry(counters: dict, prefixes: tuple[str, ...]) -> dict:
    """``counters`` minus every counter whose name starts with a prefix."""
    return {
        group: {
            name: value
            for name, value in names.items()
            if not name.startswith(prefixes)
        }
        for group, names in counters.items()
    }


def assert_same_output(
    run: GoldenRun, ref: GoldenRun, telemetry: tuple[str, ...] = ()
) -> None:
    """``run`` is indistinguishable from ``ref`` outside ``telemetry``."""
    # Part files: same names, byte-identical content.
    assert run.snapshot == ref.snapshot
    assert run.result.tuples == ref.result.tuples
    assert join_counters(run.result.stats) == join_counters(ref.result.stats)
    assert strip_telemetry(run.counters, telemetry) == strip_telemetry(
        ref.counters, telemetry
    )


def assert_nonempty(run: GoldenRun) -> None:
    """Guard the guard: an empty reference would make the equivalence
    assertions vacuously true."""
    assert run.result.tuples
    assert any(lines for lines in run.snapshot.values())

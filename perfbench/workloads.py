"""The benchmark's workloads: inputs from a seed, queries, and their checks.

Every workload is a closed loop with one client in one process: an
iteration runs the workload's queries (one query = one algorithm run)
back to back, and the next iteration starts when the previous one has
finished.  The inputs come from the program's own generators
(``repro.experiments.workloads``) called with the benchmark's seed; the
program receives only the generated relations.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.common import derive_grid
from repro.experiments.workloads import dense_corner_chain, synthetic_chain
from repro.joins.base import JoinResult
from repro.joins.registry import make_algorithm
from repro.mapreduce.cost import CostModel
from repro.mapreduce.counters import C
from repro.mapreduce.engine import Cluster
from repro.mapreduce.executor import default_workers
from repro.mapreduce.faults import RetryPolicy
from repro.mapreduce.localfs import LocalFSDFS
from repro.query.predicates import Overlap, Range
from repro.query.query import Query

#: relation names of every chain (slot order)
SLOTS = ("R1", "R2", "R3")
#: rectangles per relation in the set-up's warm-up query
WARMUP_RECTS = 500
#: engine counters that must not depend on executor or robustness planes
CANONICAL_ENGINE = (
    C.MAP_INPUT_RECORDS, C.MAP_OUTPUT_RECORDS, C.MAP_OUTPUT_BYTES,
    C.COMBINE_INPUT_RECORDS, C.COMBINE_OUTPUT_RECORDS,
    C.REDUCE_INPUT_GROUPS, C.REDUCE_INPUT_RECORDS, C.REDUCE_OUTPUT_RECORDS,
    C.REDUCE_COMPUTE_OPS, C.MAP_COMPUTE_OPS, C.DFS_BYTES_READ, C.DFS_BYTES_WRITTEN,
)
GENERATORS = {"synthetic_chain": synthetic_chain, "dense_corner_chain": dense_corner_chain}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str
    #: generator keyword arguments (the seed is added per run)
    params: dict
    #: predicate distance per chain edge: 0 = Overlap, d > 0 = Range(d)
    distances: tuple[float, ...]
    algorithms: tuple[str, ...]
    executor: str = "serial"
    #: retry policy, memory budget, block replication and a LocalFSDFS
    #: root — the robustness planes, with no fault ever injected
    durable: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="table2-q2",
            why=(
                "Paper Table 2 row 1: synthetic_chain n=4000 side=6300, 3-way Overlap "
                "chain; cascade, all-rep, c-rep, c-rep-l on serial executor, in-memory "
                "DFS; compute-bound"
            ),
            generator="synthetic_chain",
            params={"n": 4000, "space_side": 6300.0},
            distances=(0.0, 0.0),
            algorithms=("cascade", "all-rep", "c-rep", "c-rep-l"),
        ),
        Workload(
            name="chain64k-process",
            why=(
                "synthetic_chain n=64000 side=25200 (Table 2 density), Overlap chain, "
                "c-rep on the process executor with nproc workers: IPC, parent-side "
                "writes, mark reduce at scale"
            ),
            generator="synthetic_chain",
            params={"n": 64000, "space_side": 25200.0},
            distances=(0.0, 0.0),
            algorithms=("c-rep",),
            executor="process",
        ),
        Workload(
            name="durable-skew",
            why=(
                "dense_corner_chain n=4000 side=6300 dense=0.25 corner=0.25, Ov+Ra(50) "
                "chain; c-rep, c-rep-l with retry(4), 256KiB budget, replication 2, "
                "LocalFSDFS; no faults"
            ),
            generator="dense_corner_chain",
            params={
                "n": 4000, "space_side": 6300.0,
                "dense_fraction": 0.25, "corner_fraction": 0.25,
            },
            distances=(0.0, 50.0),
            algorithms=("c-rep", "c-rep-l"),
            durable=True,
        ),
    )
}


@dataclass
class Plan:
    """Generated inputs plus everything built once per set-up."""

    workload: Workload
    datasets: dict
    grid: object
    query: Query
    algorithms: dict
    cost_model: CostModel
    workers: int
    d_max: float
    paper_scale: float


def build(workload: Workload, seed: int) -> Plan:
    """Generate the inputs from ``seed`` and build the join plan objects."""
    generated = GENERATORS[workload.generator](**workload.params, names=SLOTS, seed=seed)
    return _plan(workload, generated.datasets, generated.d_max, generated.paper_scale)


def _plan(workload: Workload, datasets, d_max: float, paper_scale: float) -> Plan:
    query = Query.chain(list(SLOTS), [Range(d) if d else Overlap() for d in workload.distances])
    return Plan(
        workload=workload,
        datasets=datasets,
        grid=derive_grid(datasets),
        query=query,
        algorithms={
            name: make_algorithm(name, query=query, d_max=d_max)
            for name in workload.algorithms
        },
        cost_model=CostModel.scaled(paper_scale),
        workers=default_workers() if workload.executor == "process" else 1,
        d_max=d_max,
        paper_scale=paper_scale,
    )


def new_cluster(plan: Plan, root: Path, *, executor: str | None = None,
                durable: bool | None = None) -> Cluster:
    """A fresh cluster in the workload's configuration.

    ``executor``/``durable`` override the workload's settings for the
    reference runs (serial speed-up leg, plain in-memory run).
    """
    workload = plan.workload
    executor = executor or workload.executor
    durable = workload.durable if durable is None else durable
    kwargs = {}
    if durable:
        if root.exists():
            shutil.rmtree(root)
        root.mkdir(parents=True)
        kwargs = {
            "dfs": LocalFSDFS(root),
            "retry": RetryPolicy(max_attempts=4),
            "memory_budget": 256 * 1024,
            "replication": 2,
        }
    return Cluster(
        cost_model=plan.cost_model,
        executor=executor,
        num_workers=plan.workers if executor == "process" else None,
        kernel="numpy",
        **kwargs,
    )


def warm_up(plan: Plan, root: Path) -> None:
    """Run the workload's queries once on a small sample of its inputs.

    Fills lazy imports and first-call caches and forks the executor's
    pools, so the timed loop starts warm; its cost belongs to set-up.
    """
    sample = {k: rects[:WARMUP_RECTS] for k, rects in plan.datasets.items()}
    small = _plan(plan.workload, sample, plan.d_max, plan.paper_scale)
    for i, algorithm in enumerate(small.algorithms.values()):
        algorithm.run(small.query, small.datasets, small.grid,
                      new_cluster(small, root / f"warm{i}"))


@dataclass
class Outcome:
    """What one query produced, reduced to what the checks compare."""

    tuples: set
    #: part files, canonical counters and simulated seconds, hashed
    fingerprint: str
    shuffled_records: int
    simulated_s: float
    job_results: list


def canonical_counters(result: JoinResult) -> dict:
    """The query's counters minus robustness telemetry (spill, retry, blocks)."""
    groups = result.workflow.counters.as_dict()
    engine = groups.pop(C.GROUP_ENGINE, {})
    groups[C.GROUP_ENGINE] = {k: engine[k] for k in CANONICAL_ENGINE if k in engine}
    return groups


def outcome(result: JoinResult, cluster: Cluster) -> Outcome:
    """Fingerprint a finished query (reads its part files; untimed)."""
    digest = hashlib.sha256()
    output = result.workflow.job_results[-1].output_path
    for path in cluster.dfs.list_dir(output):
        digest.update(path.encode())
        for line in cluster.dfs.read_side_file(path):
            digest.update(line.encode())
            digest.update(b"\n")
    digest.update(repr(sorted(
        (g, sorted(names.items())) for g, names in canonical_counters(result).items()
    )).encode())
    digest.update(repr(result.stats.simulated_seconds).encode())
    return Outcome(
        tuples=result.tuples,
        fingerprint=digest.hexdigest(),
        shuffled_records=result.stats.shuffled_records,
        simulated_s=result.stats.simulated_seconds,
        job_results=result.workflow.job_results,
    )

"""PR 6 perf trajectory: columnar numpy kernels vs the scalar path.

Three levels, all landing in ``BENCH_pr6.json`` (the CI benchmark job
runs this file with ``--benchmark-json=BENCH_pr6.json``):

* **Sweep microbenchmark** — the batched plane-sweep
  (:func:`~repro.kernels.sweep.sweep_pairs_batch`) against the scalar
  :func:`~repro.joins.sweep.sweep_pairs`, on identical inputs with the
  exact-order output contract asserted.
* **Probe microbenchmark** — one bulk
  :meth:`~repro.index.grid_index.GridIndex.probe_frontier` call against
  the equivalent per-query scalar ``search`` loop, hit-for-hit.
* **End-to-end** — a Table-2-sized Controlled-Replicate join on the
  serial executor, ``Cluster(kernel="numpy")`` against
  ``kernel="python"``, re-measured fresh on the same machine.  Output
  must be byte-identical and every cost-model counter unchanged; the
  wall-clocks and their ratio are recorded.

Timing floors are asserted only where the outcome is structural (the
batched kernels must not lose to the loops they replace); the ratios
are recorded, not gated, because shared CI runners are too noisy for a
hard wall-clock assertion.  Roughly half the end-to-end wall clock is
engine infrastructure (shuffle, codec, staging) shared by both kernels,
which bounds the whole-join ratio well below the kernel-level ones.
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.experiments.common import derive_grid
from repro.experiments.workloads import synthetic_chain
from repro.geometry.rectangle import Rect
from repro.index.grid_index import GridIndex
from repro.joins.registry import make_algorithm
from repro.joins.sweep import sweep_pairs
from repro.kernels.batch import RectBatch
from repro.kernels.sweep import sweep_pairs_batch
from repro.mapreduce.engine import Cluster
from repro.query.predicates import Overlap
from repro.query.query import Query

#: Table 2, row 1 shape (nI = 4000 stands for the paper's 1m rectangles).
TABLE2_N = 4_000
TABLE2_SIDE = 6_300.0

SWEEP_N = 50_000
SWEEP_SIDE = 50_000.0
PROBE_DATA_N = 20_000
PROBE_QUERY_N = 5_000


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _random_rects(
    n: int, seed: int = 11, side: float = TABLE2_SIDE, max_side: float = 40.0
) -> list[tuple[int, Rect]]:
    rng = random.Random(seed)
    return [
        (
            rid,
            Rect(
                rng.uniform(0, side),
                rng.uniform(1, side),
                rng.uniform(0.1, max_side),
                rng.uniform(0.1, max_side),
            ),
        )
        for rid in range(n)
    ]


# ----------------------------------------------------------------------
# Sweep microbenchmark
# ----------------------------------------------------------------------
def test_sweep_kernel_batch_vs_scalar(benchmark):
    """Batched plane-sweep vs the scalar sweep, identical output."""
    left = _random_rects(SWEEP_N, seed=3, side=SWEEP_SIDE, max_side=30.0)
    right = _random_rects(SWEEP_N, seed=5, side=SWEEP_SIDE, max_side=30.0)

    scalar_s = min(_timed(lambda: list(sweep_pairs(left, right))) for __ in range(3))
    batch_s = min(_timed(lambda: sweep_pairs_batch(left, right)) for __ in range(3))
    pairs = benchmark.pedantic(
        lambda: sweep_pairs_batch(left, right), rounds=1, iterations=1
    )

    benchmark.extra_info["n_per_side"] = SWEEP_N
    benchmark.extra_info["pairs"] = len(pairs)
    benchmark.extra_info["scalar_seconds"] = round(scalar_s, 4)
    benchmark.extra_info["batch_seconds"] = round(batch_s, 4)
    benchmark.extra_info["speedup"] = round(scalar_s / batch_s, 2)

    # Exact-twin contract: same pairs in the same order.
    assert pairs == list(sweep_pairs(left, right))
    # Structural: the batched kernel must not lose to the scalar loop.
    assert batch_s < scalar_s


# ----------------------------------------------------------------------
# Probe microbenchmark
# ----------------------------------------------------------------------
def test_grid_probe_frontier_vs_scalar(benchmark):
    """One bulk CSR frontier probe vs the per-query scalar search loop."""
    data = _random_rects(PROBE_DATA_N, seed=7)
    queries = _random_rects(PROBE_QUERY_N, seed=9)
    idx_py = GridIndex(pairs=data, kernel="python")
    idx_np = GridIndex(pairs=data, kernel="numpy")
    qbatch = RectBatch.from_pairs(queries)
    positions = np.arange(len(queries), dtype=np.int64)

    def scalar_probe():
        hits = []
        for qi, (__, q) in enumerate(queries):
            for e in idx_py.search(q, 0.0):
                hits.append((qi, e.payload))
        return hits

    def frontier_probe():
        parents, entries = idx_np.probe_frontier(qbatch, positions, 0.0)
        rid_rects = idx_np._rid_rects
        return [
            (int(p), rid_rects[int(e)][0]) for p, e in zip(parents, entries)
        ]

    scalar_s = min(_timed(scalar_probe) for __ in range(3))
    batch_s = min(_timed(frontier_probe) for __ in range(3))
    hits = benchmark.pedantic(frontier_probe, rounds=1, iterations=1)

    benchmark.extra_info["data_rects"] = PROBE_DATA_N
    benchmark.extra_info["queries"] = PROBE_QUERY_N
    benchmark.extra_info["hits"] = len(hits)
    benchmark.extra_info["scalar_seconds"] = round(scalar_s, 4)
    benchmark.extra_info["batch_seconds"] = round(batch_s, 4)
    benchmark.extra_info["speedup"] = round(scalar_s / batch_s, 2)

    # Hit-for-hit identical, in query-major scan order.
    assert hits == scalar_probe()
    assert batch_s < scalar_s


# ----------------------------------------------------------------------
# End-to-end: numpy kernel vs python kernel
# ----------------------------------------------------------------------
def _run_crep(workload, *, kernel: str):
    query = Query.chain(["R1", "R2", "R3"], Overlap())
    grid = derive_grid(workload.datasets)
    cluster = Cluster(kernel=kernel)
    algorithm = make_algorithm("c-rep")
    started = time.perf_counter()
    result = algorithm.run(query, workload.datasets, grid, cluster)
    wall = time.perf_counter() - started
    output = {
        path: tuple(cluster.dfs.read_file(path))
        for path in cluster.dfs.resolve("controlled-replicate/output")
    }
    return wall, output, result.stats


def test_numpy_e2e_controlled_replicate(benchmark):
    workload = synthetic_chain(
        TABLE2_N, TABLE2_SIDE, names=("R1", "R2", "R3"), seed=11
    )

    # Min-of-3 per leg: one simulated join is ~1s wall, and shared
    # runners jitter more than the ratios under measurement.
    python_runs = [_run_crep(workload, kernel="python") for __ in range(3)]
    python_wall = min(w for w, __, __ in python_runs)
    __, python_output, python_stats = python_runs[0]

    numpy_runs = [
        benchmark.pedantic(
            lambda: _run_crep(workload, kernel="numpy"), rounds=1, iterations=1
        )
    ]
    numpy_runs += [_run_crep(workload, kernel="numpy") for __ in range(2)]
    numpy_wall = min(w for w, __, __ in numpy_runs)
    __, numpy_output, numpy_stats = numpy_runs[0]

    # Byte-identical final output and unchanged cost-model counters.
    assert numpy_output == python_output
    assert numpy_stats.simulated_seconds == python_stats.simulated_seconds
    assert numpy_stats.shuffled_records == python_stats.shuffled_records
    assert numpy_stats.rectangles_marked == python_stats.rectangles_marked
    assert (
        numpy_stats.rectangles_after_replication
        == python_stats.rectangles_after_replication
    )
    assert numpy_stats.output_tuples == python_stats.output_tuples

    benchmark.extra_info["workload"] = f"table2-row1 nI={TABLE2_N}"
    benchmark.extra_info["kernel"] = "numpy"
    benchmark.extra_info["python_kernel_seconds"] = round(python_wall, 3)
    benchmark.extra_info["numpy_kernel_seconds"] = round(numpy_wall, 3)
    benchmark.extra_info["speedup_vs_python_kernel"] = round(
        python_wall / numpy_wall, 3
    )
    benchmark.extra_info["simulated_seconds"] = numpy_stats.simulated_seconds
    benchmark.extra_info["shuffled_records"] = numpy_stats.shuffled_records
    benchmark.extra_info["output_tuples"] = numpy_stats.output_tuples

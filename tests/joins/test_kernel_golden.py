"""Golden equivalence of the columnar kernel path.

The numpy kernel replaces per-record probes and predicate loops with
batched array operations; the engine contract is that nothing outside
the cluster can tell which kernel ran: byte-identical final DFS output,
identical canonical counters and identical simulated seconds, for every
algorithm and every executor back-end.

The reference for each algorithm is one forced ``kernel="python"``
serial run on a seeded Table-2-shaped workload; the numpy kernel is
then checked on the serial, thread and process executors against that
single golden snapshot — a 4 algorithms x 3 executors x 2 kernels
matrix.
"""

from __future__ import annotations

import pytest

from repro.joins.registry import ALGORITHMS

from .golden import EXECUTORS, assert_nonempty, assert_same_output, chain_workload, run_join

#: Reduced Table-2 shape: same generator/space/seed family as the
#: benchmarks, small enough to run 4 algorithms x 4 configurations.
N_PER_RELATION = 700
SPACE_SIDE = 6_300.0


@pytest.fixture(scope="module")
def workload():
    return chain_workload(N_PER_RELATION, SPACE_SIDE)


@pytest.fixture(scope="module")
def golden(workload):
    """Scalar-kernel serial run per algorithm: the reference the numpy
    kernel must reproduce exactly."""
    return {name: run_join(workload, name, kernel="python") for name in ALGORITHMS}


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
@pytest.mark.parametrize(("executor", "workers"), EXECUTORS)
def test_numpy_kernel_matches_python_kernel(
    workload, golden, algorithm_name, executor, workers
):
    run = run_join(
        workload, algorithm_name, kernel="numpy", executor=executor, num_workers=workers
    )
    assert_same_output(run, golden[algorithm_name])


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
def test_python_kernel_stable_across_executors(workload, golden, algorithm_name):
    """The scalar kernel itself must stay executor independent — this
    pins the other half of the matrix to the same golden snapshot."""
    for executor, workers in EXECUTORS[1:]:
        run = run_join(
            workload,
            algorithm_name,
            kernel="python",
            executor=executor,
            num_workers=workers,
        )
        assert_same_output(run, golden[algorithm_name])


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
def test_golden_output_is_nonempty(golden, algorithm_name):
    assert_nonempty(golden[algorithm_name])

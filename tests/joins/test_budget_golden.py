"""Golden equivalence under memory pressure (bounded-memory tentpole).

The acceptance contract: a ``memory_budget`` small enough to force
map-side spills in every algorithm changes *nothing canonical* — part
files byte-identical to the unbounded run, identical counters modulo
the new ``spill*`` telemetry, identical canonical simulated seconds —
on all three executors.  The external merge must therefore reproduce
the unbounded path's stable sort exactly, duplicate keys included.
"""

from __future__ import annotations

import pytest

from repro.joins.registry import ALGORITHMS

from .golden import (
    EXECUTORS,
    SPILL_TELEMETRY,
    assert_nonempty,
    assert_same_output,
    chain_workload,
    run_join,
    spill_counters,
)

N_PER_RELATION = 500
SPACE_SIDE = 5_300.0

#: Small enough that every algorithm's shuffle-heavy jobs spill several
#: runs per map task; large enough the suite stays fast.
BUDGET = 2_048


@pytest.fixture(scope="module")
def workload():
    return chain_workload(N_PER_RELATION, SPACE_SIDE)


@pytest.fixture(scope="module")
def golden(workload):
    """One unbounded serial run per algorithm."""
    return {name: run_join(workload, name) for name in ALGORITHMS}


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
@pytest.mark.parametrize(("executor", "workers"), EXECUTORS)
def test_spilling_changes_nothing(
    workload, golden, algorithm_name, executor, workers
):
    run = run_join(
        workload,
        algorithm_name,
        memory_budget=BUDGET,
        executor=executor,
        num_workers=workers,
    )
    # The pressure was real: the budget forced spills.
    spills = spill_counters(run)
    assert spills.get("spilled_records", 0) > 0
    assert spills.get("spill_files", 0) > 0
    # Canonical simulated seconds unchanged: spill I/O is charged to the
    # non-canonical spill_overhead_s bucket only.
    assert_same_output(run, golden[algorithm_name], SPILL_TELEMETRY)
    overhead = sum(r.cost.spill_overhead_s for r in run.result.workflow.job_results)
    assert overhead > 0.0


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
def test_golden_run_is_unspilled(golden, algorithm_name):
    """The unbounded reference must produce output and carry no spill
    telemetry at all (fast path untouched)."""
    assert_nonempty(golden[algorithm_name])
    assert not spill_counters(golden[algorithm_name])

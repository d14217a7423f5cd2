"""Golden equivalence of chaos x spilling x the numpy kernel.

Each robustness axis is individually golden-tested: absorbed task
faults (test_recovery_golden), worker loss (test_worker_failure_golden),
memory-budget spills crossed with the kernel plane
(test_spill_kernel_golden).  This suite pins the *triple* interaction:
Controlled-Replicate under a spill-forcing memory budget, on the numpy
kernel, with a fault plan that kills a task AND a whole worker — on
thread and process executors — must stay byte-identical to the clean
budgeted serial reference.  Spill telemetry in particular must not
move: spill points are a function of estimated record bytes, and
re-executed attempts replace (never add to) their task's counters.
"""

from __future__ import annotations

import pytest

from repro.mapreduce.faults import FaultPlan, RetryPolicy

from .golden import assert_same_output, chain_workload, run_join, spill_counters

N_PER_RELATION = 500
SPACE_SIDE = 5_300.0
#: forces several spill runs per map task at this workload size
BUDGET = 2_048

EXECUTORS = [("thread", 4), ("process", 4)]

#: A task failure plus a worker death whose committed map outputs must
#: be invalidated and re-executed (the reduce-phase death fires after
#: the map phase committed, in every job of the chain).
CHAOS = (
    FaultPlan()
    .fail_task("map", 0, attempt=0, job=None)
    .fail_worker("w1", phase="reduce", index=0, attempt=0, job=None)
)

#: Telemetry the chaotic run is allowed (required, even) to add on top
#: of the clean reference.  Spill counters are deliberately NOT here:
#: they must match the reference exactly.
_RECOVERY_PREFIXES = (
    "task_",
    "speculative_",
    "worker",
    "map_output_lost",
    "tasks_reexecuted",
    "watchdog_",
)


@pytest.fixture(scope="module")
def workload():
    return chain_workload(N_PER_RELATION, SPACE_SIDE)


def _run(workload, **cluster_kwargs):
    return run_join(
        workload, "c-rep", kernel="numpy", memory_budget=BUDGET, **cluster_kwargs
    )


@pytest.fixture(scope="module")
def golden(workload):
    """Clean budgeted numpy serial run: the reference the chaos legs
    must reproduce byte for byte."""
    return _run(workload)


@pytest.mark.parametrize(("executor", "workers"), EXECUTORS)
def test_chaos_spilled_numpy_leg_matches_clean_reference(
    workload, golden, executor, workers
):
    run = _run(
        workload,
        fault_plan=CHAOS,
        retry=RetryPolicy(max_attempts=3),
        executor=executor,
        num_workers=workers,
    )
    # Part files, join output, canonical simulated time (retries and
    # re-executions are charged to the non-canonical overhead terms)
    # and every counter but the recovery telemetry — spill counters
    # included: worker loss must not shift spill points.
    assert_same_output(run, golden, _RECOVERY_PREFIXES)
    assert spill_counters(golden).get("spilled_records", 0) > 0
    # ... and the chaos really happened: the worker died and its
    # committed map outputs were re-executed.
    eng = run.result.workflow.counters.engine
    assert eng("worker_failures") >= 1
    assert eng("map_output_lost") >= 1
    assert eng("tasks_reexecuted") >= 1
    assert eng("task_failures") >= 1


def test_reference_spills_but_carries_no_recovery_telemetry(golden):
    assert golden.result.tuples
    assert spill_counters(golden).get("spilled_records", 0) > 0
    assert not any(
        k.startswith(_RECOVERY_PREFIXES) for k in golden.counters["engine"]
    )

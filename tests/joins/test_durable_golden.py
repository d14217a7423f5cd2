"""Golden equivalence of the durable configuration on the fast path.

Retry, a spill-forcing memory budget and block replication on a
``LocalFSDFS`` are the robustness planes a Hadoop cluster always runs
with.  With no fault firing they must change nothing outside their own
telemetry, and they must not push the job off the columnar path: on the
numpy kernel every map task runs the batch mapper, and every leg stays
byte-identical to the unbounded scalar (``kernel="python"``) reference
on every executor.
"""

from __future__ import annotations

import pytest

from .golden import (
    EXECUTORS,
    SPILL_TELEMETRY,
    assert_nonempty,
    assert_same_output,
    chain_workload,
    run_join,
    spill_counters,
)
from repro.kernels import resolve_kernel
from repro.mapreduce import engine
from repro.mapreduce.faults import RetryPolicy
from repro.mapreduce.localfs import LocalFSDFS

N_PER_RELATION = 500
SPACE_SIDE = 5_300.0
#: forces several spill runs per map task at this workload size
BUDGET = 2_048
ALGORITHMS = ["c-rep", "c-rep-l", "all-rep"]

#: spill and attempt counters plus the storage plane's block telemetry
TELEMETRY = SPILL_TELEMETRY + ("block_", "blocks_", "replicas_", "locality_", "worker")


@pytest.fixture(scope="module")
def workload():
    return chain_workload(N_PER_RELATION, SPACE_SIDE)


@pytest.fixture(scope="module")
def references(workload):
    """The unbounded scalar reference of each algorithm."""
    return {name: run_join(workload, name, kernel="python") for name in ALGORITHMS}


@pytest.fixture
def map_paths(monkeypatch, tmp_path):
    """Log which map path ran each task; returns a reader of the log.

    The log is a file, so tasks on forked process-pool workers (which
    inherit the patched functions) report back too.
    """
    log = tmp_path / "map-paths.log"

    def spying(name, real):
        def spy(phase, index, *args):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{name}\t{phase.job.name}\t{index}\n")
            return real(phase, index, *args)

        return spy

    for name in ("_batch_map", "_scalar_map"):
        monkeypatch.setattr(engine, name, spying(name, getattr(engine, name)))

    def read() -> set[tuple[str, str, int]]:
        if not log.exists():
            return set()
        rows = (line.split("\t") for line in log.read_text().splitlines())
        return {(path, job, int(index)) for path, job, index in rows}

    return read


@pytest.mark.parametrize("executor, workers", EXECUTORS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_durable_leg_matches_reference_on_the_fast_path(
    workload, references, map_paths, tmp_path, algorithm, executor, workers
):
    run = run_join(
        workload,
        algorithm,
        executor=executor,
        num_workers=workers,
        retry=RetryPolicy(max_attempts=4),
        memory_budget=BUDGET,
        replication=2,
        dfs=LocalFSDFS(tmp_path / "dfs"),
    )
    ref = references[algorithm]
    assert_nonempty(ref)
    assert_same_output(run, ref, TELEMETRY)
    assert spill_counters(run).get("spilled_records", 0) > 0
    assert (tmp_path / "dfs" / "_blocks" / "placement.json").is_file()

    # Every map task of every job took the kernel's path: the batch
    # mapper on numpy, the scalar mapper only under a forced python
    # kernel -- never a silent fallback.
    path = "_batch_map" if resolve_kernel() == "numpy" else "_scalar_map"
    expected = {
        (path, job.job_name, index)
        for job in run.result.workflow.job_results
        for index in range(len(job.map_tasks))
    }
    assert expected
    assert map_paths() == expected

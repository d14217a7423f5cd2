"""The batch mapper under retry, skipping mode and memory budgets.

Retry and fault plans keep the batch mapper on.  An attempt that must
skip or poison records runs the scalar mapper, and a batch
mapper that raises has its split rerun through the scalar mapper in the
same attempt, which locates the bad record.  So skipping mode quarantines
exactly what the scalar path quarantines.  A batch mapper that fails
where the scalar mapper succeeds is a loud one-line ``JobError``.
"""

from __future__ import annotations

import pytest

from repro.errors import JobError
from repro.mapreduce.counters import C
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.engine import Cluster
from repro.mapreduce.faults import FaultPlan, RetryPolicy
from repro.mapreduce.job import MapReduceJob

#: a few 12-byte pairs: forces several spills per map task
BUDGET = 48


def _lines(bad_at: int | None = None) -> list[str]:
    lines = [f"{i % 5} v{i:03d}" for i in range(30)]
    if bad_at is not None:
        lines[bad_at] = "not-a-number v999"
    return lines


def _mapper(key, line, ctx):
    cell, value = line.split()
    ctx.emit(int(cell), value)


def _batch_mapper(split, ctx, batch):
    rows = [record.split() for __, __, record, __ in split]
    keys = [int(cell) for cell, __ in rows]
    values = [value for __, value in rows]
    sizes = [ctx.pair_nbytes(k, v) for k, v in zip(keys, values)]
    ctx.emit_batch(keys, [1] * len(keys), values, sizes)


def _reducer(key, values, ctx):
    ctx.emit(f"{key}\t{','.join(values)}")


def _job(batch_mapper=_batch_mapper) -> MapReduceJob:
    return MapReduceJob(
        name="batchjob",
        input_paths=["in"],
        output_path="out",
        mapper=_mapper,
        reducer=_reducer,
        num_reducers=3,
        batch_mapper=batch_mapper,
    )


def _run(kernel, lines, *, plan=None, retry=None, budget=None, job=None):
    cluster = Cluster(
        dfs=InMemoryDFS(),
        kernel=kernel,
        fault_plan=plan,
        retry=retry or RetryPolicy(),
        memory_budget=budget,
        split_records=10,
    )
    cluster.dfs.write_file("in", lines)
    result = cluster.run_job(job or _job())
    output = {
        path: cluster.dfs.read_file(path) for path in cluster.dfs.list_dir("out")
    }
    quarantine = {
        path: cluster.dfs.read_side_file(path)
        for path in cluster.dfs.list_dir("_quarantine")
    }
    return output, quarantine, result.counters.as_dict()


SKIPPING = RetryPolicy(max_attempts=4, max_skipped_records=2)


@pytest.mark.parametrize("budget", [None, BUDGET])
@pytest.mark.parametrize(
    "plan, bad_at",
    [
        (FaultPlan().poison_record(1, 4), None),  # injected poison record
        (None, 13),  # a record both mappers fail on
    ],
    ids=["poison-record", "genuine-failure"],
)
def test_skipping_matches_the_scalar_path(plan, bad_at, budget):
    lines = _lines(bad_at)
    scalar = _run("python", lines, plan=plan, retry=SKIPPING, budget=budget)
    batch = _run("numpy", lines, plan=plan, retry=SKIPPING, budget=budget)
    assert batch == scalar
    __, quarantine, counters = batch
    assert list(quarantine) == ["_quarantine/batchjob/map-00001"]
    assert counters["engine"][C.SKIPPED_RECORDS] == 1
    if budget is not None:
        assert counters["engine"][C.SPILLED_RECORDS] > 0


def test_batch_path_matches_scalar_without_faults():
    lines = _lines()
    assert _run("numpy", lines, retry=SKIPPING) == _run("python", lines, retry=SKIPPING)


def _batch_only_bug(split, ctx, batch):
    if any(lineno == 17 for __, lineno, __, __ in split):
        raise IndexError("columnar off-by-one\nsecond line")
    _batch_mapper(split, ctx, batch)


@pytest.mark.parametrize("retry", [RetryPolicy(), RetryPolicy(max_attempts=4)])
def test_batch_only_failure_is_a_one_line_job_error(retry, monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)  # needs the batch path
    with pytest.raises(JobError) as info:
        _run("numpy", _lines(), retry=retry, job=_job(_batch_only_bug))
    message = str(info.value)
    assert "\n" not in message
    assert (
        "batch mapper of job 'batchjob' failed on map task 1 where the "
        "scalar mapper succeeds: IndexError: columnar off-by-one second line"
    ) in message

"""The benchmark's own tests.

Run from the repository root (a few minutes; they run real workloads)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import layers
import oracle
import run
import spec
import workloads
from repro.experiments.workloads import dense_corner_chain, synthetic_chain
from repro.joins.base import MultiWayJoinAlgorithm
from repro.joins.reference import brute_force_join
from repro.query.predicates import Overlap, Range
from repro.query.query import Query

#: per-call delay of the slowed-layer check and the layer it slows
SLOW_LAYER = "blocks.crc32c"
SLOW_DELAY_S = 0.01


def measure(workload: str, seed: int, tmp_path, *, trace: bool = False, slow=None):
    bench = run.Run(workload, seed, 0.0, trace, slow=slow, work=tmp_path)
    return bench, bench.measure()


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the data dictionary
# ----------------------------------------------------------------------
def test_benchmark_json_matches_spec():
    data = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(data) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert data["command"] == ["python3", "perfbench/run.py"]
    assert data["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in data["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 for w in data["workloads"])
    assert data["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END]
    assert data["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER]
    setup = data["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == ("setup_s", "s", "lower")
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])


def test_every_self_time_span_has_a_metric():
    from probes import SPAN_NAMES

    assert set(SPAN_NAMES) | {"trace.unattributed"} == set(layers.SELF_METRIC)
    assert set(layers.SELF_METRIC.values()) <= set(spec.PER_LAYER_NAMES)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "generated, predicates",
    [
        (synthetic_chain(600, 1500.0, seed=3), [Overlap(), Overlap()]),
        (dense_corner_chain(500, 1500.0, dense_fraction=0.25, corner_fraction=0.25,
                            seed=5), [Overlap(), Range(50.0)]),
        (synthetic_chain(400, 1500.0, seed=4), [Range(30.0), Range(80.0)]),
    ],
)
def test_oracle_matches_brute_force(generated, predicates):
    query = Query.chain(list(workloads.SLOTS), predicates)
    expected = brute_force_join(query, generated.datasets)
    got = oracle.chain_join(
        [generated.datasets[s] for s in workloads.SLOTS], [p.distance for p in predicates])
    assert got == expected


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_every_query_passes_its_checks(workload, seed, tmp_path):
    __, result = measure(workload, seed, tmp_path)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS[workload].algorithms)
    assert set(result["metrics"]) == set(spec.END_TO_END_NAMES)
    assert all(v > 0 for v in result["metrics"].values())


def test_exact_metrics_repeat_from_run_to_run(tmp_path):
    first = [measure("table2-q2", 7, tmp_path)[1]["metrics"] for __ in range(2)]
    for name in ("shuffled_records", "simulated_s"):
        assert first[0][name] == first[1][name]


def test_a_wrong_answer_is_counted_as_failed(tmp_path, monkeypatch):
    collect = MultiWayJoinAlgorithm._collect_tuples

    def drop_one(cluster, output_path):
        tuples = collect(cluster, output_path)
        tuples.discard(min(tuples))
        return tuples

    monkeypatch.setattr(MultiWayJoinAlgorithm, "_collect_tuples", staticmethod(drop_one))
    __, result = measure("table2-q2", 1, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 4
    assert result["metrics"]["success_rate"] == 0.0


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def test_traced_run_reports_every_layer_and_sums_to_the_iteration(tmp_path):
    bench, result = measure("table2-q2", 1, tmp_path, trace=True)
    metrics = result["metrics"]
    assert set(metrics) == set(spec.PER_LAYER_NAMES)
    self_sum = sum(metrics[name] for name in layers.SELF_METRIC.values())
    assert math.isclose(self_sum, metrics["trace.iteration_s"], rel_tol=1e-9)
    assert metrics["trace.unattributed_s"] >= 0.0
    assert metrics["tracing.overhead"] > 0.0
    assert metrics["map.batch_ratio"] == 1.0
    assert not bench.probes.missing
    # probes are gone once the run ends
    from repro.mapreduce import blocks

    assert blocks.crc32c(b"123456789") == 0xE3069283
    assert blocks.crc32c.__module__ == "repro.mapreduce.blocks"


# ----------------------------------------------------------------------
# A fixed delay in one layer moves that layer and only the workload using it
# ----------------------------------------------------------------------
def test_slowed_layer_moves_only_the_workload_that_uses_it(tmp_path):
    slow = {SLOW_LAYER: SLOW_DELAY_S}
    base_bench, base = measure("durable-skew", 1, tmp_path, trace=True)
    slow_bench, slowed = measure("durable-skew", 1, tmp_path, trace=True, slow=slow)
    injected = slow_bench.tracer.counts["slow.calls"] * SLOW_DELAY_S
    assert injected > 1.0
    crc = "blocks.crc32c_s"
    assert slowed["metrics"][crc] - base["metrics"][crc] >= 0.9 * injected
    raw_delta = slow_bench.notes["raw_join_s"] - base_bench.notes["raw_join_s"]
    assert raw_delta >= 0.5 * injected
    assert slowed["correct"] and base["correct"]
    skew_change = slow_bench.notes["raw_join_s"] / base_bench.notes["raw_join_s"] - 1.0

    # table2-q2 never checksums a block: the delay never fires, and its
    # join_s moves by less than half as much as durable-skew's (host
    # noise between two single-iteration runs is the only difference)
    __, t2_base = measure("table2-q2", 1, tmp_path)
    t2_slow_bench, t2_slowed = measure("table2-q2", 1, tmp_path, slow=slow)
    assert t2_slow_bench.tracer.slowed == 0
    t2_change = t2_slowed["metrics"]["join_s"] / t2_base["metrics"]["join_s"] - 1.0
    assert t2_change < skew_change / 2


# ----------------------------------------------------------------------
# The command's contract
# ----------------------------------------------------------------------
def test_without_the_program_the_command_fails_cleanly(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(run.HERE, checkout / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", checkout / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2-q2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""Names, units and intent of every metric the benchmark reports.

This module is the benchmark's data dictionary.  ``BENCHMARK.json`` at
the repository root lists the same names and units (the subset of the
fields below that a benchmark runner reads); ``test_perfbench.py``
checks that the two agree.  For each per-layer metric the table records the program layer
it measures (a module under ``src/repro``), the end-to-end metric it
should move and the workloads on which it should move it, so a change
to one layer can state up front which numbers it expects to change.

Metric kinds:

* ``*_s`` span metrics are *self* times: a span's duration minus the
  time its child spans cover, summed over the spans of one traced
  iteration.  Together with ``trace.unattributed_s`` they add up to
  ``trace.iteration_s`` exactly.
* Counts read from ``JobResult`` counters are exact: they repeat from
  run to run on the same seed.
* On ``chain64k-process`` the map and reduce tasks run in forked
  workers, so spans and call counts inside tasks exist only on the
  parent side; worker compute time comes from the task walls in
  ``JobResult`` (the ``executor.*`` metrics).
"""

from __future__ import annotations

from typing import NamedTuple

ALL = ("table2-q2", "chain64k-process", "durable-skew")
T2, C64, SKEW = ALL


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: float
    description: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: program layer (module under src/repro) the metric measures
    layer: str
    #: end-to-end metric the layer metric should move
    moves: str
    #: workloads on which it should move it
    workloads: tuple[str, ...]


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median of 5 set-ups: data generation, grid and plan construction, "
        "cluster/executor/DFS construction and a warm-up query on a "
        "500-rect sample (stages data, forks pools)",
    ),
    EndToEnd("join_s", "ref_s", "lower", 0.25,
             "median host seconds per iteration (all queries of the workload), "
             "rescaled to the reference host speed by the calibration workload"),
    EndToEnd(
        "join_s_tail", "ref_s", "lower", 0.25,
        "highest percentile the iteration sample supports, p = 100*(1-1/n) "
        "of n iterations (printed beside the value), in reference seconds",
    ),
    EndToEnd("cpu_s", "ref_s", "lower", 0.25,
             "median CPU seconds per iteration, parent plus executor workers, "
             "in reference seconds"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "peak RSS of the parent plus the largest worker, read after the "
             "timed loop"),
    EndToEnd("shuffled_records", "count", "lower", 0.08,
             "map output records per iteration (exact, paper's communication cost)"),
    EndToEnd("simulated_s", "sim_s", "lower", 0.08,
             "canonical simulated seconds per iteration from the cost model "
             "(exact; model time, not host time)"),
    EndToEnd("success_rate", "ratio", "higher", 0.01,
             "1 - error_rate: queries whose tuples match the oracle and whose "
             "canonical counters match the reference, over queries attempted"),
)

PER_LAYER: tuple[PerLayer, ...] = (
    # -- trace bookkeeping --------------------------------------------------
    PerLayer("trace.iteration_s", "s", "lower", "perfbench", "join_s", ALL),
    PerLayer("trace.unattributed_s", "s", "lower", "perfbench", "join_s", ALL),
    PerLayer("tracing.overhead", "ratio", "lower", "perfbench", "join_s", ALL),
    PerLayer("calib.s", "s", "lower", "perfbench", "join_s", ALL),
    # -- mapreduce.engine ---------------------------------------------------
    PerLayer("engine.split_s", "s", "lower", "mapreduce.engine", "join_s", ALL),
    PerLayer("engine.map_s", "s", "lower", "mapreduce.engine", "join_s", ALL),
    PerLayer("engine.shuffle_s", "s", "lower", "mapreduce.engine", "join_s", ALL),
    PerLayer("engine.reduce_s", "s", "lower", "mapreduce.engine", "join_s", ALL),
    PerLayer("engine.write_s", "s", "lower", "mapreduce.engine", "join_s", ALL),
    PerLayer("engine.other_s", "s", "lower", "mapreduce.engine", "join_s", ALL),
    PerLayer("engine.job_self_s", "s", "lower", "mapreduce.engine", "join_s", ALL),
    PerLayer("engine.map_task_self_s", "s", "lower", "mapreduce.engine", "join_s",
             (T2, SKEW)),
    PerLayer("engine.reduce_task_self_s", "s", "lower", "mapreduce.engine", "join_s",
             (T2, SKEW)),
    PerLayer("crep.mark_reduce_s", "s", "lower", "joins.controlled", "join_s",
             (C64, SKEW)),
    PerLayer("crep.join_reduce_s", "s", "lower", "joins.controlled", "join_s",
             (C64, SKEW)),
    PerLayer("engine.map_input_records", "count", "lower", "mapreduce.engine",
             "shuffled_records", ALL),
    PerLayer("engine.map_output_bytes", "bytes", "lower", "mapreduce.engine",
             "simulated_s", ALL),
    PerLayer("engine.reduce_input_groups", "count", "lower", "mapreduce.engine",
             "simulated_s", ALL),
    PerLayer("engine.reduce_compute_ops", "count", "lower", "mapreduce.engine",
             "simulated_s", ALL),
    PerLayer("engine.dfs_bytes_read", "bytes", "lower", "mapreduce.engine",
             "simulated_s", ALL),
    PerLayer("engine.dfs_bytes_written", "bytes", "lower", "mapreduce.engine",
             "simulated_s", ALL),
    # -- mapreduce.executor -------------------------------------------------
    PerLayer("executor.phase_self_s", "s", "lower", "mapreduce.executor", "join_s",
             (C64,)),
    PerLayer("executor.map_busy_s", "s", "lower", "mapreduce.executor", "cpu_s",
             (C64,)),
    PerLayer("executor.reduce_busy_s", "s", "lower", "mapreduce.executor", "cpu_s",
             (C64,)),
    PerLayer("executor.map_efficiency", "ratio", "higher", "mapreduce.executor",
             "join_s", (C64,)),
    PerLayer("executor.reduce_efficiency", "ratio", "higher", "mapreduce.executor",
             "join_s", (C64,)),
    PerLayer("executor.unpack_s", "s", "lower", "mapreduce.executor", "join_s",
             (C64,)),
    PerLayer("executor.result_bytes", "bytes", "lower", "mapreduce.executor",
             "join_s", (C64,)),
    PerLayer("executor.speedup_vs_serial", "ratio", "higher", "mapreduce.executor",
             "join_s", (C64,)),
    # -- mapreduce.job / mapreduce.spill -------------------------------------
    PerLayer("spill.records", "count", "lower", "mapreduce.spill", "join_s", (SKEW,)),
    PerLayer("spill.bytes", "bytes", "lower", "mapreduce.spill", "peak_rss_mb",
             (SKEW,)),
    PerLayer("spill.files", "count", "lower", "mapreduce.spill", "join_s", (SKEW,)),
    PerLayer("spill.emit_calls", "count", "lower", "mapreduce.job", "join_s",
             (SKEW,)),
    PerLayer("spill.emit_batch_s", "s", "lower", "mapreduce.job", "join_s", (SKEW,)),
    PerLayer("spill.merge_s", "s", "lower", "mapreduce.spill", "join_s", (SKEW,)),
    # -- mapreduce.faults ---------------------------------------------------
    PerLayer("faults.dispatch_s", "s", "lower", "mapreduce.faults", "join_s",
             (SKEW,)),
    PerLayer("faults.attempts_per_task", "ratio", "lower", "mapreduce.faults",
             "join_s", (SKEW,)),
    # -- map path provenance (joins.* mappers) -------------------------------
    PerLayer("map.batch_calls", "count", "higher", "joins.controlled", "join_s",
             (T2, SKEW)),
    PerLayer("map.scalar_calls", "count", "lower", "joins.controlled", "join_s",
             (T2, SKEW)),
    PerLayer("map.batch_ratio", "ratio", "higher", "joins.controlled", "join_s",
             (T2, SKEW)),
    # -- mapreduce.blocks / placement ----------------------------------------
    PerLayer("blocks.crc32c_s", "s", "lower", "mapreduce.blocks", "join_s", (SKEW,)),
    PerLayer("blocks.crc32c_bytes", "bytes", "lower", "mapreduce.blocks", "join_s",
             (SKEW,)),
    PerLayer("blocks.on_write_s", "s", "lower", "mapreduce.blocks", "join_s",
             (SKEW,)),
    PerLayer("blocks.read_s", "s", "lower", "mapreduce.blocks", "join_s", (SKEW,)),
    PerLayer("blocks.locality_hit_ratio", "ratio", "higher", "mapreduce.placement",
             "join_s", (SKEW,)),
    # -- mapreduce.dfs / localfs --------------------------------------------
    PerLayer("dfs.write_s", "s", "lower", "mapreduce.localfs", "join_s", (SKEW,)),
    PerLayer("dfs.read_s", "s", "lower", "mapreduce.localfs", "join_s", (SKEW,)),
    # -- data.io codecs -----------------------------------------------------
    PerLayer("codec.encode_s", "s", "lower", "data.io", "join_s", (SKEW,)),
    PerLayer("codec.decode_s", "s", "lower", "data.io", "join_s", ALL),
    PerLayer("codec.records", "count", "lower", "data.io", "setup_s", ALL),
    # -- grid + kernels.transforms (routing) ---------------------------------
    PerLayer("routing.s", "s", "lower", "kernels.transforms", "join_s", (T2,)),
    PerLayer("routing.fanout", "ratio", "lower", "grid.transforms",
             "shuffled_records", (T2,)),
    # -- index --------------------------------------------------------------
    PerLayer("index.build_s", "s", "lower", "index.grid_index", "join_s", (T2, C64)),
    PerLayer("index.probe_s", "s", "lower", "index.grid_index", "join_s", (T2, C64)),
    PerLayer("index.probe_calls", "count", "lower", "index.grid_index", "join_s",
             (T2, C64)),
    # -- joins.marking ------------------------------------------------------
    PerLayer("marking.select_s", "s", "lower", "joins.marking", "join_s",
             (C64, SKEW)),
    PerLayer("marking.marked_ratio", "ratio", "lower", "joins.marking",
             "shuffled_records", (C64, SKEW)),
    # -- joins.local --------------------------------------------------------
    PerLayer("local.enumerate_s", "s", "lower", "joins.local", "join_s", (T2,)),
    PerLayer("local.candidate_checks", "count", "lower", "joins.local", "join_s",
             (T2,)),
    PerLayer("local.results_per_check", "ratio", "higher", "joins.local", "join_s",
             (T2,)),
    PerLayer("local.frontier_ratio", "ratio", "higher", "joins.local", "join_s",
             (T2,)),
    # -- joins.dedup --------------------------------------------------------
    PerLayer("dedup.kept_ratio", "ratio", "higher", "joins.dedup", "join_s", (T2,)),
    # -- joins.cascade ------------------------------------------------------
    PerLayer("cascade.intermediate_records", "count", "lower", "joins.cascade",
             "join_s", (T2,)),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}

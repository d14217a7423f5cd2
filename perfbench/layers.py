"""Per-layer metrics of one traced iteration.

Two sources, both read from outside the program:

* the span self times and counts :mod:`probes` recorded, and
* each job's ``JobResult``: phase walls, task walls and counters.

Every metric named in :data:`spec.PER_LAYER` is produced for every
workload; a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

from repro.mapreduce.counters import C

#: span name -> the self-time metric it feeds
SELF_METRIC = {
    "trace.unattributed": "trace.unattributed_s",
    "engine.job": "engine.job_self_s",
    "engine.map_task": "engine.map_task_self_s",
    "engine.reduce_task": "engine.reduce_task_self_s",
    "faults.dispatch": "faults.dispatch_s",
    "executor.phase": "executor.phase_self_s",
    "executor.unpack": "executor.unpack_s",
    "spill.emit_batch": "spill.emit_batch_s",
    "spill.merge": "spill.merge_s",
    "blocks.crc32c": "blocks.crc32c_s",
    "blocks.on_write": "blocks.on_write_s",
    "blocks.read": "blocks.read_s",
    "dfs.write": "dfs.write_s",
    "dfs.read": "dfs.read_s",
    "codec.encode": "codec.encode_s",
    "codec.decode": "codec.decode_s",
    "routing": "routing.s",
    "index.build": "index.build_s",
    "index.probe": "index.probe_s",
    "marking.select": "marking.select_s",
    "local.enumerate": "local.enumerate_s",
}

_PHASES = ("split_s", "map_s", "shuffle_s", "reduce_s", "write_s")
_ENGINE_COUNTS = (
    C.MAP_INPUT_RECORDS, C.MAP_OUTPUT_BYTES, C.REDUCE_INPUT_GROUPS,
    C.REDUCE_COMPUTE_OPS, C.DFS_BYTES_READ, C.DFS_BYTES_WRITTEN,
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _busy(walls) -> float:
    return sum(end - start for start, end in walls)


def iteration_metrics(
    traced_s: float,
    self_s: dict[str, float],
    counts: dict[str, float],
    queries: dict[str, list],
    workers: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``queries`` maps each algorithm to its ``JobResult`` list and
    ``workers`` is the executor's worker count.
    """
    m = {metric: self_s.get(span, 0.0) for span, metric in SELF_METRIC.items()}
    m["trace.iteration_s"] = traced_s
    jobs = [job for results in queries.values() for job in results]

    def engine(name: str) -> int:
        return sum(job.counters.engine(name) for job in jobs)

    for phase in _PHASES:
        m[f"engine.{phase}"] = sum(getattr(job.phases, phase) for job in jobs)
    m["engine.other_s"] = sum(job.wall_clock_seconds - job.phases.total_s for job in jobs)
    for name in _ENGINE_COUNTS:
        m[f"engine.{name}"] = engine(name)
    crep = [job for job in jobs if job.job_name.startswith("controlled-replicate")]
    m["crep.mark_reduce_s"] = sum(
        job.phases.reduce_s for job in crep if job.job_name.endswith("-mark"))
    m["crep.join_reduce_s"] = sum(
        job.phases.reduce_s for job in crep if job.job_name.endswith("-join"))

    # executor: worker-side busy time against phase wall x workers
    map_busy = sum(_busy(job.map_task_wall) for job in jobs)
    reduce_busy = sum(_busy(job.reduce_task_wall) for job in jobs)
    m["executor.map_busy_s"] = map_busy
    m["executor.reduce_busy_s"] = reduce_busy
    m["executor.map_efficiency"] = _ratio(map_busy, m["engine.map_s"] * workers)
    m["executor.reduce_efficiency"] = _ratio(reduce_busy, m["engine.reduce_s"] * workers)
    m["executor.result_bytes"] = counts.get("executor.result_bytes", 0.0)
    m["executor.speedup_vs_serial"] = 0.0  # set by the runner where measured

    # spill (counters) and the per-record emit replay (probe count)
    m["spill.records"] = engine(C.SPILLED_RECORDS)
    m["spill.bytes"] = engine(C.SPILL_BYTES)
    m["spill.files"] = engine(C.SPILL_FILES)
    m["spill.emit_calls"] = counts.get("spill.emit_calls", 0.0)

    tasks = sum(len(job.map_tasks) + len(job.reduce_tasks) for job in jobs)
    m["faults.attempts_per_task"] = _ratio(engine(C.TASK_ATTEMPTS), tasks)

    # map-path provenance: records through batch mappers against records
    # through their scalar twins (one scalar call maps one record)
    batch_records = counts.get("map.batch_calls_records", 0.0)
    m["map.batch_calls"] = counts.get("map.batch_calls", 0.0)
    m["map.scalar_calls"] = counts.get("map.scalar_calls", 0.0)
    m["map.batch_ratio"] = _ratio(batch_records, batch_records + m["map.scalar_calls"])

    m["blocks.crc32c_bytes"] = counts.get("blocks.crc32c_bytes", 0.0)
    hits, misses = engine(C.LOCALITY_HITS), engine(C.LOCALITY_MISSES)
    m["blocks.locality_hit_ratio"] = _ratio(hits, hits + misses)

    m["codec.records"] = counts.get("codec.records", 0.0)
    m["routing.fanout"] = _ratio(engine(C.MAP_OUTPUT_RECORDS), engine(C.MAP_INPUT_RECORDS))
    m["index.probe_calls"] = counts.get("index.probe_calls", 0.0)

    marked = sum(job.counters.get("join", "rectangles_marked") for job in crep)
    starts = sum(job.output_records for job in crep if job.job_name.endswith("-mark"))
    m["marking.marked_ratio"] = _ratio(marked, starts)

    checks = counts.get("local.candidate_checks", 0.0)
    m["local.candidate_checks"] = checks
    m["local.results_per_check"] = _ratio(counts.get("local.results", 0.0), checks)
    m["local.frontier_ratio"] = _ratio(
        counts.get("local.frontier_calls", 0.0), counts.get("local.calls", 0.0))

    # dedup: tuples the owner rule kept, over assignments enumerated, for
    # the algorithms whose reducers enumerate local joins
    enumerated = kept = 0.0
    for name, results in queries.items():
        found = counts.get("enumerated:" + name, 0.0)
        if found:
            enumerated += found
            kept += sum(job.counters.get("join", "output_tuples") for job in results)
    m["dedup.kept_ratio"] = _ratio(kept, enumerated)

    m["cascade.intermediate_records"] = sum(
        job.output_records for job in jobs
        if job.job_name.startswith("two-way-cascade-step")
        and not job.output_path.endswith("/output")
    )
    return m

"""Spans and counts recorded from outside the program, around layer calls.

:class:`Probes` wraps the public (and a few task-level) functions of
each layer *where the caller looks them up* — a module global, a class
attribute, or a module alias such as ``controlled._kt`` — and restores
the originals afterwards.  Nothing under ``src/`` is edited.

Each wrapper opens a span (name, start, end, parent span, iteration)
while :class:`Tracer` is recording, and feeds optional counters from
the call's arguments and result.  Spans nest through a stack, so a
span's *self* time — its duration minus its children's — is exact, and
the self times of one iteration sum to the iteration's wall time.

Calls made in forked executor workers pass straight through: spans
exist only on the parent side.  A wrapper may also carry a fixed delay
(``slow``), which is how the benchmark's own tests check that slowing
one layer moves that layer's self time and nothing else.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import types
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    """In-memory span recorder; one root span per traced iteration."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.recording = False
        #: (span id, parent id, name, start, end, iteration)
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self._stack: list[list] = []  # [span id, name, start, child time]
        self.iteration = -1
        #: per-iteration self seconds by span name
        self.self_s: dict[str, float] = defaultdict(float)
        #: per-iteration counts fed by probe observers
        self.counts: dict[str, float] = defaultdict(float)
        #: algorithm currently running (set by the benchmark loop)
        self.query = ""
        #: calls delayed by a slowed probe, traced or not, since creation
        self.slowed = 0

    def begin(self, iteration: int) -> None:
        self.iteration = iteration
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.recording = True
        self._stack = [[len(self.spans), "iteration", _perf(), 0.0]]

    def end(self) -> float:
        """Close the root span; returns the iteration's traced wall time."""
        sid, name, start, child = self._stack.pop()
        end = _perf()
        self.spans.append((sid, -1, name, start, end, self.iteration))
        self.self_s["trace.unattributed"] += end - start - child
        self.recording = False
        return end - start

    def open(self, name: str) -> None:
        self._stack.append([len(self.spans) + len(self._stack), name, _perf(), 0.0])

    def close(self) -> None:
        sid, name, start, child = self._stack.pop()
        end = _perf()
        dur = end - start
        parent = self._stack[-1]
        parent[3] += dur
        self.spans.append((sid, parent[0], name, start, end, self.iteration))
        self.self_s[name] += dur - child

    def write(self, path: str) -> None:
        """Dump every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, it in sorted(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "iteration": it,
                }) + "\n")


# ----------------------------------------------------------------------
# Observers: count what a call did, from its arguments and result.
# ----------------------------------------------------------------------
def _crc_bytes(tr, args, kwargs, result):
    tr.counts["blocks.crc32c_bytes"] += len(args[0])


def _unpacked_bytes(tr, args, kwargs, result):
    data, buffers = args[0]
    tr.counts["executor.result_bytes"] += len(data) + sum(len(b) for b in buffers)


def _coded(tr, args, kwargs, result):
    tr.counts["codec.records"] += len(result)


def _probe_call(tr, args, kwargs, result):
    tr.counts["index.probe_calls"] += 1


def _enumerated(tr, args, kwargs, result):
    if len(result) == 3:  # enumerate_columnar: (frontier, assignments, checks)
        frontier, rows, checks = result
        found = frontier.count if frontier is not None else len(rows)
    else:  # enumerate: (assignments, checks)
        frontier, (rows, checks) = None, result
        found = len(rows)
    if checks:
        tr.counts["local.calls"] += 1
        tr.counts["local.frontier_calls"] += frontier is not None
    tr.counts["local.candidate_checks"] += checks
    tr.counts["local.results"] += found
    tr.counts["enumerated:" + tr.query] += found


def _count_calls(counter: str, records: bool = False):
    """Wrap a mapper factory so the mappers it builds count their calls."""

    def wrap_factory(factory):
        def make(*args, **kwargs):
            mapper = factory(*args, **kwargs)
            tracer = make.tracer

            def counted(*margs, **mkw):
                if tracer.recording:
                    tracer.counts[counter] += 1
                    if records:
                        tracer.counts[counter + "_records"] += len(margs[0])
                return mapper(*margs, **mkw)

            return counted

        return make

    return wrap_factory


#: (span name or None for count-only, module, attribute path, options)
#: ``materialize`` turns a generator into a list inside the span so the
#: span covers the work.  That is exact only for callers that exhaust
#: the iterator: the routing mappers and the cascade reducer do, and the
#: early-exit ``GridIndex.search`` loops in marking and the local join
#: run only on the python kernel, which no workload uses.
PROBES: tuple[tuple, ...] = (
    ("engine.job", "repro.mapreduce.engine", "Cluster.run_job", {}),
    ("engine.map_task", "repro.mapreduce.engine", "_run_map_task", {}),
    ("engine.reduce_task", "repro.mapreduce.engine", "_run_reduce_task", {}),
    ("faults.dispatch", "repro.mapreduce.engine", "run_phase_with_recovery", {}),
    ("executor.phase", "repro.mapreduce.executor", "SerialExecutor.run_phase", {}),
    ("executor.phase", "repro.mapreduce.executor", "ProcessExecutor.run_phase", {}),
    ("executor.unpack", "repro.mapreduce.executor", "unpack_task_result",
     {"observe": _unpacked_bytes}),
    ("spill.emit_batch", "repro.mapreduce.job", "SpillingMapContext.emit_batch", {}),
    (None, "repro.mapreduce.job", "SpillingMapContext.emit", {"count": "spill.emit_calls"}),
    ("spill.merge", "repro.mapreduce.engine", "merge_runs", {}),
    ("blocks.crc32c", "repro.mapreduce.blocks", "crc32c", {"observe": _crc_bytes}),
    ("blocks.on_write", "repro.mapreduce.blocks", "BlockPlane.on_write", {}),
    ("blocks.read", "repro.mapreduce.blocks", "BlockPlane.read", {}),
    ("blocks.read", "repro.mapreduce.blocks", "BlockPlane.verify", {}),
    *(
        (span, module, f"{cls}.{method}", {})
        for module, cls in (
            ("repro.mapreduce.dfs", "InMemoryDFS"),
            ("repro.mapreduce.localfs", "LocalFSDFS"),
        )
        for span, method in (
            ("dfs.write", "write_file"),
            ("dfs.write", "write_records"),
            ("dfs.write", "write_side_file"),
            ("dfs.read", "read_file"),
            ("dfs.read", "read_side_file"),
            ("dfs.read", "charge_read"),
        )
    ),
    # bulk codec calls, on each class that defines its own
    *(
        ("codec.encode", "repro.data.io", f"{cls}.encode_lines", {"observe": _coded})
        for cls in ("RecordCodec", "RectCodec", "TaggedCodec", "TupleCodec")
    ),
    *(
        ("codec.decode", "repro.data.io", f"{cls}.decode_lines", {"observe": _coded})
        for cls in ("RecordCodec", "RectCodec")
    ),
    # typed records skip decode_lines between jobs; the result lines are
    # decoded when each algorithm collects its output tuples
    ("codec.decode", "repro.joins.base", "MultiWayJoinAlgorithm._collect_tuples",
     {"observe": _coded}),
    ("routing", "repro.joins.controlled", "split", {"materialize": True}),
    ("routing", "repro.joins.controlled", "replicate_f2", {"materialize": True}),
    ("routing", "repro.joins.all_replicate", "replicate_f1", {"materialize": True}),
    ("routing", "repro.joins.cascade", "split", {"materialize": True}),
    ("routing", "repro.joins.controlled", "_kt.overlap_cell_lists", {}),
    ("routing", "repro.joins.controlled", "_kt.cell_ids_of_starts", {}),
    ("routing", "repro.joins.controlled", "_kt.quadrant_cell_lists", {}),
    ("routing", "repro.joins.all_replicate", "_kt.quadrant_cell_lists", {}),
    ("index.build", "repro.joins.local", "make_index", {}),
    ("index.build", "repro.joins.marking", "make_index", {}),
    ("index.build", "repro.joins.cascade", "make_index", {}),
    *(
        ("index.probe", "repro.index.grid_index", f"GridIndex.{method}",
         {"observe": _probe_call, "materialize": method == "search"})
        for method in ("search", "search_batch", "probe_batch", "probe_frontier")
    ),
    ("marking.select", "repro.joins.marking", "MarkingEngine.select_marked", {}),
    ("local.enumerate", "repro.joins.local", "LocalJoiner.enumerate",
     {"observe": _enumerated}),
    ("local.enumerate", "repro.joins.local", "LocalJoiner.enumerate_columnar",
     {"observe": _enumerated}),
    *(
        (None, module, factory, {"factory": _count_calls(counter, records)})
        for module, factory, counter, records in (
            ("repro.joins.controlled", "_make_mark_mapper", "map.scalar_calls", False),
            ("repro.joins.controlled", "_make_route_mapper", "map.scalar_calls", False),
            ("repro.joins.all_replicate", "_make_mapper", "map.scalar_calls", False),
            ("repro.joins.controlled", "_make_mark_batch_mapper", "map.batch_calls", True),
            ("repro.joins.controlled", "_make_route_batch_mapper", "map.batch_calls", True),
            ("repro.joins.all_replicate", "_make_batch_mapper", "map.batch_calls", True),
        )
    ),
)

#: every span name a probe can open (plus the root's remainder)
SPAN_NAMES = tuple(dict.fromkeys(p[0] for p in PROBES if p[0] is not None))


def _wrap(tracer: Tracer, span, fn, options: dict, delay: float):
    observe = options.get("observe")
    counter = options.get("count")
    materialize = options.get("materialize", False)
    pid = tracer.pid
    sleep = time.sleep

    if counter is not None:
        def counted(*args, **kwargs):
            if tracer.recording:
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def spanned(*args, **kwargs):
        if not tracer.recording or os.getpid() != pid:
            if delay:
                sleep(delay)
                tracer.slowed += 1
            return fn(*args, **kwargs)
        tracer.open(span)
        try:
            if delay:
                sleep(delay)
                tracer.slowed += 1
                tracer.counts["slow.calls"] += 1
            result = fn(*args, **kwargs)
            if materialize:
                result = list(result)
        finally:
            tracer.close()
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return iter(result) if materialize else result

    return spanned


class Probes:
    """Installs the wrappers of :data:`PROBES` and restores the originals.

    ``slow`` maps span names to a fixed per-call delay in seconds.  A
    slowed probe stays installed in untraced iterations too (delaying
    but not recording), so the end-to-end metrics see the delay.
    """

    def __init__(self, tracer: Tracer, slow: dict[str, float] | None = None) -> None:
        self.tracer = tracer
        self.slow = dict(slow or {})
        unknown = set(self.slow) - set(SPAN_NAMES)
        if unknown:
            raise ValueError(f"unknown layers to slow: {sorted(unknown)}")
        #: probes whose target no longer exists in the program
        self.missing: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def install(self, record: bool) -> None:
        """Patch every probe (``record``) or only the slowed ones."""
        proxies: dict[tuple[str, str], types.ModuleType] = {}
        for span, module_name, path, options in PROBES:
            if not record and span not in self.slow:
                continue
            owner = importlib.import_module(module_name)
            parent, __, attr = path.rpartition(".")
            if parent:
                child = vars(owner).get(parent)
                if isinstance(child, types.ModuleType):
                    # A module alias (``_kt``): patch a private copy so
                    # only this caller's lookups see the wrapper.
                    key = (module_name, parent)
                    if key not in proxies:
                        proxies[key] = types.ModuleType(child.__name__)
                        proxies[key].__dict__.update(vars(child))
                        self._save(owner, parent)
                        setattr(owner, parent, proxies[key])
                    child = proxies[key]
                owner = child
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.missing.add(f"{module_name}:{path}")
                continue
            self._save(owner, attr)
            if "factory" in options:
                wrapped = options["factory"](raw)
                wrapped.tracer = self.tracer
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(_wrap(self.tracer, span, raw.__func__, options,
                                             self.slow.get(span, 0.0)))
            else:
                wrapped = _wrap(self.tracer, span, raw, options, self.slow.get(span, 0.0))
            setattr(owner, attr, wrapped)

    def _save(self, owner, attr: str) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

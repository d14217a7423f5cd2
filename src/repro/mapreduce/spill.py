"""Spill-run format and the reduce-side external merge.

Memory governance splits a map task's shuffle buffer into *runs*: when
the buffered bytes (measured by the job's :class:`ShuffleCodec` sizers,
the same accounting the canonical ``MAP_OUTPUT_BYTES`` counter uses)
exceed the task's budget, the buffered slice of every bucket is sorted
and written to the DFS as a side file; the final unspilled remainder
travels in the task result as before.

The determinism contract survives because of one invariant: the
unbounded reduce path orders a bucket by the stable sort
``(sort_key(key), global emission index)``, and within one map task the
bucket-local emission index ``seq`` is a monotone relabelling of the
global one.  Every run — spilled or resident — is therefore merged on
the key

    ``(sort_key(key), map_task_id, seq)``

which is unique per record (so sorting on it never compares the key or
value objects) and reproduces the stable sort exactly.  Byte-for-byte
part files, identical counters, identical canonical simulated seconds.

Spill files serialize one record per line as
``base64(pickle((seq, key, value)))`` — pickling because shuffle records
are arbitrary Python objects on the typed path, base64 because DFS lines
must stay newline-free text.
"""

from __future__ import annotations

import base64
import pickle
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "SpillRun",
    "SpillStore",
    "encode_spill_record",
    "decode_spill_record",
    "merge_runs",
    "sort_run",
    "spill_dir",
]


def spill_dir(job_name: str) -> str:
    """DFS directory holding a job's spill runs."""
    return f"_spill/{job_name}"


def encode_spill_record(seq: int, key: Any, value: Any) -> str:
    """One spill-file line: newline-free text for a ``(seq, key, value)``."""
    blob = pickle.dumps((seq, key, value), protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(blob).decode("ascii")


def decode_spill_record(line: str) -> tuple[int, Any, Any]:
    """Inverse of :func:`encode_spill_record`."""
    return pickle.loads(base64.b64decode(line.encode("ascii")))


@dataclass(slots=True)
class SpillRun:
    """One sorted run of a reducer's input.

    Either a spilled side file (``path`` set, ``count`` records, already
    sorted when written) or the map task's resident remainder
    (``records`` set — raw ``(key, value)`` pairs in emission order
    whose bucket-local sequence numbers start at ``base``).
    """

    task: int
    path: str | None = None
    count: int = 0
    records: list = field(default_factory=list)
    base: int = 0


@dataclass(slots=True)
class SpillStore:
    """A read-only snapshot of one job's spill side files.

    The engine writes every run to the DFS (durability — the files are
    inspectable until the job commits) and hands reduce tasks this
    snapshot instead: it exposes the one method the merge needs,
    :meth:`read_side_file`, and pickles at the size of the spilled data
    alone, so process-pool workers never serialize the whole DFS.
    """

    files: dict[str, list[str]] = field(default_factory=dict)

    def read_side_file(self, path: str) -> list[str]:
        return self.files[path]


def merge_runs(runs: list[SpillRun], dfs, sort_key) -> list[tuple[Any, Any]]:
    """Merge sorted runs back into stable-sort order with one sort.

    Every record is decorated with its unique merge key and the whole
    list is sorted once: timsort finds the presorted spilled runs and
    merges them, and because the key is unique the key and value
    objects are never compared.  Returns ``(key, value)`` pairs ordered
    exactly as ``_sorted_by_key`` would order the concatenated unbounded
    buckets — see the module docstring for why the merge key reproduces
    it.
    """
    decorated = []
    for run in runs:
        task = run.task
        if run.path is not None:
            for line in dfs.read_side_file(run.path):
                seq, key, value = decode_spill_record(line)
                decorated.append((sort_key(key), task, seq, key, value))
        else:
            # The resident remainder is in emission order.
            base = run.base
            decorated.extend(
                (sort_key(key), task, base + i, key, value)
                for i, (key, value) in enumerate(run.records)
            )
    decorated.sort()
    return [(key, value) for (__, __, __, key, value) in decorated]


def sort_run(records: list, base: int, sort_key) -> list[tuple[int, Any, Any]]:
    """Sort one buffered bucket slice for spilling.

    ``records`` are ``(key, value)`` pairs in emission order whose
    bucket-local sequence numbers start at ``base``; the result is
    ``(seq, key, value)`` in ``(sort_key(key), seq)`` order, ready for
    :func:`encode_spill_record`.
    """
    decorated = sorted(
        (sort_key(key), base + i) for i, (key, __) in enumerate(records)
    )
    return [
        (seq, records[seq - base][0], records[seq - base][1])
        for __, seq in decorated
    ]

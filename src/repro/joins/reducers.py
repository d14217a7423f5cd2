"""Shared map/reduce pieces of the one-shot join jobs.

All-Replicate's single reduce and Controlled-Replicate's second-round
reduce are the same computation: rebuild per-slot rectangle bags from the
shuffled values, enumerate the local multi-way join, and report only the
tuples this cell owns under the Section 6.2 rule.

Rectangles cross the shuffle as ``(dataset, rid, Rect)`` triples — the
:class:`~repro.geometry.rectangle.Rect` object itself, never flattened
to coordinates and rebuilt.  Byte accounting still reports the
string-era layout ``(dataset, rid, x, y, l, b)`` through
:data:`RECT_SHUFFLE_CODEC`, so shuffle volumes (and the simulated cost
derived from them) are identical to the seed.
"""

from __future__ import annotations

import numpy as np

from repro.data.io import encode_result
from repro.geometry.rectangle import Rect
from repro.grid.partitioning import GridPartitioning
from repro.joins.base import CNT_OUTPUT_TUPLES, JOIN_COUNTERS
from repro.joins.dedup import tuple_owner
from repro.joins.local import LocalJoiner
from repro.kernels import transforms as _kt
from repro.mapreduce.job import ReduceContext, ShuffleCodec
from repro.query.query import Query

__all__ = ["rect_value", "value_rect", "RECT_SHUFFLE_CODEC", "make_local_join_reducer"]


def rect_value(dataset: str, rid: int, rect: Rect) -> tuple:
    """The shuffle value carrying one tagged rectangle."""
    return (dataset, rid, rect)


def value_rect(value: tuple) -> tuple[str, int, Rect]:
    """Inverse of :func:`rect_value`."""
    return value


#: Sizes a ``(cell_id, rect_value(...))`` pair exactly like the generic
#: estimate sized the old flat tuple: int key -> 8; value -> 2 bytes of
#: framing + dataset name + five 8-byte numbers (rid and 4 coordinates).
RECT_SHUFFLE_CODEC = ShuffleCodec(
    key_size=lambda key: 8,
    value_size=lambda value: 42 + len(value[0]),
)


def make_local_join_reducer(
    query: Query, grid: GridPartitioning, joiner: LocalJoiner, kernel: str = "python"
):
    """Reducer: local multi-way join + owner-cell duplicate avoidance."""
    slot_order = query.slots
    columnar = kernel == "numpy"

    def reducer(cell_id: int, values, ctx: ReduceContext) -> None:
        by_dataset: dict[str, list[tuple[int, Rect]]] = {}
        for dataset, rid, rect in values:
            by_dataset.setdefault(dataset, []).append((rid, rect))
        rects_by_slot = {
            slot: by_dataset.get(query.dataset_of(slot), [])
            for slot in slot_order
        }
        if columnar:
            fr, assignments, ops = joiner.enumerate_columnar(rects_by_slot)
        else:
            fr = None
            assignments, ops = joiner.enumerate(rects_by_slot)
        ctx.add_compute(ops)
        if fr is not None:
            if not fr.count:
                return
            # Owner of every row at once straight from the frontier's
            # coordinate columns: tuple_owner is the cell of the
            # bottom-right-most start point (max x, min y).
            pos = fr.positions
            xs = np.maximum.reduce([fr.batches[s].x[pos[s]] for s in fr.slots])
            ys = np.minimum.reduce([fr.batches[s].y[pos[s]] for s in fr.slots])
            owners = _kt.rows_of_y(grid, ys) * grid.cols + _kt.cols_of_x(grid, xs)
            # Keep this cell's rows first, then format only those, in
            # frontier order.
            kept = np.flatnonzero(owners == cell_id)
            if kept.size:
                rid_cols = [
                    [fr.bags[s][p][0] for p in pos[s][kept].tolist()]
                    for s in slot_order
                ]
                lines = ["\t".join(map(str, row)) for row in zip(*rid_cols)]
                ctx.counter(JOIN_COUNTERS, CNT_OUTPUT_TUPLES, len(lines))
                ctx.emit_all(lines)
            return
        owners = None
        if columnar and len(assignments) >= 4:
            # tuple_owner for every assignment at once: owner of the
            # bottom-right-most start point (max x, min y).
            m = len(slot_order)
            flat = [
                c for a in assignments for __, r in a.values() for c in (r.x, r.y)
            ]
            coords = np.array(flat, dtype=np.float64).reshape(-1, m, 2)
            owners = (
                _kt.rows_of_y(grid, coords[:, :, 1].min(axis=1)) * grid.cols
                + _kt.cols_of_x(grid, coords[:, :, 0].max(axis=1))
            ).tolist()
        for k, assignment in enumerate(assignments):
            owner = (
                owners[k]
                if owners is not None
                else tuple_owner((r for __, r in assignment.values()), grid)
            )
            if owner != cell_id:
                continue
            ctx.counter(JOIN_COUNTERS, CNT_OUTPUT_TUPLES)
            ctx.emit(
                encode_result(
                    slot_order, {s: rid for s, (rid, __) in assignment.items()}
                )
            )

    return reducer

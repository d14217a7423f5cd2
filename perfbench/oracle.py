"""Independent whole-space evaluation of a chain query (the correctness oracle).

The join algorithms partition space into grid cells, replicate, and
deduplicate; this oracle does none of that.  It evaluates each edge of
the chain over the whole space with a sorted-x sweep in numpy, then
joins consecutive edges on their shared slot.  It shares no code with
``repro.joins`` — only the predicate semantics, which it reproduces
with the same floating-point expressions as
``repro.geometry.rectangle.Rect.intersects`` / ``within_distance`` so
exact-boundary pairs are decided identically.
"""

from __future__ import annotations

import numpy as np

#: query rects per sweep chunk (bounds the candidate arrays' memory)
_CHUNK = 2048
#: widening of the candidate window, far above the coordinates' rounding
#: error; the exact predicate decides every candidate
_SLACK = 1e-6


def columns(pairs) -> dict[str, np.ndarray]:
    """``[(rid, Rect), ...]`` as rid/x/y/l/b float columns."""
    rid = np.fromiter((r for r, __ in pairs), dtype=np.int64, count=len(pairs))
    xylb = np.array([(t.x, t.y, t.l, t.b) for __, t in pairs], dtype=np.float64)
    xylb = xylb.reshape(-1, 4)
    return {"rid": rid, "x": xylb[:, 0], "y": xylb[:, 1], "l": xylb[:, 2], "b": xylb[:, 3]}


def _holds(a, b, ia, ib, d: float) -> np.ndarray:
    """Vectorized ``Overlap`` (``d == 0``) or ``Range(d)`` on index pairs."""
    ax_min, ax_max = a["x"][ia], a["x"][ia] + a["l"][ia]
    ay_max, ay_min = a["y"][ia], a["y"][ia] - a["b"][ia]
    bx_min, bx_max = b["x"][ib], b["x"][ib] + b["l"][ib]
    by_max, by_min = b["y"][ib], b["y"][ib] - b["b"][ib]
    if d == 0.0:
        return (ax_min <= bx_max) & (bx_min <= ax_max) & (ay_min <= by_max) & (by_min <= ay_max)
    # Rect.within_distance: enlarged intersection both ways, then the
    # squared Euclidean gap.
    mask = np.ones(len(ia), dtype=bool)
    for p, q, ip, iq in ((a, b, ia, ib), (b, a, ib, ia)):
        ex_min = p["x"][ip] - d
        ex_max = ex_min + (p["l"][ip] + 2 * d)
        ey_max = p["y"][ip] + d
        ey_min = ey_max - (p["b"][ip] + 2 * d)
        qx_max = q["x"][iq] + q["l"][iq]
        qy_min = q["y"][iq] - q["b"][iq]
        mask &= (ex_min <= qx_max) & (q["x"][iq] <= ex_max)
        mask &= (ey_min <= q["y"][iq]) & (qy_min <= ey_max)
    dx = np.maximum(0.0, np.maximum(ax_min - bx_max, bx_min - ax_max))
    dy = np.maximum(0.0, np.maximum(ay_min - by_max, by_min - ay_max))
    return mask & (dx * dx + dy * dy <= d * d)


def edge_pairs(a, b, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Row index pairs ``(i, j)`` with ``pred(a[i], b[j])``, over all of space.

    ``b`` is bucketed into x columns of width ``max_len(b) + d`` and
    sorted by ``(column, y)``; each ``a`` row then scans, per column its
    x window touches, the contiguous run of ``b`` rows whose top edge
    lies in its y window.  The exact predicate decides every candidate.
    """
    if not len(a["x"]) or not len(b["x"]):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    reach_x = float(b["l"].max()) + d + _SLACK
    reach_y = float(b["b"].max()) + d + _SLACK
    x0 = float(b["x"].min())
    y0 = float(b["y"].min())
    span = float(b["y"].max()) - y0 + 1.0  # key distance between columns
    col_b = np.floor((b["x"] - x0) / reach_x)
    order = np.argsort(col_b * span + (b["y"] - y0), kind="stable")
    key = (col_b * span + (b["y"] - y0))[order]
    widest = float(a["l"].max()) + d + reach_x + _SLACK
    max_cols = int(np.ceil(widest / reach_x)) + 1
    out_i, out_j = [], []
    for lo in range(0, len(a["x"]), _CHUNK):
        ia = np.arange(lo, min(lo + _CHUNK, len(a["x"])))
        c_lo = np.floor((a["x"][ia] - reach_x - x0) / reach_x)
        c_hi = np.floor((a["x"][ia] + a["l"][ia] + d + _SLACK - x0) / reach_x)
        # b.y_max in [a.y_min - d, a.y_max + d + max_breadth(b)]
        y_lo = np.clip(a["y"][ia] - a["b"][ia] - d - _SLACK - y0, 0.0, span - 1.0)
        y_hi = np.clip(a["y"][ia] + reach_y - y0, 0.0, span - 1.0)
        for off in range(max_cols):
            col = c_lo + off
            live = col <= c_hi
            first = np.searchsorted(key, col * span + y_lo, side="left")
            last = np.searchsorted(key, col * span + y_hi, side="right")
            counts = np.where(live, np.maximum(last - first, 0), 0)
            total = int(counts.sum())
            if not total:
                continue
            rep_i = np.repeat(ia, counts)
            starts = np.repeat(first - np.cumsum(counts) + counts, counts)
            rep_j = order[starts + np.arange(total)]
            keep = _holds(a, b, rep_i, rep_j, d)
            out_i.append(rep_i[keep])
            out_j.append(rep_j[keep])
    if not out_i:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(out_i), np.concatenate(out_j)


def chain_join(relations: list, distances: list[float]) -> set[tuple[int, ...]]:
    """All rid tuples of the chain ``R1 p1 R2 p2 R3 ...``.

    ``relations`` are ``[(rid, Rect), ...]`` lists in slot order and
    ``distances[k]`` the predicate distance of edge ``k`` (0 = overlap).
    """
    cols = [columns(rel) for rel in relations]
    # partial tuples as row-index columns, one per bound slot
    i0, i1 = edge_pairs(cols[0], cols[1], distances[0])
    bound = [i0, i1]
    for k in range(1, len(relations) - 1):
        left, right = edge_pairs(cols[k], cols[k + 1], distances[k])
        order = np.argsort(left, kind="stable")
        left, right = left[order], right[order]
        tail = bound[-1]
        first = np.searchsorted(left, tail, side="left")
        last = np.searchsorted(left, tail, side="right")
        counts = last - first
        total = int(counts.sum())
        starts = np.repeat(first - np.cumsum(counts) + counts, counts)
        bound = [np.repeat(col, counts) for col in bound]
        bound.append(right[starts + np.arange(total)])
    rid_cols = [cols[k]["rid"][bound[k]].tolist() for k in range(len(relations))]
    return set(zip(*rid_cols))

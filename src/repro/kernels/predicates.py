"""Vectorized join-predicate masks.

``triple_mask`` is the columnar twin of ``Triple.holds_with``: it
evaluates one triple against a *fixed* partner rectangle for a whole
batch of candidate rectangles at once, returning a boolean mask.  Every
comparison is the scalar predicate's floating-point expression verbatim
(``Rect.intersects`` / ``Rect.within_distance`` /
``Rect.contains_rect``), evaluated elementwise — numpy float64
arithmetic is IEEE-754 double arithmetic, so each lane is bit-identical
to the scalar call.

Unknown predicate types return ``None``; callers must fall back to the
scalar path (the numpy kernel never guesses at semantics).
"""

from __future__ import annotations

import numpy as np

from repro.query.predicates import Contains, Overlap, Range

__all__ = ["supports_triples", "triple_mask", "pair_mask"]

_VECTORIZED = (Overlap, Range, Contains)


def supports_triples(triples) -> bool:
    """Whether every triple's predicate has a vectorized mask."""
    return all(type(t.predicate) in _VECTORIZED for t in triples)


def triple_mask(triple, slot, batch, idx, other):
    """``triple.holds_with(slot, batch[i], other)`` for every ``i`` in ``idx``.

    ``batch`` is a :class:`repro.kernels.batch.RectBatch` (the candidate
    side), ``idx`` an int array selecting rows, ``other`` a scalar
    ``Rect``.  Returns a bool array aligned with ``idx``, or ``None``
    when the predicate has no vectorized form.
    """
    p = triple.predicate
    kind = type(p)
    if kind is Overlap:
        # Rect.intersects: symmetric set of four closed comparisons.
        return (
            (batch.x_min[idx] <= other.x_max)
            & (other.x_min <= batch.x_max[idx])
            & (batch.y_min[idx] <= other.y_max)
            & (other.y_min <= batch.y_max[idx])
        )
    if kind is Range:
        return _range_mask(p.d, batch, idx, other)
    if kind is Contains:
        x_min = batch.x_min[idx]
        x_max = batch.x_max[idx]
        y_min = batch.y_min[idx]
        y_max = batch.y_max[idx]
        if slot == triple.left:
            # candidate contains other
            return (
                (x_min <= other.x_min)
                & (other.x_max <= x_max)
                & (y_min <= other.y_min)
                & (other.y_max <= y_max)
            )
        # other contains candidate
        return (
            (other.x_min <= x_min)
            & (x_max <= other.x_max)
            & (other.y_min <= y_min)
            & (y_max <= other.y_max)
        )
    return None


def pair_mask(triple, slot, batch_a, ia, batch_b, ib):
    """``triple.holds_with(slot, a_i, b_i)`` for aligned row pairs.

    The row-pair twin of :func:`triple_mask` for frontier evaluation:
    ``batch_a`` rows ``ia`` sit at ``slot`` (the candidate side),
    ``batch_b`` rows ``ib`` are the partner bindings; the index arrays
    align elementwise.  Returns a bool array, or ``None`` when the
    predicate has no vectorized form.
    """
    p = triple.predicate
    kind = type(p)
    a_x_min = batch_a.x_min[ia]
    a_x_max = batch_a.x_max[ia]
    a_y_min = batch_a.y_min[ia]
    a_y_max = batch_a.y_max[ia]
    b_x_min = batch_b.x_min[ib]
    b_x_max = batch_b.x_max[ib]
    b_y_min = batch_b.y_min[ib]
    b_y_max = batch_b.y_max[ib]
    if kind is Overlap:
        return (
            (a_x_min <= b_x_max)
            & (b_x_min <= a_x_max)
            & (a_y_min <= b_y_max)
            & (b_y_min <= a_y_max)
        )
    if kind is Range:
        d = p.d
        # Candidate enlarged by d vs partner (Rect._enlarged_intersects).
        ex_min = batch_a.x[ia] - d
        ex_max = ex_min + (batch_a.length[ia] + 2 * d)
        ey_max = batch_a.y[ia] + d
        ey_min = ey_max - (batch_a.breadth[ia] + 2 * d)
        m = (
            (ex_min <= b_x_max)
            & (b_x_min <= ex_max)
            & (ey_min <= b_y_max)
            & (b_y_min <= ey_max)
        )
        # Partner enlarged by d vs candidate.
        oex_min = batch_b.x[ib] - d
        oex_max = oex_min + (batch_b.length[ib] + 2 * d)
        oey_max = batch_b.y[ib] + d
        oey_min = oey_max - (batch_b.breadth[ib] + 2 * d)
        m &= (
            (oex_min <= a_x_max)
            & (a_x_min <= oex_max)
            & (oey_min <= a_y_max)
            & (a_y_min <= oey_max)
        )
        dx = np.maximum(np.maximum(a_x_min - b_x_max, b_x_min - a_x_max), 0.0)
        dy = np.maximum(np.maximum(a_y_min - b_y_max, b_y_min - a_y_max), 0.0)
        m &= dx * dx + dy * dy <= d * d
        return m
    if kind is Contains:
        if slot == triple.left:
            # candidate contains partner
            return (
                (a_x_min <= b_x_min)
                & (b_x_max <= a_x_max)
                & (a_y_min <= b_y_min)
                & (b_y_max <= a_y_max)
            )
        # partner contains candidate
        return (
            (b_x_min <= a_x_min)
            & (a_x_max <= b_x_max)
            & (b_y_min <= a_y_min)
            & (a_y_max <= b_y_max)
        )
    return None


def _range_mask(d, batch, idx, other):
    """``candidate.within_distance(other, d)`` elementwise.

    ``within_distance`` is symmetric expression-by-expression (both
    enlarged-intersection tests are required, and the gap formulas are
    order-independent), so no orientation branch is needed.
    """
    x_min = batch.x_min[idx]
    x_max = batch.x_max[idx]
    y_min = batch.y_min[idx]
    y_max = batch.y_max[idx]
    # Candidate enlarged by d vs other (Rect._enlarged_intersects).
    ex_min = batch.x[idx] - d
    ex_max = ex_min + (batch.length[idx] + 2 * d)
    ey_max = batch.y[idx] + d
    ey_min = ey_max - (batch.breadth[idx] + 2 * d)
    m = (
        (ex_min <= other.x_max)
        & (other.x_min <= ex_max)
        & (ey_min <= other.y_max)
        & (other.y_min <= ey_max)
    )
    # Other enlarged by d vs candidate.
    oex_min = other.x - d
    oex_max = oex_min + (other.l + 2 * d)
    oey_max = other.y + d
    oey_min = oey_max - (other.b + 2 * d)
    m &= (
        (oex_min <= x_max)
        & (x_min <= oex_max)
        & (oey_min <= y_max)
        & (y_min <= oey_max)
    )
    # Exact corner-gap test: max(0, ...) of the axis gaps, squared.
    dx = np.maximum(np.maximum(x_min - other.x_max, other.x_min - x_max), 0.0)
    dy = np.maximum(np.maximum(y_min - other.y_max, other.y_min - y_max), 0.0)
    m &= dx * dx + dy * dy <= d * d
    return m

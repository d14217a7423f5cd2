"""The rectangle (MBR) object model of the paper (Section 1.1).

A rectangle is represented as ``(x, y, l, b)`` where ``(x, y)`` are the
coordinates of the **top-left vertex** (also called the *start-point*),
``l`` is the length (extent along the x axis) and ``b`` the breadth
(extent along the y axis).  The y axis points *up*, so a rectangle spans

* ``x`` range ``[x, x + l]`` and
* ``y`` range ``[y - b, y]``.

Two geometric facts from this convention are load-bearing for the join
algorithms and are exercised heavily by the test-suite:

1. A rectangle extends only to the *right* and *down* from its
   start-point.  Hence every partition-cell a rectangle intersects lies in
   the 4th quadrant with respect to the cell containing its start-point.
   This is why *All-Replicate* and *Controlled-Replicate* replicate into
   the 4th quadrant and why the duplicate-avoidance point
   ``(u_r.x, u_l.y)`` is reachable by every member of an output tuple.
2. Intersection tests and minimum distances are computed on the *closed*
   extents: rectangles that merely touch are considered overlapping and
   have distance 0.  The paper does not state which convention it uses;
   the closed convention is the common one in the spatial-join literature
   and is what makes the filter step a superset of the refinement step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import GeometryError

__all__ = ["Rect"]


@dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned rectangle with a top-left start-point.

    Parameters
    ----------
    x, y:
        Coordinates of the top-left vertex (the *start-point*).
    l:
        Length: extent along the x axis, ``>= 0``.
    b:
        Breadth: extent along the y axis (downwards), ``>= 0``.

    Degenerate rectangles (``l == 0`` or ``b == 0``) are permitted: they
    model points and axis-parallel segments, which occur naturally as
    MBRs of point/segment spatial objects.
    """

    x: float
    y: float
    l: float
    b: float
    #: memoized ``repr(x),repr(y),repr(l),repr(b)`` — the canonical CSV
    #: coordinate form every line codec embeds.  Late-bound by the first
    #: encode (never seeded from decoded input text, whose spelling may
    #: differ from ``repr``), then reused: a rectangle crossing several
    #: job boundaries is formatted exactly once.
    _csv: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x, self.y, self.l, self.b)):
            raise GeometryError(f"rectangle coordinates must be finite, got {self!r}")
        if self.l < 0 or self.b < 0:
            raise GeometryError(f"rectangle sides must be non-negative, got {self!r}")

    # Compact pickling: a bare 4-float tuple instead of the slots-dict
    # state the dataclass machinery generates.  Rectangles dominate
    # cross-process task results, so dropping the per-instance field
    # dict (and the derivable ``_csv`` cache) measurably slims IPC.
    def __getstate__(self):
        return (self.x, self.y, self.l, self.b)

    def __setstate__(self, state) -> None:
        sa = object.__setattr__
        x, y, l, b = state
        sa(self, "x", x)
        sa(self, "y", y)
        sa(self, "l", l)
        sa(self, "b", b)
        sa(self, "_csv", None)

    # ------------------------------------------------------------------
    # Extent accessors
    # ------------------------------------------------------------------
    @property
    def x_min(self) -> float:
        """Left edge (equals the start-point x)."""
        return self.x

    @property
    def x_max(self) -> float:
        """Right edge."""
        return self.x + self.l

    @property
    def y_min(self) -> float:
        """Bottom edge."""
        return self.y - self.b

    @property
    def y_max(self) -> float:
        """Top edge (equals the start-point y)."""
        return self.y

    @property
    def start_point(self) -> tuple[float, float]:
        """The top-left vertex ``(x, y)`` used by Project and dedup rules."""
        return (self.x, self.y)

    @property
    def bottom_right(self) -> tuple[float, float]:
        """The bottom-right vertex ``(x + l, y - b)``."""
        return (self.x + self.l, self.y - self.b)

    @property
    def center(self) -> tuple[float, float]:
        """The center point of the rectangle."""
        return (self.x + self.l / 2.0, self.y - self.b / 2.0)

    @property
    def area(self) -> float:
        """Area ``l * b`` (0 for degenerate rectangles)."""
        return self.l * self.b

    @property
    def diagonal(self) -> float:
        """Euclidean length of the diagonal; the paper's ``d_max`` bounds this."""
        return math.hypot(self.l, self.b)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_corners(cls, x_min: float, y_min: float, x_max: float, y_max: float) -> "Rect":
        """Build a rectangle from its extent (inverse of the accessors)."""
        if x_max < x_min or y_max < y_min:
            raise GeometryError(
                f"empty extent: x [{x_min}, {x_max}], y [{y_min}, {y_max}]"
            )
        return cls(x=x_min, y=y_max, l=x_max - x_min, b=y_max - y_min)

    @classmethod
    def from_point(cls, x: float, y: float) -> "Rect":
        """A degenerate rectangle covering the single point ``(x, y)``."""
        return cls(x=x, y=y, l=0.0, b=0.0)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, px: float, py: float) -> bool:
        """Whether ``(px, py)`` lies inside the closed extent."""
        return self.x_min <= px <= self.x_max and self.y_min <= py <= self.y_max

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other``'s closed extent lies within this one."""
        return (
            self.x_min <= other.x_min
            and other.x_max <= self.x_max
            and self.y_min <= other.y_min
            and other.y_max <= self.y_max
        )

    def intersects(self, other: "Rect") -> bool:
        """Closed-extent intersection test: touching rectangles overlap.

        This is the paper's ``Overlap`` predicate on MBRs.
        """
        return (
            self.x_min <= other.x_max
            and other.x_min <= self.x_max
            and self.y_min <= other.y_max
            and other.y_min <= self.y_max
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping area as a rectangle, or ``None`` if disjoint.

        The start-point of the returned rectangle drives the 2-way-join
        duplicate-avoidance rule of Section 5.2; it is exact.  The sides
        are not: ``x_max - x_min`` rounds, and re-deriving a far edge
        from a rounded side can overshoot an input's edge by an ulp, so
        each side shrinks by ulps until the result lies inside both.
        """
        x_min = max(self.x_min, other.x_min)
        x_max = min(self.x_max, other.x_max)
        y_min = max(self.y_min, other.y_min)
        y_max = min(self.y_max, other.y_max)
        if x_max < x_min or y_max < y_min:
            return None
        l = x_max - x_min
        while x_min + l > x_max:
            l = math.nextafter(l, 0.0)
        b = y_max - y_min
        while y_max - b < y_min:
            b = math.nextafter(b, 0.0)
        return Rect(x_min, y_max, l, b)

    def min_distance(self, other: "Rect") -> float:
        """Minimum Euclidean distance between the two closed extents.

        Zero when the rectangles intersect.  This realises the paper's
        ``Range`` predicate: ``Range(r1, r2, d)`` holds iff
        ``r1.min_distance(r2) <= d``.
        """
        dx = max(0.0, self.x_min - other.x_max, other.x_min - self.x_max)
        dy = max(0.0, self.y_min - other.y_max, other.y_min - self.y_max)
        return math.hypot(dx, dy)

    def within_distance(self, other: "Rect", d: float) -> bool:
        """Whether the rectangles are within Euclidean distance ``d``.

        Defined to be *consistent with the routing tests*: the join
        algorithms route range candidates through enlarged-rectangle
        intersection (Section 5.3), so this predicate first applies the
        same enlarged test — evaluated with exactly the float
        expressions of :meth:`enlarge` — and only then the Euclidean
        check.  Without that, 1-ulp rounding differences at exact-``d``
        boundaries could let the predicate accept a pair the routing
        never brings together.
        """
        if d < 0:
            raise GeometryError(f"distance parameter must be non-negative, got {d}")
        if not self._enlarged_intersects(other, d) or not other._enlarged_intersects(
            self, d
        ):
            return False
        dx = max(0.0, self.x_min - other.x_max, other.x_min - self.x_max)
        dy = max(0.0, self.y_min - other.y_max, other.y_min - self.y_max)
        # Avoid the sqrt of min_distance on the hot path.
        return dx * dx + dy * dy <= d * d

    def _enlarged_intersects(self, other: "Rect", d: float) -> bool:
        """``self.enlarge(d).intersects(other)`` without the allocation.

        Bit-for-bit identical to the allocating form: the boundary
        expressions replicate :meth:`enlarge`'s arithmetic.
        """
        ex_min = self.x - d
        ex_max = ex_min + (self.l + 2 * d)
        ey_max = self.y + d
        ey_min = ey_max - (self.b + 2 * d)
        return (
            ex_min <= other.x_max
            and other.x_min <= ex_max
            and ey_min <= other.y_max
            and other.y_min <= ey_max
        )

    # ------------------------------------------------------------------
    # Transformations (Sections 5.3 and 7.8.6)
    # ------------------------------------------------------------------
    def enlarge(self, d: float) -> "Rect":
        """Enlarge by ``d`` units on every side (Section 5.3).

        The top-left vertex moves to ``(x - d, y + d)`` and the
        bottom-right vertex to ``(x + l + d, y - b - d)``.  A rectangle
        ``r2`` intersecting ``r1.enlarge(d)`` is a *necessary* condition
        for ``Range(r1, r2, d)`` (Chebyshev distance ``<= d``), but not
        sufficient: the corner regions admit pairs with Euclidean
        distance up to ``d * sqrt(2)``.
        """
        if d < 0:
            raise GeometryError(f"enlargement must be non-negative, got {d}")
        return Rect(x=self.x - d, y=self.y + d, l=self.l + 2 * d, b=self.b + 2 * d)

    def enlarge_by_factor(self, k: float) -> "Rect":
        """Scale both sides by factor ``k`` about the center (Section 7.8.6).

        Used to derive progressively denser variants of the California
        road data-set (Table 4).
        """
        if k <= 0:
            raise GeometryError(f"enlargement factor must be positive, got {k}")
        grow_x = self.l * (k - 1.0) / 2.0
        grow_y = self.b * (k - 1.0) / 2.0
        return Rect(
            x=self.x - grow_x,
            y=self.y + grow_y,
            l=self.l * k,
            b=self.b * k,
        )

    def translate(self, dx: float, dy: float) -> "Rect":
        """The rectangle moved by ``(dx, dy)``."""
        return Rect(x=self.x + dx, y=self.y + dy, l=self.l, b=self.b)

    def scale(self, factor: float) -> "Rect":
        """Scale position *and* size about the origin (workload re-scaling)."""
        if factor <= 0:
            raise GeometryError(f"scale factor must be positive, got {factor}")
        return Rect(
            x=self.x * factor, y=self.y * factor, l=self.l * factor, b=self.b * factor
        )

"""Unit tests for the rectangle object model (paper Section 1.1)."""

import math

import pytest

from repro.errors import GeometryError
from repro.geometry.rectangle import Rect


class TestConstruction:
    def test_basic_extent(self):
        r = Rect(x=10, y=80, l=30, b=20)
        assert r.x_min == 10
        assert r.x_max == 40
        assert r.y_max == 80  # the start-point is the TOP-left vertex
        assert r.y_min == 60

    def test_start_point_is_top_left(self):
        r = Rect(x=5, y=9, l=2, b=3)
        assert r.start_point == (5, 9)
        assert r.bottom_right == (7, 6)

    def test_degenerate_point(self):
        r = Rect.from_point(3, 4)
        assert r.area == 0
        assert r.contains_point(3, 4)
        assert not r.contains_point(3.1, 4)

    def test_degenerate_segment(self):
        r = Rect(x=0, y=0, l=10, b=0)
        assert r.area == 0
        assert r.diagonal == 10

    def test_negative_sides_rejected(self):
        with pytest.raises(GeometryError):
            Rect(x=0, y=0, l=-1, b=0)
        with pytest.raises(GeometryError):
            Rect(x=0, y=0, l=0, b=-0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(GeometryError):
            Rect(x=math.nan, y=0, l=1, b=1)
        with pytest.raises(GeometryError):
            Rect(x=0, y=math.inf, l=1, b=1)

    def test_from_corners_roundtrip(self):
        r = Rect.from_corners(1, 2, 5, 9)
        assert (r.x_min, r.y_min, r.x_max, r.y_max) == (1, 2, 5, 9)
        assert r.x == 1 and r.y == 9  # top-left

    def test_from_corners_empty_rejected(self):
        with pytest.raises(GeometryError):
            Rect.from_corners(5, 0, 1, 1)

    def test_frozen(self):
        r = Rect(0, 0, 1, 1)
        with pytest.raises(AttributeError):
            r.x = 5  # type: ignore[misc]

    def test_equality_and_hash(self):
        assert Rect(1, 2, 3, 4) == Rect(1, 2, 3, 4)
        assert len({Rect(1, 2, 3, 4), Rect(1, 2, 3, 4)}) == 1


class TestDerivedProperties:
    def test_center(self):
        assert Rect(0, 10, 4, 6).center == (2, 7)

    def test_area(self):
        assert Rect(0, 0, 3, 4).area == 12

    def test_diagonal(self):
        assert Rect(0, 0, 3, 4).diagonal == 5


class TestIntersection:
    def test_overlapping(self):
        a = Rect(0, 10, 6, 6)  # x [0,6], y [4,10]
        b = Rect(4, 8, 6, 6)  # x [4,10], y [2,8]
        assert a.intersects(b)
        inter = a.intersection(b)
        assert inter == Rect.from_corners(4, 4, 6, 8)

    def test_touching_edges_count_as_overlap(self):
        a = Rect(0, 10, 5, 5)
        b = Rect(5, 10, 5, 5)  # shares the x=5 edge
        assert a.intersects(b)
        inter = a.intersection(b)
        assert inter is not None and inter.area == 0

    def test_touching_corner_counts(self):
        a = Rect(0, 10, 5, 5)
        b = Rect(5, 5, 5, 5)  # touches only at (5, 5)
        assert a.intersects(b)

    def test_disjoint(self):
        a = Rect(0, 10, 2, 2)
        b = Rect(5, 10, 2, 2)
        assert not a.intersects(b)
        assert a.intersection(b) is None

    def test_containment(self):
        outer = Rect(0, 10, 10, 10)
        inner = Rect(2, 8, 2, 2)
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)
        assert outer.intersects(inner)
        assert outer.intersection(inner) == inner

    def test_intersection_start_point(self):
        # The start-point of the overlap area drives 2-way dedup (§5.2).
        a = Rect(0, 10, 8, 8)
        b = Rect(5, 7, 8, 8)
        inter = a.intersection(b)
        assert inter is not None
        assert inter.start_point == (5, 7)

    def test_rounded_side_stays_inside_both(self):
        # ``y_max - y_min`` rounds up here, so ``from_corners`` put the
        # bottom edge an ulp below ``a``'s (found by the property suite).
        a = Rect(0.0, 35121.118954464684, 0.0, 65537.0)
        b = Rect(0.0, 35121.0, 0.0, 65537.0)
        inter = a.intersection(b)
        assert inter.start_point == (0.0, 35121.0)
        assert a.contains_rect(inter) and b.contains_rect(inter)


class TestDistance:
    def test_zero_when_overlapping(self):
        a = Rect(0, 10, 5, 5)
        b = Rect(2, 9, 5, 5)
        assert a.min_distance(b) == 0

    def test_horizontal_gap(self):
        a = Rect(0, 10, 2, 2)
        b = Rect(7, 10, 2, 2)
        assert a.min_distance(b) == 5

    def test_vertical_gap(self):
        a = Rect(0, 10, 2, 2)  # y [8, 10]
        b = Rect(0, 5, 2, 2)  # y [3, 5]
        assert a.min_distance(b) == 3

    def test_diagonal_gap(self):
        a = Rect(0, 10, 2, 2)  # right edge x=2, bottom y=8
        b = Rect(5, 4, 2, 2)  # left edge x=5, top y=4
        assert a.min_distance(b) == 5  # hypot(3, 4)

    def test_symmetry(self):
        a = Rect(0, 10, 2, 2)
        b = Rect(9, 3, 4, 1)
        assert a.min_distance(b) == b.min_distance(a)

    def test_within_distance_closed(self):
        a = Rect(0, 10, 2, 2)
        b = Rect(7, 10, 2, 2)
        assert a.within_distance(b, 5.0)  # exactly at distance 5
        assert not a.within_distance(b, 4.999)

    def test_within_distance_negative_rejected(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, 1, 1).within_distance(Rect(5, 5, 1, 1), -1)


class TestEnlarge:
    def test_enlarge_by_d(self):
        # §5.3: top-left -> (x-d, y+d), bottom-right -> (x2+d, y2-d).
        r = Rect(10, 20, 4, 6)
        e = r.enlarge(3)
        assert e.start_point == (7, 23)
        assert e.bottom_right == (17, 11)

    def test_enlarge_zero_is_identity(self):
        r = Rect(1, 2, 3, 4)
        assert r.enlarge(0) == r

    def test_enlarge_negative_rejected(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, 1, 1).enlarge(-1)

    def test_enlarged_overlap_iff_chebyshev(self):
        # r2 intersects r1.enlarge(d) iff Chebyshev distance <= d.
        r1 = Rect(0, 10, 2, 2)
        r2 = Rect(5, 10, 2, 2)  # dx = 3, dy = 0
        assert r1.enlarge(3).intersects(r2)
        assert not r1.enlarge(2.9).intersects(r2)

    def test_enlarge_by_factor_keeps_center(self):
        r = Rect(10, 20, 4, 6)
        e = r.enlarge_by_factor(2.0)
        assert e.center == r.center
        assert e.l == 8 and e.b == 12

    def test_enlarge_by_factor_one_is_identity(self):
        r = Rect(1, 9, 3, 4)
        assert r.enlarge_by_factor(1.0) == r

    def test_enlarge_by_factor_shrink(self):
        r = Rect(0, 10, 4, 4)
        e = r.enlarge_by_factor(0.5)
        assert e.l == 2 and e.b == 2
        assert e.center == r.center

    def test_enlarge_by_factor_nonpositive_rejected(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, 1, 1).enlarge_by_factor(0.0)


class TestTransforms:
    def test_translate(self):
        assert Rect(1, 2, 3, 4).translate(10, -2) == Rect(11, 0, 3, 4)

    def test_scale(self):
        assert Rect(2, 4, 6, 8).scale(0.5) == Rect(1, 2, 3, 4)

    def test_scale_nonpositive_rejected(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, 1, 1).scale(-2)

"""Unit tests for the exact interval/arc primitives.

Expected values were frozen from independent oracles: a brute-force
membership grid for linear unions and direct corner-angle arithmetic for
angular hulls.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favlab.geometry import (MERGE_TOL, TWO_PI, CircularIntervalSet,
                             GeometryError, IntervalSet, Line, Point2, Square,
                             dist_point_line, hull_arcs_of_squares)
from favlab.geometry import _mod_two_pi


def grid_measure(pairs, lo=-5.0, hi=15.0, n=200_001):
    """Independent oracle: indicator integration on a uniform grid."""
    xs = np.linspace(lo, hi, n)
    ind = np.zeros(n, dtype=bool)
    for a, b in pairs:
        ind |= (xs >= a) & (xs <= b)
    return float(np.count_nonzero(ind)) * (hi - lo) / (n - 1)


class TestIntervalSet:
    def test_empty_insert(self):
        s = IntervalSet().insert(0.0, 1.0)
        assert s.intervals == [(0.0, 1.0)]
        assert s.measure() == 1.0

    def test_overlap_merge(self):
        s = IntervalSet.from_pairs([(0, 1)])
        s = s.insert(0.5, 2.0)
        assert s.intervals == [(0.0, 2.0)]
        assert s.measure() == 2.0

    def test_bridge_merge(self):
        s = IntervalSet.from_pairs([(0, 1), (2, 3)])
        s = s.insert(0.9, 2.1)
        assert s.intervals == [(0.0, 3.0)]
        assert s.measure() == 3.0
        # [DERIVED] grid oracle agreement
        assert abs(grid_measure(s.intervals) - 3.0) < 1e-3

    def test_rejects_bad_input(self):
        with pytest.raises(GeometryError):
            IntervalSet().insert(1.0, 0.5)
        with pytest.raises(GeometryError):
            IntervalSet().insert(0.0, float("inf"))
        with pytest.raises(GeometryError):
            IntervalSet.from_pairs([(0.0, 0.0)])

    def test_contains(self):
        s = IntervalSet.from_pairs([(0, 1), (2, 3)])
        assert s.contains(0.5) and s.contains(2.0) and s.contains(3.0)
        assert not s.contains(1.5) and not s.contains(-0.1)

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 200)),
                    min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_grid_oracle(self, raw):
        pairs = [(a / 100.0, (a + w) / 100.0) for a, w in raw]
        s = IntervalSet.from_pairs(pairs)
        # disjoint and sorted
        los = s.lo
        his = s.hi
        assert np.all(his > los)
        assert np.all(los[1:] > his[:-1])
        # grid step is 1e-4; each interval boundary contributes <= one cell
        assert abs(s.measure() - grid_measure(pairs)) < (2 * len(raw) + 2) * 1e-4

    @given(st.lists(st.tuples(st.integers(0, 500), st.integers(1, 100)),
                    min_size=1, max_size=20),
           st.integers(0, 500), st.integers(1, 100))
    @settings(max_examples=60, deadline=None)
    def test_insert_monotone_idempotent(self, raw, a, w):
        pairs = [(x / 50.0, (x + v) / 50.0) for x, v in raw]
        s = IntervalSet.from_pairs(pairs)
        t = s.insert(a / 50.0, (a + w) / 50.0)
        assert t.measure() >= s.measure() - 1e-12
        again = t.insert(a / 50.0, (a + w) / 50.0)
        assert abs(again.measure() - t.measure()) < 1e-12


class TestCircularIntervalSet:
    def test_wraparound(self):
        s = CircularIntervalSet().insert(6.0, 0.6)
        assert len(s) == 1
        assert s.measure() == pytest.approx(0.6, abs=1e-12)
        assert s.contains(6.2) and s.contains(0.2)
        assert not s.contains(1.0)

    def test_saturation(self):
        s = CircularIntervalSet.from_arcs([(0.0, math.pi), (math.pi, math.pi)])
        assert s.is_full()
        assert s.measure() == TWO_PI

    def test_disjoint(self):
        s = CircularIntervalSet.from_arcs([(0.0, 1.0), (2.0, 1.0)])
        assert len(s) == 2
        assert s.measure() == pytest.approx(2.0, abs=1e-12)

    def test_rejects_bad_arc(self):
        with pytest.raises(GeometryError):
            CircularIntervalSet.from_arcs([(0.0, 0.0)])
        with pytest.raises(GeometryError):
            CircularIntervalSet().insert(0.0, 7.0)

    @given(st.lists(st.tuples(st.integers(0, 628), st.integers(1, 100)),
                    min_size=1, max_size=25))
    @settings(max_examples=80, deadline=None)
    def test_measure_bounded_and_consistent(self, raw):
        arcs = [(a / 100.0, w / 100.0) for a, w in raw]
        s = CircularIntervalSet.from_arcs(arcs)
        assert 0 < s.measure() <= TWO_PI + 1e-12
        assert s.measure() >= max(w for _, w in arcs) - 1e-12
        # every arc midpoint is covered
        for a, w in arcs:
            assert s.contains(a + w / 2)

    def test_insert_into_full_is_full(self):
        s = CircularIntervalSet.full().insert(1.0, 0.5)
        assert s.is_full()

    def test_validates_arcs_after_a_full_one(self):
        with pytest.raises(GeometryError):
            CircularIntervalSet.from_arcs([(0.0, TWO_PI), (0.0, -1.0)])
        with pytest.raises(GeometryError):
            CircularIntervalSet.from_arcs([(0.0, TWO_PI), (math.nan, 1.0)])

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_start(self, start):
        with pytest.raises(GeometryError, match="non-finite"):
            CircularIntervalSet.from_arcs([(0.0, 1.0), (start, 0.5)])

    def test_rejects_non_pairs(self):
        with pytest.raises(GeometryError):
            CircularIntervalSet.from_arcs([0.0, 1.0, 2.0])


def from_arcs_loop(arcs):
    """The arc-by-arc union the array form of from_arcs replaced."""
    lo_list = []
    hi_list = []
    for start, length in arcs:
        if length >= TWO_PI - MERGE_TOL:
            return CircularIntervalSet.full()
        s = start % TWO_PI
        e = s + length
        if e > TWO_PI:
            lo_list.extend([s, 0.0])
            hi_list.extend([TWO_PI, e - TWO_PI])
        else:
            lo_list.append(s)
            hi_list.append(e)
    if not lo_list:
        return CircularIntervalSet()
    iv = IntervalSet.from_arrays(np.array(lo_list), np.array(hi_list))
    mlo, mhi = iv.lo, iv.hi
    if float(np.sum(mhi - mlo)) >= TWO_PI - MERGE_TOL:
        return CircularIntervalSet.full()
    segs = list(zip(mlo.tolist(), mhi.tolist()))
    if (len(segs) >= 2 and segs[0][0] <= MERGE_TOL
            and segs[-1][1] >= TWO_PI - MERGE_TOL):
        first = segs.pop(0)
        last = segs.pop()
        segs.append((last[0], last[1] - last[0] + (first[1] - first[0])))
        arcs_out = tuple((s, e - s) for s, e in segs[:-1]) + (segs[-1],)
    else:
        arcs_out = tuple((s, e - s) for s, e in segs)
    return CircularIntervalSet(tuple(sorted(arcs_out)))


#: arc starts on both sides of the seam and far from it; lengths from
#: tiny to the whole circle
ARC_STARTS = st.one_of(st.floats(-20.0, 20.0),
                       st.sampled_from([0.0, TWO_PI, -TWO_PI, math.pi,
                                        TWO_PI - 1e-13, 1e-13]))
ARC_LENGTHS = st.one_of(st.floats(1e-9, TWO_PI),
                        st.sampled_from([TWO_PI, TWO_PI - 1e-13, math.pi]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(ARC_STARTS, ARC_LENGTHS), max_size=12))
def test_from_arcs_array_matches_loop(arcs):
    want = from_arcs_loop(arcs).arcs
    assert CircularIntervalSet.from_arcs(arcs).arcs == want
    assert CircularIntervalSet.from_arcs(
        np.array(arcs, dtype=float).reshape(-1, 2)).arcs == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(ARC_STARTS, ARC_LENGTHS), max_size=12))
def test_arc_set_from_array_or_tuples(arcs):
    """A set built from the (k, 2) array of a union's arcs and one built
    from their tuples hold the same arcs, and each measure is the np.sum
    of the lengths."""
    union = CircularIntervalSet.from_arcs(arcs).arcs
    from_tuples = CircularIntervalSet(union)
    from_array = CircularIntervalSet(np.array(union).reshape(-1, 2))
    assert from_array.arcs == from_tuples.arcs == union
    assert len(from_array) == len(from_tuples) == len(union)
    lengths = np.array([length for _, length in union])
    assert (from_array.measure() == from_tuples.measure()
            == float(np.sum(lengths)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, TWO_PI, -TWO_PI, 3 * TWO_PI,
                                 -1e-300, 1e-300, -1e-17, math.pi])
                | st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=20))
def test_mod_two_pi_is_remainder(xs):
    x = np.array(xs)
    assert (_mod_two_pi(x).tobytes()
            == np.remainder(x, TWO_PI).tobytes())


def square_hull(sq, a):
    """The (start, width) hull of one square through hull_arcs_of_squares."""
    starts, widths = hull_arcs_of_squares(np.array([sq.corner.x]),
                                          np.array([sq.corner.y]), sq.side, a)
    return float(starts[0]), float(widths[0])


class TestAngularHull:
    def test_side_vantage(self):
        arc = square_hull(Square(Point2(0, 0), 1.0), Point2(-1.0, 0.5))
        start, width = arc
        assert width == pytest.approx(2 * math.atan(0.5), abs=1e-9)
        # the arc is centered on direction 0
        s = CircularIntervalSet.from_arcs([arc])
        assert s.contains(0.0)
        assert s.contains(math.atan(0.5) - 1e-6)
        assert not s.contains(math.atan(0.5) + 1e-3)

    def test_interior_vantage(self):
        _, width = square_hull(Square(Point2(0, 0), 1.0), Point2(0.5, 0.5))
        assert width == TWO_PI

    def test_distant_vantage(self):
        _, width = square_hull(Square(Point2(0, 0), 1.0), Point2(0.5, -10.0))
        # the near edge's corners subtend the extremal directions; width is
        # consistent with the vis <~ diam/dist scaling
        assert width == pytest.approx(2 * math.atan(0.5 / 10.0), abs=1e-9)
        assert width <= 1.0 * 2 / 10.0  # diam/dist envelope

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        x0 = rng.uniform(0, 4, 30)
        y0 = rng.uniform(0, 4, 30)
        a = Point2(-2.0, -3.0)
        starts, widths = hull_arcs_of_squares(x0, y0, 0.25, a)
        want_starts, want_widths = four_corner_hulls(x0, y0, 0.25, a)
        for i in range(30):
            sq = Square(Point2(x0[i], y0[i]), 0.25)
            assert square_hull(sq, a) == (starts[i], widths[i])
            assert (starts[i], widths[i]) == (want_starts[i], want_widths[i])


def four_corner_hulls(x0, y0, side, a):
    """Oracle: each square's hull from all four corner directions, the arc
    left when the largest gap between consecutive corner angles is cut
    out; width 2pi for a square whose closed set holds a."""
    inside = ((x0 <= a.x) & (a.x <= x0 + side)
              & (y0 <= a.y) & (a.y <= y0 + side))
    cx = np.stack([x0, x0 + side, x0 + side, x0], axis=1) - a.x
    cy = np.stack([y0, y0, y0 + side, y0 + side], axis=1) - a.y
    ang = np.sort(np.arctan2(cy, cx) % TWO_PI, axis=1)
    gaps = np.diff(np.concatenate([ang, ang[:, :1] + TWO_PI], axis=1), axis=1)
    k = np.argmax(gaps, axis=1)
    widths = np.where(inside, TWO_PI, TWO_PI - gaps[np.arange(len(k)), k])
    starts = ang[np.arange(len(k)), (k + 1) % 4]
    return starts, widths


HULL_COORDS = st.one_of(st.sampled_from([-1.0, -0.25, 0.0, 0.25, 0.5, 1.0]),
                        st.floats(-2.0, 2.0))
# a side below the corners' spacing in ulps sees all four corners in one
# direction, and the hull is then an empty arc, not the circle
HULL_SIDES = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1e-17, 1e-300]),
                       st.floats(1e-6, 2.0))


@st.composite
def squares_and_vantage(draw):
    """Squares of unequal sides and a vantage inside one of them, on one
    of its corners or edges, on an edge's extended line, or anywhere."""
    m = draw(st.integers(1, 8))
    x0 = np.array(draw(st.lists(HULL_COORDS, min_size=m, max_size=m)))
    y0 = np.array(draw(st.lists(HULL_COORDS, min_size=m, max_size=m)))
    side = np.array(draw(st.lists(HULL_SIDES, min_size=m, max_size=m)))
    i = draw(st.integers(0, m - 1))
    xs = (x0[i], x0[i] + side[i])
    ys = (y0[i], y0[i] + side[i])
    t = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    along = (x0[i] + t * side[i], y0[i] + t * side[i])
    far = draw(st.sampled_from([-3.0, 3.0]) | HULL_COORDS)
    a = draw(st.sampled_from([
        (along[0], along[1]),                                # inside
        (draw(st.sampled_from(xs)), draw(st.sampled_from(ys))),  # corner
        (along[0], draw(st.sampled_from(ys))),               # edge
        (draw(st.sampled_from(xs)), along[1]),               # edge
        (draw(st.sampled_from(xs)), far),                    # edge line
        (far, draw(st.sampled_from(ys))),                    # edge line
        (draw(HULL_COORDS), draw(HULL_COORDS))]))
    return x0, y0, side, Point2(*a)


@settings(max_examples=300, deadline=None)
@given(squares_and_vantage())
def test_hull_arcs_match_four_corner_oracle(case):
    """Widths, and starts of the arcs narrower than 2pi, are the oracle's
    bits."""
    x0, y0, side, a = case
    starts, widths = hull_arcs_of_squares(x0, y0, side, a)
    want_starts, want_widths = four_corner_hulls(x0, y0, side, a)
    assert widths.tobytes() == want_widths.tobytes()
    outside = want_widths < TWO_PI
    assert starts[outside].tobytes() == want_starts[outside].tobytes()


class TestLines:
    def test_dist_examples(self):
        assert dist_point_line(Point2(0, 1), Line(0.0, 0.0)) == 1.0
        assert dist_point_line(Point2(2, 0), Line(0.0, 0.0)) == 0.0
        assert dist_point_line(Point2(3, 4), Line(math.pi / 2, 0.0)) == \
            pytest.approx(3.0, abs=1e-12)

    def test_theta_canonicalized(self):
        ell = Line(math.pi + 0.3, 0.7)
        assert 0 <= ell.theta < math.pi
        assert ell.theta == pytest.approx(0.3, abs=1e-12)
        assert ell.offset == pytest.approx(-0.7, abs=1e-12)
        # the geometric line is unchanged by the wrap: the foot of the
        # normal, read from the unwrapped angle and offset, stays on it
        th, off = math.pi + 0.3, 0.7
        p = Point2(-off * math.sin(th), off * math.cos(th))
        assert dist_point_line(p, ell) < 1e-12


def test_point_rejects_nonfinite():
    with pytest.raises(GeometryError):
        Point2(float("nan"), 0.0)


def test_square_rejects_zero_side():
    with pytest.raises(GeometryError):
        Square(Point2(0, 0), 0.0)

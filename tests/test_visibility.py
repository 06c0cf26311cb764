"""Radial projections and the discretized line-incidence machinery."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favlab import _kernels, visibility as vis_mod
from favlab.geometry import (CircularIntervalSet, Line, Point2, Square,
                             TWO_PI, dist_point_line, hull_arcs_of_squares)
from favlab.ifs import (PRESETS, WORK_BUDGET, IFSystem, ResourceBudgetError,
                        Similitude, generate_generation, preset)
from favlab.transforms import radial_vs_projection_bridge
from favlab.visibility import (DEFAULT_C, DiscreteLine, LineFamily,
                               PointCloud, build_line_family,
                               cloud_from_generation, cone_count, counts_table,
                               f_delta, l2_norm_f, mass, radial_projection,
                               radial_projection_balls, richness_histogram,
                               scan_line_low_visibility, select_intervals,
                               streamed_visibility, vis_delta, visibility)
from favlab.visibility import _direction_mask
from test_geometry import four_corner_hulls


@pytest.fixture(scope="module")
def k4_setup(gens):
    g = gens(4)
    A = cloud_from_generation(g)
    fam = build_line_family(float(g.side), 2.5)
    table = counts_table(A, fam)
    return A, fam, table


def ray_oracle_vis(gen, a, n_rays=200_000):
    """Slab-test ray casting; independent of the arc-union code path."""
    ang = (np.arange(n_rays) + 0.5) * (TWO_PI / n_rays)
    dx, dy = np.cos(ang), np.sin(ang)
    hit = np.zeros(n_rays, dtype=bool)
    for x0, y0, side in zip(gen.corner_x, gen.corner_y, gen.sides):
        with np.errstate(divide="ignore", invalid="ignore"):
            tx1 = (x0 - a.x) / dx
            tx2 = (x0 + side - a.x) / dx
            ty1 = (y0 - a.y) / dy
            ty2 = (y0 + side - a.y) / dy
        tmin = np.maximum(np.minimum(tx1, tx2), np.minimum(ty1, ty2))
        tmax = np.minimum(np.maximum(tx1, tx2), np.maximum(ty1, ty2))
        hit |= (tmax >= tmin) & (tmax >= 0)
    return float(np.mean(hit))


class TestRadialProjection:
    def test_interior_vantage_full(self, gens):
        assert visibility(gens(1), Point2(0.1, 0.1)) == 1.0

    def test_distant_vantage_vs_ray_oracle(self, gens):
        g = gens(1)
        a = Point2(0.5, -10.0)
        vis = visibility(g, a)
        assert abs(vis - ray_oracle_vis(g, a)) < 1e-3
        # union of four arcs is at most four times the widest one
        widths = [2 * math.atan(0.25 / 2 / 9.0)]
        assert vis <= 4 * max(widths) / TWO_PI * 1.5

    def test_unit_square_side_vantage(self, gens):
        vis = visibility(gens(0), Point2(-1.0, 0.5))
        assert vis == pytest.approx(2 * math.atan(0.5) / TWO_PI, abs=1e-12)

    def test_monotone_under_refinement(self, gens):
        a = Point2(-1.0, -1.0)
        vals = [visibility(gens(n), a) for n in range(1, 5)]
        assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_ball_cloud_version(self, gens):
        g = gens(2)
        A = cloud_from_generation(g)
        a = Point2(-1.0, -1.0)
        ball = radial_projection_balls(A, float(g.side), a).measure()
        square = radial_projection(g, a).measure()
        # a side-s square sits inside the radius-s ball around its center
        assert ball >= square - 1e-12

    def test_ball_cloud_interior(self):
        A = PointCloud(np.array([[0.0, 0.0]]), 0.5)
        assert radial_projection_balls(A, 0.5, Point2(0.2, 0.0)).is_full()


@pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
def test_point_cloud_rejects_bad_delta(delta):
    with pytest.raises(ValueError, match="delta must be positive"):
        PointCloud(np.array([[0.0, 0.0]]), delta)


@pytest.mark.parametrize("bad", [[1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]],
                                 np.zeros((2, 2, 2)), np.zeros((4, 1))])
def test_point_cloud_rejects_other_shapes(bad):
    """Three coordinates are not silently cut to the point (1, 2)."""
    with pytest.raises(ValueError, match=r"points must be an \(m, 2\) array"):
        PointCloud(bad, 0.1)


@pytest.mark.parametrize("empty", [[], np.empty(0), np.empty((0, 2))])
def test_point_cloud_empty_is_zero_by_two(empty):
    """An empty input is the cloud of no points, whose lines all have
    richness 0."""
    A = PointCloud(empty, 0.1)
    assert A.points.shape == (0, 2) and len(A) == 0
    assert A.x.size == A.y.size == 0
    assert l2_norm_f(A, build_line_family(0.1, 1.0)) == 0.0


def test_point_cloud_columns_contiguous():
    """The points are held column-major, so the kernels read x and y
    without a copy; a single point is (1, 2)."""
    A = PointCloud(np.arange(12.0).reshape(6, 2), 0.1)
    assert A.x.flags.c_contiguous and A.y.flags.c_contiguous
    assert A.x.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    assert PointCloud([1.0, 2.0], 0.1).points.tolist() == [[1.0, 2.0]]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_point_cloud_rejects_nonfinite_points(bad):
    """A non-finite point has no line-family window; the count rows would
    size their span from it."""
    with pytest.raises(ValueError, match="points must be finite"):
        PointCloud(np.array([[bad, 0.0], [0.1, 0.2]]), 0.1)


class TestLineFamily:
    def test_spec_count(self):
        fam = build_line_family(0.1, 2.0)
        assert fam.k1_count == 32
        assert fam.k2_max == 20 and fam.k2_min == -20
        assert fam.n_lines == 32 * 41 == 1312

    def test_degenerate_scale(self):
        fam = build_line_family(1.0, 1.0)
        assert fam.n_lines >= 4

    def test_density_scaling(self):
        for delta in (0.1, 0.05, 0.025):
            fam = build_line_family(delta, 2.0)
            assert 1.0 <= fam.n_lines * delta ** 2 <= 4 * math.pi * 2.0

    def test_line_indices_roundtrip(self):
        fam = build_line_family(0.1, 2.0)
        ell = fam.line(3, -7)
        assert ell.line.theta == pytest.approx(0.3)
        assert ell.line.offset == pytest.approx(-0.7)
        assert ell.delta == 0.1

    def test_rejects_bad_scales(self):
        from favlab.geometry import GeometryError
        with pytest.raises(GeometryError):
            build_line_family(0.5, 0.1)
        # pi/delta or d/delta overflows to inf
        for delta, d in ((1e-320, 2.0), (0.0625, 1e308), (0.0625, math.inf)):
            with pytest.raises(GeometryError, match="must be finite"):
                build_line_family(delta, d)

    def test_budget_guard(self):
        from favlab.ifs import ResourceBudgetError
        fam = build_line_family(0.0005, 2.0)
        A = PointCloud(np.array([[0.0, 0.0]]), 0.0005)
        with pytest.raises(ResourceBudgetError):
            counts_table(A, fam)


class TestFDelta:
    def test_single_point_on_axis(self):
        A = PointCloud(np.array([[0.0, 0.0]]), 0.1)
        ell = DiscreteLine(0, 0, Line(0.0, 0.0), 0.1)
        assert f_delta(ell, A, 4.0) == 1

    def test_far_points(self):
        A = PointCloud(np.array([[0.0, 5.0], [3.0, -2.0]]), 0.1)
        ell = DiscreteLine(0, 0, Line(0.0, 0.0), 0.1)
        assert f_delta(ell, A, 4.0) == 0

    def test_column_line_tight_c(self, gens):
        # one full column of stage-3 centers at c=1: 2^3 points
        g = gens(3)
        A = cloud_from_generation(g)
        delta = float(g.side)
        column = DiscreteLine(0, 0, Line(math.pi / 2, -delta / 2), delta)
        assert f_delta(column, A, 1.0) == 8

    def test_column_line_wide_c_catches_neighbor(self, gens):
        # at c=4 the 3*delta-distant sibling column enters the tube
        g = gens(3)
        A = cloud_from_generation(g)
        delta = float(g.side)
        column = DiscreteLine(0, 0, Line(math.pi / 2, -delta / 2), delta)
        assert f_delta(column, A, 4.0) == 16

    def test_rejects_bad_c(self):
        A = PointCloud(np.array([[0.0, 0.0]]), 0.1)
        with pytest.raises(ValueError):
            f_delta(DiscreteLine(0, 0, Line(0.0, 0.0), 0.1), A, 0.0)

    @pytest.mark.parametrize("c", [-1.0, math.inf, math.nan])
    def test_count_rows_reject_bad_c(self, c):
        A = PointCloud(np.array([[0.0, 0.0]]), 0.1)
        fam = build_line_family(0.1, 1.0)
        with pytest.raises(ValueError):
            f_delta(DiscreteLine(0, 0, Line(0.0, 0.0), 0.1), A, c)
        with pytest.raises(ValueError, match="c must be positive and finite"):
            l2_norm_f(A, fam, c)
        with pytest.raises(ValueError, match="c must be positive and finite"):
            vis_delta([Point2(-1.0, 0.0)], A, fam, c)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e19, 1e300])
    def test_reach_past_int64_keeps_every_window(self, gens, c):
        """A reach of more than 2^63 cells is clipped to the family before
        its int64 cast, so every window spans the family, as at c = 100."""
        A = cloud_from_generation(gens(2))
        fam = build_line_family(A.delta, 1.91)
        a = Point2(-0.25, 0.5)
        for cc in (100.0, c):
            assert vis_delta([a], A, fam, cc) == [205]
            assert l2_norm_f(A, fam, cc) == 256.0
            assert mass(a, (0.0, TWO_PI), A, fam, cc) == 3280

    def test_counts_table_matches_f_delta(self, k4_setup):
        A, fam, table = k4_setup
        rng = np.random.default_rng(11)
        for _ in range(50):
            k1 = int(rng.integers(0, fam.k1_count))
            k2 = int(rng.integers(fam.k2_min, fam.k2_max + 1))
            assert table[k1, k2 - fam.k2_min] == f_delta(fam.line(k1, k2), A)


class TestVisDelta:
    def test_empty_cloud(self):
        fam = build_line_family(0.05, 2.0)
        A = PointCloud(np.empty((0, 2)), 0.05)
        assert vis_delta([Point2(0, 0), Point2(1, 1)], A, fam) == [0, 0]

    def test_single_point_pencil(self):
        fam = build_line_family(0.05, 2.0)
        A = PointCloud(np.array([[1.0, 0.0]]), 0.05)
        [count] = vis_delta([Point2(0.0, 0.0)], A, fam)
        # all qualifying lines lie in one ~delta-wide direction pencil
        assert 1 <= count <= 60

    def test_monotone_in_cloud(self, gens):
        g = gens(3)
        A = cloud_from_generation(g)
        half = PointCloud(A.points[::2], A.delta)
        fam = build_line_family(A.delta, 2.5)
        a = Point2(-1.0, -1.0)
        assert vis_delta([a], A, fam) >= vis_delta([a], half, fam)

    def test_counts_only_lines_near_vantage(self, k4_setup):
        A, fam, table = k4_setup
        a = Point2(-1.0, -1.0)
        [vd] = vis_delta([a], A, fam)
        # brute check on a small sample of directions
        delta = fam.delta
        brute = 0
        for k1 in range(0, fam.k1_count, 97):
            th = k1 * delta
            t = -math.sin(th) * a.x + math.cos(th) * a.y
            for k2 in range(fam.k2_min, fam.k2_max + 1):
                if abs(t - k2 * delta) <= 2 * delta and \
                        table[k1, k2 - fam.k2_min] > 0:
                    brute += 1
        assert vd >= brute
        assert 0 < vd < fam.n_lines


class TestL2Norm:
    def test_empty(self):
        fam = build_line_family(0.05, 2.0)
        assert l2_norm_f(PointCloud(np.empty((0, 2)), 0.05), fam) == 0.0

    def test_single_point_scale(self):
        delta = 0.02
        fam = build_line_family(delta, 2.0)
        A = PointCloud(np.array([[0.3, -0.2]]), delta)
        v = l2_norm_f(A, fam)
        # each incident line contributes 1; count ~ delta^-1 of ~delta^-2
        assert 0.05 <= v / delta <= 20

    def test_matches_table(self, gens):
        g = gens(3)
        A = cloud_from_generation(g)
        fam = build_line_family(A.delta, 2.0)
        table = counts_table(A, fam)
        direct = float(np.sum(table.astype(np.float64) ** 2)) / fam.n_lines
        assert l2_norm_f(A, fam) == pytest.approx(direct, rel=1e-12)


class TestMassAndCones:
    def test_empty_cloud(self):
        fam = build_line_family(0.05, 2.0)
        A = PointCloud(np.empty((0, 2)), 0.05)
        assert mass(Point2(0, 0), (0.0, TWO_PI), A, fam) == 0
        assert cone_count(Point2(0, 0), (0.0, TWO_PI), A, fam) == 0

    def test_full_circle_dominates_vis(self, k4_setup):
        A, fam, table = k4_setup
        a = Point2(-1.0, -1.0)
        m = mass(a, (0.0, TWO_PI), A, fam)
        assert m >= vis_delta([a], A, fam)[0]

    def test_degenerate_arc(self, k4_setup):
        A, fam, table = k4_setup
        a = Point2(-1.0, -1.0)
        # an arc of length ~0 off the direction grid selects nothing
        m = mass(a, (0.12345e-3 + fam.delta / 3, 1e-12), A, fam)
        assert m == 0

    @pytest.mark.parametrize("delta", [0.05, 0.013, 4.0 ** -5])
    @pytest.mark.parametrize("arc", [(0.0, TWO_PI), (-0.3, 0.6),
                                     (math.pi / 4 - 0.3, 0.6), (5.9, 1.1),
                                     (0.12345e-3, 1e-12), (2.5, 0.0)])
    def test_direction_mask_matches_scalar_loop(self, delta, arc):
        """The vectorised mask equals the per-direction Python float %."""
        fam = build_line_family(delta, 2.0)
        for antipodal in (False, True):
            want = []
            for k1 in range(fam.k1_count):
                ang = k1 * fam.delta
                ok = (ang - arc[0]) % TWO_PI <= arc[1]
                if antipodal:
                    ok = ok or (ang + math.pi - arc[0]) % TWO_PI <= arc[1]
                want.append(ok)
            got = _direction_mask(fam, arc, antipodal=antipodal)
            assert got.tolist() == want

    def test_lone_vantage_cone(self):
        fam = build_line_family(0.05, 2.0)
        A = PointCloud(np.array([[0.3, 0.4]]), 0.05)
        a = Point2(0.3, 0.4)
        assert cone_count(a, (0.0, TWO_PI), A, fam) == 0

    def test_single_neighbor_cone(self):
        fam = build_line_family(0.05, 2.0)
        a = Point2(0.0, 0.0)
        A = PointCloud(np.array([[0.5, 0.0]]), 0.05)
        c = cone_count(a, (-0.3, 0.6), A, fam)
        assert 1 <= c <= 120

    def test_cone_monotone_in_arc(self, k4_setup):
        A, fam, table = k4_setup
        a = Point2(-1.0, -1.0)
        wide = cone_count(a, (0.0, math.pi / 2), A, fam)
        narrow = cone_count(a, (0.0, math.pi / 4), A, fam)
        assert narrow <= wide

    def test_mass_cone_sandwich(self, k4_setup):
        """Direct cone counts and the line-mass agree up to constants."""
        A, fam, table = k4_setup
        a = Point2(-1.0, -1.0)
        arc = (math.pi / 4 - 0.3, 0.6)
        m = mass(a, arc, A, fam)
        cones = cone_count(a, arc, A, fam)
        anti = ((arc[0] + math.pi) % TWO_PI, arc[1])
        dilated = (arc[0] - 2 * fam.delta, arc[1] + 4 * fam.delta)
        cones_dilated = (cone_count(a, dilated, A, fam)
                         + cone_count(a, (anti[0] - 2 * fam.delta,
                                          anti[1] + 4 * fam.delta), A, fam))
        c_hi = 8.0
        assert cones <= c_hi * m
        assert m <= c_hi * (cones_dilated + 1)


class TestSelectIntervals:
    def test_empty_cloud(self):
        fam = build_line_family(0.05, 2.0)
        A = PointCloud(np.empty((0, 2)), 0.05)
        assert select_intervals(Point2(0.0, 0.0), A, fam, 12) is None

    def test_two_perpendicular_clusters(self):
        delta = 0.01
        rng = np.random.default_rng(1)
        c1 = np.stack([np.full(30, 1.0) + rng.uniform(-0.1, 0.1, 30),
                       rng.uniform(-0.05, 0.05, 30)], axis=1)
        c2 = np.stack([rng.uniform(-0.05, 0.05, 30),
                       np.full(30, 1.0) + rng.uniform(-0.1, 0.1, 30)], axis=1)
        A = PointCloud(np.concatenate([c1, c2]), delta)
        fam = build_line_family(delta, 2.0)
        sel = select_intervals(Point2(0.0, 0.0), A, fam, 12)
        assert sel is not None
        from favlab.visibility import _arc_contains
        covered = (_arc_contains(sel.arc1, 0.0)
                   or _arc_contains(sel.arc2, 0.0))
        assert covered
        assert sel.mass1 > len(A) / 120 and sel.mass2 > len(A) / 120

    def test_single_cone_with_antipode_fails(self):
        # collinear cloud through the vantage: every rich direction sits in
        # one arc or its antipode, so no admissible pair exists
        delta = 0.01
        ang = 0.26  # interior of the first 2*pi/12 grid arc
        rs = np.concatenate([np.linspace(0.5, 1.5, 25),
                             -np.linspace(0.5, 1.5, 25)])
        A = PointCloud(np.stack([rs * math.cos(ang), rs * math.sin(ang)],
                                axis=1), delta)
        fam = build_line_family(delta, 2.0)
        assert select_intervals(Point2(0.0, 0.0), A, fam, 12) is None

    def test_fourcorner_succeeds(self, k4_setup):
        A, fam, table = k4_setup
        sel = select_intervals(Point2(-1.0, -1.0), A, fam, 12)
        assert sel is not None
        assert 1 <= sel.i1 < sel.i2 <= 12

    def test_rejects_bad_k(self, k4_setup):
        A, fam, table = k4_setup
        with pytest.raises(ValueError):
            select_intervals(Point2(-1, -1), A, fam, 10)
        with pytest.raises(ValueError):
            select_intervals(Point2(-1, -1), A, fam, 13)


class TestRichnessHistogram:
    def test_empty(self):
        fam = build_line_family(0.05, 2.0)
        h = richness_histogram(PointCloud(np.empty((0, 2)), 0.05), fam)
        assert h.buckets == {}

    def test_coincident_cluster_top_bucket(self):
        m = 33
        fam = build_line_family(0.05, 2.0)
        A = PointCloud(np.tile([[0.25, 0.35]], (m, 1)), 0.05)
        h = richness_histogram(A, fam)
        assert max(h.buckets) == int(math.floor(math.log2(m)))

    def test_total_is_occupied_line_count(self, gens):
        g = gens(3)
        A = cloud_from_generation(g)
        fam = build_line_family(A.delta, 2.0)
        table = counts_table(A, fam)
        h = richness_histogram(A, fam)
        assert h.total() == int(np.count_nonzero(table))
        assert h.family_size == fam.n_lines

    def test_shape_bound(self, gens):
        """bucket(j) * 2^(2j) * delta^(1+alpha) stays polylog-bounded."""
        for n in (3, 4, 5):
            g = gens(n)
            A = cloud_from_generation(g)
            fam = build_line_family(A.delta, 2.0)
            h = richness_histogram(A, fam)
            logfac = math.log(1 / A.delta) ** 3
            for j, cnt in h.buckets.items():
                assert cnt * 2.0 ** (2 * j) * A.delta ** 2 <= 2.0 * logfac


class TestLineScan:
    def test_empty_cloud_full_segment(self):
        fam = build_line_family(0.05, 2.0)
        A = PointCloud(np.empty((0, 2)), 0.05)
        ell0 = Line(0.0, -0.5)
        lengths = scan_line_low_visibility(ell0, A, fam, [0.5, 0.25])
        chord = 2 * math.sqrt(2.0 ** 2 - 0.5 ** 2)
        assert lengths[0] == lengths[1] == pytest.approx(chord, abs=0.05)

    def test_monotone_in_lambda(self, k4_setup):
        A, fam, table = k4_setup
        ell0 = Line(0.0, -0.5)
        lams = [2.0 ** -j for j in range(1, 7)]
        lengths = scan_line_low_visibility(ell0, A, fam, lams)
        assert all(a >= b - 1e-12 for a, b in zip(lengths, lengths[1:]))

    def test_offset_outside_disk(self, k4_setup):
        A, fam, table = k4_setup
        assert scan_line_low_visibility(Line(0.0, 5.0), A, fam,
                                        [0.5, 0.25]) == [0.0, 0.0]

    def test_rejects_bad_lambda(self, k4_setup):
        A, fam, table = k4_setup
        with pytest.raises(ValueError):
            scan_line_low_visibility(Line(0.0, -0.5), A, fam, [0.5, 0.0])

    @pytest.mark.parametrize("step", [-0.01, 0.0, math.nan, math.inf, 1.0])
    def test_rejects_bad_sample_step(self, k4_setup, step):
        A, fam, table = k4_setup
        with pytest.raises(ValueError, match="sample_step must be in"):
            scan_line_low_visibility(Line(0.0, -0.5), A, fam, [0.5],
                                     sample_step=step)


def projection_count(gen, theta, r):
    """Oracle: the number of squares whose closed theta-projection, the span
    of their projected corners, contains r."""
    side = np.reshape(gen.sides, (-1, 1))
    t = ((gen.corner_x[:, None] + side * [0, 1, 1, 0]) * math.cos(theta)
         + (gen.corner_y[:, None] + side * [0, 0, 1, 1]) * math.sin(theta))
    return int(np.count_nonzero((t.min(axis=1) <= r) & (r <= t.max(axis=1))))


class TestAntipodalConsistency:
    """g_n(theta) = f_{n, theta - pi/2}(0) has the support of the radial
    projection from the origin, doubled to the antipode."""

    def test_support_agreement(self):
        sys_ = preset("fourcorner-annulus")
        g = generate_generation(sys_, 3)
        arcs = radial_projection(g, Point2(0.0, 0.0))
        assert not arcs.is_full()
        eps = 1e-6
        for start, length in arcs.arcs[:8]:
            mid = (start + length / 2) % TWO_PI
            count = projection_count(g, (mid - math.pi / 2) % math.pi, 0.0)
            assert count >= 1
        # midpoints of the complementary gaps carry no line through 0
        all_arcs = sorted(arcs.arcs)
        for (s1, l1), (s2, _) in zip(all_arcs, all_arcs[1:]):
            gap_mid = (s1 + l1 + s2) / 2
            if (gap_mid - (s1 + l1)) < eps:
                continue
            anti = (gap_mid + math.pi) % TWO_PI
            if arcs.contains(anti):
                continue
            count = projection_count(g, (gap_mid - math.pi / 2) % math.pi, 0.0)
            assert count == 0


def brute_queries(a, A, fam, c, arc):
    """vis_delta, mass and cone_count of one vantage, line by line from
    fam.line, dist_point_line and f_delta."""
    start, length = arc
    a_in_cloud = bool(np.any((A.x == a.x) & (A.y == a.y)))
    vis = mss = cone = 0
    for k1 in range(fam.k1_count):
        ang = k1 * fam.delta
        in_arc = (ang - start) % TWO_PI <= length
        in_arc_or_anti = in_arc or (ang + math.pi - start) % TWO_PI <= length
        for k2 in range(fam.k2_min, fam.k2_max + 1):
            ell = fam.line(k1, k2)
            dist = dist_point_line(a, ell.line)
            near = dist <= 2 * fam.delta
            cone_line = in_arc and dist <= c * fam.delta
            if not (near or cone_line):
                continue
            f = f_delta(ell, A, c)
            if near:
                vis += f > 0
                mss += f if in_arc_or_anti else 0
            if cone_line:
                cone += f - a_in_cloud
    return vis, mss, cone


class TestEngineOracle:
    """Every vantage query reads window sums of the streamed count rows; pin
    the batched engine to the line-by-line definitions."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(0, 30),
           n_vantages=st.integers(1, 20), delta=st.floats(0.08, 0.4),
           c=st.floats(0.5, 5.0), d=st.floats(0.5, 1.5),
           arc=st.tuples(st.floats(-7.0, 7.0), st.floats(0.0, 7.0)),
           vantage_in_cloud=st.booleans())
    def test_batched_queries_match_brute_force(self, seed, m, n_vantages,
                                               delta, c, d, arc,
                                               vantage_in_cloud):
        fam = build_line_family(delta, max(d, delta))
        rng = np.random.default_rng(seed)
        A = PointCloud(rng.uniform(-d, d, (m, 2)), delta)
        vantages = [Point2(*p) for p in rng.uniform(-1.2 * d, 1.2 * d,
                                                    (n_vantages, 2))]
        if vantage_in_cloud and m > 0:
            vantages[-1] = Point2(*A.points[m // 2])
        want = [brute_queries(a, A, fam, c, arc) for a in vantages]
        assert vis_delta(vantages, A, fam, c) == [w[0] for w in want]
        for a, (_, want_mass, want_cone) in zip(vantages, want):
            assert mass(a, arc, A, fam, c) == want_mass
            assert cone_count(a, arc, A, fam, c) == want_cone

    def test_batch_across_blocks_equals_singles(self, k4_setup):
        A, fam, _ = k4_setup
        rng = np.random.default_rng(5)
        vantages = [Point2(*p) for p in rng.uniform(-1.5, 1.5, (37, 2))]
        batch = vis_delta(vantages, A, fam)
        assert batch == [vis_delta([a], A, fam)[0] for a in vantages]
        assert vis_delta([], A, fam) == []

    @pytest.mark.parametrize("offset", [-0.5, 0.3])
    def test_multi_lambda_scan_thresholds_pointwise_vis(self, offset):
        from favlab.geometry import Square
        from favlab.ifs import IFSystem, Similitude
        # a sparse diagonal Cantor cloud, so that low visibility occurs
        diag = IFSystem((Similitude(0.25, (0.0, 0.0)),
                         Similitude(0.25, (0.75, 0.75))),
                        Square(Point2(0.0, 0.0), 1.0))
        A = cloud_from_generation(generate_generation(diag, 3))
        fam = build_line_family(A.delta, 2.0)
        ell0 = Line(0.4, offset)
        step = fam.delta / 2
        half = math.sqrt(fam.d ** 2 - offset ** 2)
        n = int(math.floor(2 * half / step))
        ts = (np.arange(n) + 0.5) * step - half
        pts = [Point2(offset * -math.sin(0.4) + t * math.cos(0.4),
                      offset * math.cos(0.4) + t * math.sin(0.4)) for t in ts]
        vis = np.array(vis_delta(pts, A, fam, 1.0))
        lams = [1.0, 0.5, 0.25, 0.125]
        want = [float(np.count_nonzero(vis < lam / fam.delta) * step)
                for lam in lams]
        assert scan_line_low_visibility(ell0, A, fam, lams, c=1.0) == want
        assert want[0] > 0 and want == sorted(want, reverse=True)


def table_window_sums(pts, table, fam, reach):
    """The dense-table gather the vantage queries used before they streamed
    the count rows: (m, k1_count) sums of table[k1, k2 - k2_min] over each
    vantage's window |t_k1(a) - k2*delta| <= reach."""
    th = fam.thetas
    t = -np.sin(th) * pts[:, :1] + np.cos(th) * pts[:, 1:]
    lo, hi = _kernels._k2_windows(t, fam.delta, reach, fam.k2_min, fam.k2_max)
    lo, hi = lo - fam.k2_min, hi - fam.k2_min
    cand = lo[..., None] + np.arange(max(int((hi - lo).max(initial=-1)) + 1,
                                         0))
    row_start = (np.arange(fam.k1_count) * table.shape[1])[:, None]
    # candidates past a window may point past the row: read clipped, masked
    vals = np.take(table.ravel(), row_start + cand, mode="clip")
    return (vals * (cand <= hi[..., None])).sum(axis=2, dtype=np.int64)


def table_cone_count(a, arc, A, fam, c):
    """cone_count as read from the dense table."""
    pts = np.array([[a.x, a.y]])
    reach = c * fam.delta
    dmask = _direction_mask(fam, arc, antipodal=False)
    total = int(table_window_sums(pts, counts_table(A, fam, c), fam,
                                  reach)[0, dmask].sum())
    if np.any((A.x == a.x) & (A.y == a.y)):
        ones = np.ones((fam.k1_count, 2 * fam.k2_max + 1), dtype=np.int64)
        total -= int(table_window_sums(pts, ones, fam, reach)[0, dmask].sum())
    return total


def table_window_stream(pts, A, fam, c, reach):
    """Stand-in for the streamed visibility._window_sums that reads the
    dense table instead."""
    return iter(table_window_sums(pts, counts_table(A, fam, c) > 0, fam,
                                  reach).T)


def table_direction_sums(a, A, fam, c, reach, masks):
    """Stand-in for the direct visibility._direction_sums that reads the
    dense table instead: the window sums of the counts and of ones."""
    pts = np.array([[a.x, a.y]])
    ones = np.ones((fam.k1_count, 2 * fam.k2_max + 1), dtype=np.int64)
    return (table_window_sums(pts, counts_table(A, fam, c), fam, reach)[0],
            table_window_sums(pts, ones, fam, reach)[0])


@st.composite
def line_family_cases(draw):
    """A small family with a cloud (possibly empty, with coincident points
    and points on horizontal family lines) and vantages inside, outside and
    on the edge of B(0, d), and on a cloud point."""
    delta = draw(st.floats(0.05, 0.4))
    d = draw(st.floats(delta, 1.5))
    fam = build_line_family(delta, d)
    coord = st.floats(-1.2 * d, 1.2 * d)
    pts = draw(st.lists(st.tuples(coord, coord), max_size=25))
    on_line = draw(st.lists(st.tuples(coord, st.integers(fam.k2_min,
                                                         fam.k2_max)),
                            max_size=5))
    pts += [(x, k2 * delta) for x, k2 in on_line]
    if pts and draw(st.booleans()):
        pts += pts[:draw(st.integers(1, len(pts)))]         # coincident
    A = PointCloud(np.array(pts, dtype=float).reshape(-1, 2), delta)
    phis = draw(st.lists(st.floats(0.0, TWO_PI), min_size=1, max_size=4))
    vantages = [Point2(*p) for p in draw(st.lists(st.tuples(coord, coord),
                                                  max_size=6))]
    vantages += [Point2(d * math.cos(p), d * math.sin(p)) for p in phis]
    if pts:
        vantages.append(Point2(*pts[draw(st.integers(0, len(pts) - 1))]))
    c = draw(st.floats(0.3, 6.0).filter(lambda v: not v.is_integer()))
    arc = draw(st.tuples(st.floats(-7.0, 7.0), st.floats(0.0, 7.0)))
    return fam, A, vantages, c, arc


class TestStreamedMatchesTable:
    """The vantage queries stream the count rows or sum the points' windows
    directly; pin them to the dense table gather they replaced, exactly."""

    @settings(max_examples=60, deadline=None)
    @given(case=line_family_cases(), k=st.sampled_from([12, 14, 20]),
           ell0=st.tuples(st.floats(0.0, math.pi), st.floats(-2.0, 2.0)),
           lams=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
           block=st.sampled_from([1, 3, 2 ** 14]))
    def test_queries_match_table_gather(self, case, k, ell0, lams, block):
        """Every block size, down to one direction per block, gives the
        table's answers."""
        with mock.patch.object(_kernels, "_LINE_BLOCK", block):
            fam, A, vantages, c, arc = case
            pts = np.array([(a.x, a.y) for a in vantages])
            table = counts_table(A, fam, c)
            near = 2 * fam.delta
            assert vis_delta(vantages, A, fam, c) == table_window_sums(
                pts, table > 0, fam, near).sum(axis=1).tolist()
            for i, a in enumerate(vantages):
                sums = table_window_sums(pts[i:i + 1], table, fam, near)[0]
                assert np.array_equal(
                    vis_mod._direction_sums(a, A, fam, c, near, 1)[0], sums)
                assert mass(a, arc, A, fam, c) == int(
                    sums[_direction_mask(fam, arc)].sum())
                assert cone_count(a, arc, A, fam, c) == table_cone_count(
                    a, arc, A, fam, c)
            line = Line(*ell0)
            streamed = ([select_intervals(a, A, fam, k, c) for a in vantages],
                        scan_line_low_visibility(line, A, fam, lams, c=c))
            with mock.patch.object(vis_mod, "_window_sums",
                                   table_window_stream), \
                    mock.patch.object(vis_mod, "_direction_sums",
                                      table_direction_sums):
                from_table = (
                    [select_intervals(a, A, fam, k, c) for a in vantages],
                    scan_line_low_visibility(line, A, fam, lams, c=c))
            assert streamed == from_table


# ---------------------------------------------------------------------------
# the candidate engine against the row engine it replaced
# ---------------------------------------------------------------------------

def row_vis_delta(vantages, A, fam, c):
    """vis_delta as the count rows gave it: the windows' sums of the
    streamed rows' occupancy."""
    return sum(vis_mod._window_sums(np.array([(a.x, a.y) for a in vantages]),
                                    A, fam, c, 2 * fam.delta)).tolist()


def windowed_vantage_sums(px, py, delta, c_mult, ax, ay, reach, k1s, k2min,
                          k2max):
    """Per direction k1 in k1s, the sum of its count row over the window
    [lo, hi] of the offsets k2 with |t_k1(a) - k2*delta| <= reach of the
    vantage a = (ax, ay).  That is sum_p |[a_p, b_p] & [lo, hi]| over every
    point's window, the vantage windowed as one more point, in the same
    blocks: the direct sums that the candidate engine replaced."""
    _kernels._check_c(c_mult)
    reaches = np.full(px.size + 1, c_mult * delta)
    reaches[-1] = reach
    out = np.empty(len(k1s), dtype=np.int64)
    i = 0
    for a, b in _kernels._window_blocks(np.append(px, ax), np.append(py, ay),
                                        delta, reaches, k1s, k2min, k2max,
                                        _kernels._block_step(px.size + 1)):
        # an empty window has b = a - 1, so its overlap is at most 0
        np.maximum(a, a[:, -1:], out=a)
        np.minimum(b, b[:, -1:], out=b)
        b -= a - 1
        np.maximum(b, 0, out=b)
        out[i:i + len(b)] = b[:, :-1].sum(axis=1)
        i += len(b)
    return out


def row_direction_sums(a, A, fam, c, reach):
    return windowed_vantage_sums(A.x, A.y, fam.delta, c, a.x, a.y, reach,
                                 range(fam.k1_count), fam.k2_min, fam.k2_max)


@st.composite
def candidate_cases(draw):
    """A random cloud, delta and c, and a reach of 2*delta or c*delta, with
    vantages inside the cloud, on one or more coincident cloud points, far
    away (as the bridge's x = -9.5 is from the unit square), and at and
    past the family's edge (where windows are clipped away).  Each boundary
    pair adds a vantage a and a point p with t(a) = k2*delta -+ reach and
    t(p) = k2*delta +- c*delta along one family direction: their windows
    meet at cell k2 up to rounding, at |t(p) - t(a)| = c*delta + reach, the
    candidates' half-width, so only the slack keeps p a candidate of a."""
    delta = draw(st.floats(0.02, 0.3))
    c = draw(st.floats(0.3, 6.0))
    far = draw(st.booleans())
    d = draw(st.floats(delta, 12.0 if far else 1.5))
    fam = build_line_family(delta, d)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(0, 40))
    pts = rng.uniform(-0.5, 0.5, (m, 2)) * draw(st.floats(0.1, 2.0))
    if m and draw(st.booleans()):
        pts = np.concatenate([pts, pts[:draw(st.integers(1, m))]])
    vantages = [rng.uniform(-0.5, 0.5, 2), rng.uniform(-d, d, 2)]
    if m:
        vantages.append(pts[draw(st.integers(0, len(pts) - 1))])
    if far:
        vantages.append(np.array([0.5 - d, 0.0]))
    phi = draw(st.floats(0.0, TWO_PI))
    vantages += [edge * np.array([math.cos(phi), math.sin(phi)])
                 for edge in (d, d + 2 * delta, d + (c + 3) * delta)]
    reach = draw(st.sampled_from([2.0, c])) * delta
    pairs = []
    for _ in range(draw(st.integers(0, 3))):
        th = draw(st.integers(0, fam.k1_count - 1)) * delta
        along = np.array([math.cos(th), math.sin(th)])
        normal = np.array([-math.sin(th), math.cos(th)])
        k2 = draw(st.integers(fam.k2_min, fam.k2_max))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        a = (draw(st.floats(-d, d)) * along
             + (k2 * delta - sign * reach) * normal)
        vantages.append(a)
        pairs.append(a + draw(st.floats(-3.0, 3.0)) * along
                     + sign * (c * delta + reach) * normal)
    pts = np.concatenate([pts, np.reshape(pairs, (-1, 2))])
    A = PointCloud(pts, delta)
    return fam, A, [Point2(*map(float, a)) for a in vantages], c, reach


class TestCandidateEngine:
    """vis_delta and the direction sums behind mass, cone_count and
    select_intervals come from each point's candidate directions; pin them
    to the row engine's counts and to the direct sums, exactly."""

    @settings(max_examples=120, deadline=None)
    @given(case=candidate_cases(), block=st.sampled_from([1, 7, 2 ** 14]))
    def test_candidates_match_rows(self, case, block):
        fam, A, vantages, c, reach = case
        with mock.patch.object(_kernels, "_LINE_BLOCK", block):
            assert vis_delta(vantages, A, fam, c) == row_vis_delta(
                vantages, A, fam, c)
            for a in vantages:
                for r in (2 * fam.delta, c * fam.delta):
                    assert np.array_equal(
                        vis_mod._direction_sums(a, A, fam, c, r, 1)[0],
                        row_direction_sums(a, A, fam, c, r))

    def test_benchmark_and_bridge_vantages(self, gens):
        """The four-corner cloud at n = 4 from vantages beside, inside and
        on a corner of the unit square, the benchmark's vantage box and the
        bridge's abscissae."""
        A = cloud_from_generation(gens(4))
        fam = build_line_family(A.delta, 10.0)
        vantages = ([Point2(-0.25, 0.5), Point2(-0.4, 0.9), Point2(0.5, 0.5),
                     Point2(0.125, 0.125), Point2(-0.1, 0.1),
                     Point2(-0.1, 0.9)]
                    + [Point2(-9.5 + i, 0.0) for i in range(10)])
        assert vis_delta(vantages, A, fam) == row_vis_delta(vantages, A, fam,
                                                            DEFAULT_C)
        for a in vantages[::3]:
            assert np.array_equal(
                vis_mod._direction_sums(a, A, fam, DEFAULT_C, 2 * A.delta,
                                        1)[0],
                row_direction_sums(a, A, fam, DEFAULT_C, 2 * A.delta))


def test_line_queries_keep_work_budget():
    """Each query over the line family refuses a stream past the work cap
    before it windows a point: directions x (points + _DIRECTION_STEPS +
    row span + vantages) for the queries that stream count rows, and, for
    the candidate engine, _DIRECTION_STEPS a direction once, per vantage
    the points and _VANTAGE_STEPS a direction, plus _MASK_STEPS a
    direction per arc mask; its candidates are not counted once the rest
    is past the cap.  A one-point cloud at delta = 1e-6 is refused as
    well: its points, spans, windows and candidates alone would pass, but
    its 3.1e6 directions each hold array entries (and, on the rows, cost
    interpreter work)."""
    a = Point2(-1.0, 0.0)
    per_dir, per_mask = vis_mod._DIRECTION_STEPS, vis_mod._MASK_STEPS
    per_vantage = vis_mod._VANTAGE_STEPS
    # the span: twice the cloud's radius about its box centre, in cells,
    # and 2 * DEFAULT_C + 2 cells more
    for delta, pts, r, want_width in (
            (1e-9, [[-1.5, 0.0], [1.5, 0.0], [0.0, 0.5]],
             math.hypot(1.5, 0.25), 3041381276),
            (1e-6, [[0.0, 0.0]], 0.0, 10)):
        fam = build_line_family(delta, 2.0)
        A = PointCloud(np.array(pts), delta)
        width = math.ceil(2 * r / fam.delta + 10)
        assert width == want_width < 2 * fam.k2_max + 1
        chord = int(math.floor(2 * math.sqrt(2.0 ** 2 - 0.5 ** 2)
                               / (fam.delta / 2)))
        dirs = fam.k1_count
        vantage = len(A) + (per_dir + per_vantage) * dirs
        queries = [
            (lambda: vis_delta([a], A, fam), vantage),
            (lambda: mass(a, (0.0, TWO_PI), A, fam),
             vantage + per_mask * dirs),
            (lambda: cone_count(a, (0.0, TWO_PI), A, fam),
             vantage + per_mask * dirs),
            (lambda: select_intervals(a, A, fam, 12),
             vantage + 12 * per_mask * dirs),
            (lambda: scan_line_low_visibility(Line(0.0, 0.5), A, fam,
                                              [0.5]),
             dirs * (len(A) + per_dir + width + chord)),
            (lambda: radial_vs_projection_bridge(A, [-1.0], fam), vantage),
            (lambda: l2_norm_f(A, fam), dirs * (len(A) + per_dir + width)),
            (lambda: richness_histogram(A, fam),
             dirs * (len(A) + per_dir + width)),
        ]
        for query, work in queries:
            assert work > WORK_BUDGET
            with mock.patch.object(_kernels, "_k2_windows",
                                   side_effect=AssertionError("windowed")), \
                    mock.patch.object(_kernels, "_direction_ranges",
                                      side_effect=AssertionError("ranged")), \
                    pytest.raises(ResourceBudgetError,
                                  match=f"^line family needs {work} steps; "
                                        f"cap is {WORK_BUDGET}$"):
                query()
    # the last cloud's mass query without the per-query direction term:
    # its one point is a candidate of at most every direction
    assert len(A) + (1 + per_vantage + per_mask) * dirs < WORK_BUDGET


def test_many_vantage_queries_run(gens):
    """200 vantages at n = 6 are admitted: a query's directions are
    charged _DIRECTION_STEPS once, and each vantage _VANTAGE_STEPS a
    direction (170 were refused at _DIRECTION_STEPS a vantage).  Every
    tenth count is that vantage's own query's."""
    A = cloud_from_generation(gens(6))
    fam = build_line_family(A.delta, 2.5)
    rng = np.random.default_rng(7)
    vantages = [Point2(x, y) for x, y in zip(rng.uniform(-0.4, -0.1, 200),
                                             rng.uniform(0.1, 0.9, 200))]
    assert 200 * vis_mod._DIRECTION_STEPS * fam.k1_count > WORK_BUDGET
    found = vis_delta(vantages, A, fam)
    assert len(found) == 200 and min(found) > 0
    for a, vd in zip(vantages[::10], found[::10]):
        assert vis_delta([a], A, fam) == [vd]


def test_line_scan_tiny_step_hits_the_work_cap():
    """A step so small that the chord's sample count is an infinite float is
    refused by the work cap, not by an OverflowError from int()."""
    fam = build_line_family(0.1, 2.0)
    A = PointCloud(np.array([[0.0, 0.0]]), 0.1)
    with pytest.raises(ResourceBudgetError, match="^line family needs inf "):
        scan_line_low_visibility(Line(0.0, 0.0), A, fam, [0.5],
                                 sample_step=1e-320)


def streamed_steps(query):
    """Run query, counting the steps its streams take: the windows of the
    points and vantages, per count row its length and _DIRECTION_STEPS,
    for the candidate engine _DIRECTION_STEPS a direction once and per
    vantage its points, its candidates and _VANTAGE_STEPS a direction, and
    per arc mask _MASK_STEPS, each for every direction."""
    steps = 0
    queried = False
    windows, rows = _kernels._window_blocks, _kernels._count_rows
    candidates, masks = _kernels._candidate_windows, vis_mod._direction_mask

    def counting_windows(*args):
        nonlocal steps
        for a, b in windows(*args):
            steps += a.size
            yield a, b

    def counting_rows(*args):
        nonlocal steps
        for bases, block in rows(*args):
            steps += block.size + len(bases) * vis_mod._DIRECTION_STEPS
            yield bases, block

    def counting_candidates(px, py, ns, *args):
        nonlocal steps, queried
        if not queried:
            steps += ns.size * vis_mod._DIRECTION_STEPS
            queried = True
        steps += px.size + ns.size * vis_mod._VANTAGE_STEPS
        for k, a, b in candidates(px, py, ns, *args):
            steps += k.size
            yield k, a, b

    def counting_masks(fam, *args, **kwargs):
        nonlocal steps
        steps += fam.k1_count * vis_mod._MASK_STEPS
        return masks(fam, *args, **kwargs)

    with mock.patch.object(_kernels, "_window_blocks", counting_windows), \
            mock.patch.object(_kernels, "_count_rows", counting_rows), \
            mock.patch.object(_kernels, "_candidate_windows",
                              counting_candidates), \
            mock.patch.object(vis_mod, "_direction_mask", counting_masks):
        query()
    return steps


def assert_checked_work(query, steps):
    """query checks `steps` of line work: at a cap one step lower it is
    refused with that figure before it takes a window, and at a cap of
    `steps` it runs."""
    with mock.patch.object(vis_mod, "WORK_BUDGET", steps - 1), \
            mock.patch.object(_kernels, "_k2_windows",
                              side_effect=AssertionError("windowed")), \
            pytest.raises(ResourceBudgetError,
                          match=f"^line family needs {steps} steps; "
                                f"cap is {steps - 1}$"):
        query()
    with mock.patch.object(vis_mod, "WORK_BUDGET", steps):
        query()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_line_work_estimate_is_the_streamed_steps(gens, n):
    """The checked estimate is exactly what the streams then process, and
    the cap admits it exactly."""
    gen = gens(n)
    A = cloud_from_generation(gen)
    fam = build_line_family(float(gen.side), 2.5)
    vantages = [Point2(-1.0, -1.0), Point2(0.3, 0.4), Point2(2.0, 0.0)]
    queries = [
        lambda: vis_delta(vantages, A, fam),
        lambda: scan_line_low_visibility(Line(0.3, -0.5), A, fam, [0.5]),
        lambda: scan_line_low_visibility(Line(1.0, 0.2), A, fam, [0.5],
                                         sample_step=fam.delta / 3),
        lambda: l2_norm_f(A, fam),
        lambda: richness_histogram(A, fam),
        lambda: mass(vantages[1], (0.3, 1.0), A, fam),
        lambda: cone_count(vantages[0], (0.3, 1.0), A, fam),
        lambda: select_intervals(vantages[2], A, fam, 12),
    ]
    for query in queries:
        assert_checked_work(query, streamed_steps(query))


# ---------------------------------------------------------------------------
# the blocked arc union against one from_arcs union of every hull arc
# ---------------------------------------------------------------------------

def dense_projection(gen, a):
    """The one from_arcs union of the four-corner oracle's hull arcs of
    all the squares."""
    return CircularIntervalSet.from_arcs(np.column_stack(
        four_corner_hulls(gen.corner_x, gen.corner_y, gen.sides, a)))


def arc_bits(arcs):
    return np.array(arcs.arcs, dtype=float).tobytes()


def preset_vantages(sys_, n):
    """Vantages left of the hull, inside the first stage-n square, on a
    square corner, on a square edge and far away.  0.2 = 0.0303... in base
    4 lies in the four-corner Cantor set, so the ray at height 0.2 of the
    hull meets a square at every depth (whose arc then crosses the seam)
    and (0.2, 0) lies on a square's bottom edge; (1/4, 1/4) is the
    upper-right corner of a square at every depth >= 1."""
    x, y, side = sys_.hull.corner.x, sys_.hull.corner.y, sys_.hull.side
    half = side * 0.25 ** n / 2
    return {"left": Point2(x - 0.25 * side, y + 0.2 * side),
            "inside": Point2(x + half, y + half),
            "corner": Point2(x + 0.25 * side, y + 0.25 * side),
            "edge": Point2(x + 0.2 * side, y),
            "far": Point2(x + 40 * side, y - 25 * side)}


@pytest.mark.parametrize("block", [1, 7, vis_mod._ARC_BLOCK])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_blocked_union_is_the_one_union(monkeypatch, name, block):
    """radial_projection and streamed_visibility give the one union's arcs
    and measure bit for bit at n <= 7 (n <= 5 for one square a block, which
    costs about 2 s a vantage at n = 7)."""
    sys_ = preset(name)
    gens = [generate_generation(sys_, n) for n in range(6 if block == 1
                                                        else 8)]
    monkeypatch.setattr(vis_mod, "_ARC_BLOCK", block)
    for n, gen in enumerate(gens):
        vantages = preset_vantages(sys_, n)
        starts, widths = hull_arcs_of_squares(
            gen.corner_x, gen.corner_y, gen.sides, vantages["left"])
        assert np.any(starts + widths > TWO_PI)     # arcs cross the seam
        wants = {key: dense_projection(gen, a)
                 for key, a in vantages.items()}
        assert wants["inside"].is_full()
        for key, a in vantages.items():
            assert arc_bits(radial_projection(gen, a)) == arc_bits(
                wants[key]), (n, key)
        if n <= 5:
            assert streamed_visibility(sys_, n, list(vantages.values())) == [
                (want.measure() / TWO_PI, len(want))
                for want in wants.values()]


@st.composite
def homothety_systems(draw):
    """A homothety IFS of 2-5 maps with unequal ratios; its images may
    overlap and leave the hull."""
    s = draw(st.integers(2, 5))
    maps = tuple(Similitude(draw(st.sampled_from([0.25, 0.5]) | st.floats(
        0.2, 0.6)), (draw(st.floats(-0.2, 0.8)), draw(st.floats(-0.2, 0.8))))
        for _ in range(s))
    corner = Point2(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    return IFSystem(maps, Square(corner, draw(st.floats(0.5, 2.0))))


@settings(max_examples=40, deadline=None)
@given(sys_=homothety_systems(), n=st.integers(0, 6),
       a=st.tuples(st.floats(-2.0, 3.0), st.floats(-2.0, 3.0)),
       block=st.sampled_from([1, 7, 100]))
def test_blocked_union_matches_on_random_systems(sys_, n, a, block):
    """At most 4000 squares, blocks of `block` squares: the arcs, the
    measure and the arc count are the one union's."""
    n = min(n, int(math.log(4000) / math.log(sys_.s)))
    gen = generate_generation(sys_, n)
    a = Point2(*a)
    want = dense_projection(gen, a)
    with mock.patch.object(vis_mod, "_ARC_BLOCK", block):
        assert arc_bits(radial_projection(gen, a)) == arc_bits(want)
        assert streamed_visibility(sys_, n, [a]) == [
            (want.measure() / TWO_PI, len(want))]


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_visibility_memory_is_blocked(fourcorner):
    """At n = 8 (four blocks) the streamed path peaks below a third of the
    dense path that it replaced, which builds the generation and then every
    hull arc from all four corners."""
    a = Point2(-0.25, 0.5)

    def dense():
        gen = generate_generation(fourcorner, 8)
        dense_projection(gen, a)

    streamed = traced_peak(lambda: streamed_visibility(fourcorner, 8, [a]))
    assert streamed < traced_peak(dense) / 3


def test_radial_projection_peaks_as_the_streamed_path(fourcorner):
    """At n = 9 the arc set holds the union's arrays as they come, so over
    the generation it peaks within 1.1 times the streamed visibility, whose
    measure and arc count are the set's bit for bit; a measure is the
    np.sum of the arc lengths."""
    a = Point2(-0.25, 0.5)
    gen = generate_generation(fourcorner, 9)
    found = []
    direct = traced_peak(lambda: found.append(radial_projection(gen, a)))
    streamed = traced_peak(
        lambda: found.append(streamed_visibility(fourcorner, 9, [a])))
    arcs, [(vis, count)] = found
    assert direct <= 1.1 * streamed
    assert vis == arcs.measure() / TWO_PI and count == len(arcs)
    assert arcs.measure() == float(np.sum(np.array(arcs.arcs)[:, 1]))


def test_streamed_visibility_checks_its_squares(fourcorner):
    """The squares streamed for every vantage are checked once, before any
    block is built, against WORK_BUDGET >> 5; the power is capped for a
    huge n."""
    cap = WORK_BUDGET >> 5
    assert streamed_visibility(fourcorner, 0, [Point2(-1.0, 0.5)] * 3)
    with mock.patch.object(vis_mod, "_generation_blocks") as blocks:
        for n, m, need in [(12, 3, 3 * 4 ** 12), (13, 1, 4 ** 13),
                           (10 ** 8, 1, 4 ** cap.bit_length())]:
            with pytest.raises(ResourceBudgetError) as err:
                streamed_visibility(fourcorner, n, [Point2(-1.0, 0.5)] * m)
            assert str(err.value) == (f"visibility of generation {n} needs "
                                      f"{need} squares; cap is {cap}")
    blocks.assert_not_called()
    with pytest.raises(ValueError, match="generation index"):
        streamed_visibility(fourcorner, -1, [Point2(-1.0, 0.5)])

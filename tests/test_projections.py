"""Linear projections, Favard quadrature, and the counting/maximal/stacking
pipeline."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from favlab import _kernels, projections
from favlab.geometry import GeometryError, Point2, Square
from favlab.ifs import (WORK_BUDGET, Generation, IFSystem,
                        ResourceBudgetError, Similitude, generate_generation,
                        preset)
from favlab.projections import (AngleGrid, DegenerateError, bad_angle_measure,
                                favard_length, favard_lengths,
                                fav_upper_pipeline, hl_maximal,
                                project_generation, projection_measures,
                                stacked_census, sup_projection_count)


def projection_count(gen, theta, r):
    """Oracle: the number of squares whose closed theta-projection, the span
    of their projected corners, contains r."""
    side = np.reshape(gen.sides, (-1, 1))
    t = ((gen.corner_x[:, None] + side * [0, 1, 1, 0]) * math.cos(theta)
         + (gen.corner_y[:, None] + side * [0, 0, 1, 1]) * math.sin(theta))
    return int(np.count_nonzero((t.min(axis=1) <= r) & (r <= t.max(axis=1))))


def sweep_measure_where(gen, theta, predicate):
    """Independent endpoint-sweep integral of {r : predicate(count(r))}.

    Sorts all interval endpoints and accumulates the length of the regions
    where the running open-interval count satisfies the predicate.
    """
    c, s = math.cos(theta), math.sin(theta)
    lo = (gen.corner_x * c + gen.corner_y * s
          + gen.sides * (min(c, 0.0) + min(s, 0.0)))
    hi = lo + gen.sides * (abs(c) + abs(s))
    xs = np.concatenate([lo, hi])
    deltas = np.concatenate([np.ones(lo.size), -np.ones(hi.size)])
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    running = np.cumsum(deltas[order])
    total = 0.0
    for i in range(len(xs) - 1):
        if predicate(running[i]):
            total += xs[i + 1] - xs[i]
    return total


class TestProjectGeneration:
    def test_stage_one_horizontal(self, gens):
        iv = project_generation(gens(1), 0.0)
        assert iv.intervals == [(0.0, 0.25), (0.75, 1.0)]
        assert iv.measure() == 0.5

    def test_stage_one_diagonal(self, gens):
        iv = project_generation(gens(1), math.pi / 4)
        assert iv.measure() == pytest.approx(3 * math.sqrt(2) / 4, abs=1e-12)

    def test_unit_square_any_angle(self, gens):
        g0 = gens(0)
        for th in (0.0, 0.3, 1.2, 2.5, 3.0):
            assert project_generation(g0, th).measure() == pytest.approx(
                abs(math.cos(th)) + abs(math.sin(th)), abs=1e-12)

    def test_support_matches_sweep_oracle(self, gens):
        g = gens(3)
        for th in (0.1, 0.7, 1.9, 2.8):
            direct = project_generation(g, th).measure()
            oracle = sweep_measure_where(g, th, lambda k: k >= 1)
            assert direct == pytest.approx(oracle, abs=1e-12)

    def test_mass_conservation(self, gens):
        """Sum of per-square widths is side*s^n*lam^n*(|cos|+|sin|)."""
        g = gens(4)
        rng = np.random.default_rng(0)
        for th in rng.uniform(0, math.pi, 8):
            c, s = math.cos(th), math.sin(th)
            total = float(np.sum(g.sides * (abs(c) + abs(s))))
            assert total == pytest.approx(abs(c) + abs(s), abs=1e-12)

    def test_empty_rejected(self, fourcorner):
        from favlab.ifs import Generation
        empty = Generation(fourcorner, 1, np.empty(0), np.empty(0),
                           np.empty(0))
        with pytest.raises(ValueError):
            project_generation(empty, 0.0)


class TestFavard:
    def test_unit_square_closed_form(self, gens, grid4096):
        got = favard_length(gens(0), grid4096)
        assert got == pytest.approx(4 / math.pi, abs=1e-6)

    def test_empty_generation(self, fourcorner, grid256):
        from favlab.ifs import Generation
        empty = Generation(fourcorner, 1, np.empty(0), np.empty(0),
                           np.empty(0))
        assert favard_length(empty, grid256) == 0.0

    def test_monotone_in_n(self, gens, grid256):
        vals = [favard_length(gens(n), grid256) for n in range(1, 6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_batch_matches_scalar(self, gens, grid256):
        g = gens(2)
        ms = projection_measures(g, grid256.thetas)
        for i in (0, 64, 200):
            th = float(grid256.thetas[i])
            assert ms[i] == pytest.approx(
                project_generation(g, th).measure(), abs=1e-12)


class TestProjectionCount:
    def test_left_column_pair(self, gens):
        assert projection_count(gens(1), 0.0, 0.1) == 2

    def test_outside_support(self, gens):
        assert projection_count(gens(1), 0.0, 0.5) == 0
        assert projection_count(gens(1), 0.0, -0.2) == 0

    def test_diagonal_mixed_squares(self, gens):
        # both mixed-corner squares project onto [0.53033, 0.88388]
        assert projection_count(gens(1), math.pi / 4, 0.7) == 2

    def test_chebyshev(self, gens):
        """|{f >= K}| <= (1/K) * integral of f."""
        g = gens(3)
        for th, K in ((0.0, 4), (0.9, 3), (2.2, 2)):
            level = sweep_measure_where(g, th, lambda k: k >= K)
            integral = float(np.sum(
                g.sides * (abs(math.cos(th)) + abs(math.sin(th)))))
            assert level <= integral / K + 1e-12

    def test_sup_count_columns(self, gens):
        for n in range(1, 5):
            assert sup_projection_count(gens(n), 0.0) == 2 ** n

    def test_sup_count_vs_probe(self, gens):
        g = gens(2)
        for th in (0.3, 1.1, 2.0):
            sup = sup_projection_count(g, th)
            rs = np.linspace(-1.5, 1.5, 4001)
            probed = max(projection_count(g, th, float(r)) for r in rs)
            assert sup >= probed
            assert sup <= 16


class TestHLMaximal:
    def test_unit_square_interior(self, gens):
        assert hl_maximal(gens(0), 0.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_unit_square_boundary(self, gens):
        # uncentered windows keep the average 1 at the support edge
        assert hl_maximal(gens(0), 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_stage_one_left_column(self, gens):
        assert hl_maximal(gens(1), 0.0, 0.1) >= 1.0

    def test_dominates_half_count(self, gens):
        """Mf(r) >= f(r)/2: every square through r covers at least half of
        the smallest aligned window."""
        g = gens(3)
        rng = np.random.default_rng(5)
        for _ in range(40):
            th = rng.uniform(0, math.pi)
            r = rng.uniform(-0.2, 1.2)
            assert hl_maximal(g, th, r) >= projection_count(g, th, r) / 2 - 1e-9

    def test_bounded_by_sup(self, gens):
        g = gens(2)
        for th in (0.0, 0.7):
            sup = sup_projection_count(g, th)
            for r in (0.1, 0.5, 0.9):
                assert hl_maximal(g, th, r) <= sup + 1e-9


class TestStackedCensus:
    def test_low_threshold_all_stacked(self, gens):
        rep = stacked_census(gens(1), 0.0, 1.0)
        assert rep.stacked_fraction == 1.0

    def test_high_threshold_none(self, gens):
        rep = stacked_census(gens(2), 0.3, 17.0)
        assert rep.stacked_fraction == 0.0

    def test_rejects_nonpositive_K(self, gens):
        with pytest.raises(ValueError):
            stacked_census(gens(1), 0.0, 0.0)

    def test_rejects_nan_K(self, gens):
        with pytest.raises(ValueError):
            stacked_census(gens(1), 0.0, math.nan)

    def test_fine_grid_oracle(self, gens):
        """Cross-check the ladder maximal against a fine-grid window oracle
        at step 4^-4, for the n=2, theta=0, K=3 fixture."""
        g = gens(2)
        step = 4.0 ** -4
        xs = np.arange(-0.5, 1.5, step)
        f = np.array([projection_count(g, 0.0, float(x)) for x in xs])
        cum = np.concatenate([[0.0], np.cumsum(f) * step])

        def oracle_max(r):
            best = 0.0
            for half in [g.side / 2 * 2 ** k for k in range(8)]:
                for shift in (-half, 0.0, half):
                    a = np.searchsorted(xs, r + shift - half)
                    b = np.searchsorted(xs, r + shift + half)
                    if b > a:
                        best = max(best, (cum[b] - cum[a]) / (2 * half))
            return best

        lo = g.corner_x + 0.0
        hi = lo + g.side
        stacked = 0
        for i in range(len(g)):
            rs = np.linspace(lo[i], hi[i], 9)
            if all(oracle_max(float(r)) >= 3.0 for r in rs):
                stacked += 1
        rep = stacked_census(g, 0.0, 3.0)
        assert abs(rep.stacked_fraction - stacked / len(g)) <= 0.1

    def test_report_support(self, gens):
        rep = stacked_census(gens(2), 0.0, 3.0)
        assert rep.support_measure == pytest.approx(
            project_generation(gens(2), 0.0).measure(), abs=1e-12)


class TestBadAngles:
    def test_hull_only_empty_bad_set(self, fourcorner, grid256):
        report = bad_angle_measure(fourcorner, 0, grid256)
        # K = 1/sqrt(4/pi) < 1 while sup f = 1 everywhere
        assert report.K < 1.0
        assert report.measure_estimate == 0.0
        assert report.bad_thetas == ()

    def test_threshold_value(self, fourcorner, gens, grid256):
        report = bad_angle_measure(fourcorner, 2, grid256)
        fav = favard_length(gens(2), grid256)
        assert report.K == pytest.approx(1 / math.sqrt(fav), abs=1e-12)

    def test_bad_measure_times_K_bounded(self, fourcorner, grid256):
        for L in (1, 2, 3):
            rep = bad_angle_measure(fourcorner, L, grid256)
            assert rep.measure_estimate * rep.K <= 10.0

    def test_sups_are_per_angle(self, fourcorner, gens, grid256):
        rep = bad_angle_measure(fourcorner, 2, grid256)
        want = [sup_projection_count(gens(2), (th - math.pi / 2) % math.pi)
                for th in grid256.thetas]
        assert list(rep.sups) == want
        assert rep.bad_thetas == tuple(
            float(th) for th, sup in zip(grid256.thetas, want)
            if sup <= rep.K)

    def test_bad_angles_are_low_sup(self, fourcorner, gens, grid256):
        rep = bad_angle_measure(fourcorner, 2, grid256)
        g = gens(2)
        for th in rep.bad_thetas[:10]:
            direction = (th - math.pi / 2) % math.pi
            assert sup_projection_count(g, direction) <= rep.K


class TestFavPipeline:
    def test_base_case(self, fourcorner, grid256):
        vis, bound = fav_upper_pipeline(fourcorner, Point2(-1, -1), 1, grid256)
        assert 0 < vis < 1
        assert bound == pytest.approx(math.sqrt(4 / math.pi), abs=1e-2)

    def test_vantage_too_close(self, fourcorner, grid256):
        with pytest.raises(ValueError, match="too close"):
            fav_upper_pipeline(fourcorner, Point2(0.5, 1.01), 3, grid256)

    #: (vis, bound) per depth 0..6 at 256 angles, as float.hex, from the
    #: pipeline when it built the stage-n generation and projected it whole
    FROZEN = {
        ("fourcorner", (-0.25, 0.5)): [
            ("0x1.68dfd7131067cp-2", "0x1.20ddb069741aap+0"),
            ("0x1.28888ea0eeecbp-2", "0x1.20ddb069741aap+0"),
            ("0x1.f3fe508568cbep-3", "0x1.064fdd860b241p+0"),
            ("0x1.cf1fa40420e55p-3", "0x1.064fdd860b241p+0"),
            ("0x1.a1b96f5a9bdb2p-3", "0x1.064fdd860b241p+0"),
            ("0x1.89d0e2ad1e285p-3", "0x1.ed3714130cf18p-1"),
            ("0x1.6daa656c97bc1p-3", "0x1.ed3714130cf18p-1")],
        ("fourcorner", (-1.0, -1.0)): [
            ("0x1.a37f5c4c419eep-4", "0x1.20ddb069741aap+0"),
            ("0x1.5c73a1e299a1ep-4", "0x1.20ddb069741aap+0"),
            ("0x1.4bfd8040499d5p-4", "0x1.064fdd860b241p+0"),
            ("0x1.2cb687c4b39c1p-4", "0x1.064fdd860b241p+0"),
            ("0x1.1cd5ff6db17e5p-4", "0x1.064fdd860b241p+0"),
            ("0x1.0887cfa00f747p-4", "0x1.ed3714130cf18p-1"),
            ("0x1.f0f050855bb9cp-5", "0x1.ed3714130cf18p-1")],
        ("fourcorner-annulus", (1.25, 2.0)): [
            ("0x1.68dfd7131067cp-2", "0x1.20ddb069741aap+0"),
            ("0x1.28888ea0eeecbp-2", "0x1.20ddb069741aap+0"),
            ("0x1.f3fe508568cbep-3", "0x1.064fdd860b241p+0"),
            ("0x1.cf1fa40420e55p-3", "0x1.064fdd860b241p+0"),
            ("0x1.a1b96f5a9bdb2p-3", "0x1.064fdd860b241p+0"),
            ("0x1.89d0e2ad1e285p-3", "0x1.ed3714130cf18p-1"),
            ("0x1.6daa656c97bc1p-3", "0x1.ed3714130cf18p-1")],
        ("fourcorner-annulus", (-1.0, -1.0)): [
            ("0x1.aea40b4c08663p-5", "0x1.20ddb069741aap+0"),
            ("0x1.51eb6bcd1a73ep-5", "0x1.20ddb069741aap+0"),
            ("0x1.20784dc34741dp-5", "0x1.064fdd860b241p+0"),
            ("0x1.e822b9b8e3a6dp-6", "0x1.064fdd860b241p+0"),
            ("0x1.b9970c80d0afcp-6", "0x1.064fdd860b241p+0"),
            ("0x1.8cad5d0a4eec0p-6", "0x1.ed3714130cf18p-1"),
            ("0x1.696d9f98d9110p-6", "0x1.ed3714130cf18p-1")],
        ("fourcorner-wide", (-3.75, 10.5)): [
            ("0x1.68dfd7131067cp-2", "0x1.3ac8ce30deb7cp+2"),
            ("0x1.28888ea0eeecbp-2", "0x1.3ac8ce30deb7cp+2"),
            ("0x1.f3fe508568cbep-3", "0x1.1dd90c78137e8p+2"),
            ("0x1.cf1fa40420e55p-3", "0x1.1dd90c78137e8p+2"),
            ("0x1.a1b96f5a9bdb2p-3", "0x1.1dd90c78137e8p+2"),
            ("0x1.89d0e2ad1e283p-3", "0x1.0cbbfff8bea1bp+2"),
            ("0x1.6daa656c97bb8p-3", "0x1.0cbbfff8bea1bp+2")],
        ("fourcorner-wide", (-1.0, -1.0)): [
            ("0x1.c219e26aff6e5p-3", "0x1.3ac8ce30deb7cp+2"),
            ("0x1.c219e26aff6e9p-3", "0x1.3ac8ce30deb7cp+2"),
            ("0x1.7d7e0db2f45cbp-3", "0x1.1dd90c78137e8p+2"),
            ("0x1.6f7126890a959p-3", "0x1.1dd90c78137e8p+2"),
            ("0x1.59326d6a4c419p-3", "0x1.1dd90c78137e8p+2"),
            ("0x1.463b953e2d1e2p-3", "0x1.0cbbfff8bea1bp+2"),
            ("0x1.3443eadb018ebp-3", "0x1.0cbbfff8bea1bp+2")],
    }

    @pytest.mark.parametrize("name, vantage", sorted(FROZEN))
    def test_frozen_values(self, grid256, name, vantage):
        """The streamed visibility leaves (vis, bound) bit for bit."""
        sys_ = preset(name)
        got = [tuple(v.hex() for v in fav_upper_pipeline(
            sys_, Point2(*vantage), n, grid256)) for n in range(7)]
        assert got == self.FROZEN[name, vantage]

    def test_vis_decay_and_bounded_ratio(self, fourcorner, grid256):
        a = Point2(-1.0, -1.0)
        vals = []
        for n in range(4, 8):
            vis, bound = fav_upper_pipeline(fourcorner, a, n, grid256)
            vals.append((vis, bound))
        for (v1, _), (v2, _) in zip(vals, vals[1:]):
            assert v2 <= v1 * 1.05
        ratios = [v / b for v, b in vals]
        assert max(ratios) <= 1.0     # visibility never exceeds sqrt(Fav) here


# ---------------------------------------------------------------------------
# the sorted-endpoint engine against the per-probe and per-square code it
# replaced
# ---------------------------------------------------------------------------

def projection_bounds(gen, theta):
    c, s = math.cos(theta), math.sin(theta)
    lo = (gen.corner_x * c + gen.corner_y * s
          + gen.sides * (min(c, 0.0) + min(s, 0.0)))
    return lo, lo + gen.sides * (abs(c) + abs(s))


def hl_maximal_per_probe(gen, theta, r):
    """One O(N) clipped-overlap pass per window, for a single probe r."""
    lo, hi = projection_bounds(gen, theta)
    base = gen.side * (abs(math.cos(theta)) + abs(math.sin(theta)))
    if base <= 0:
        return 0.0
    kmax = max(0, math.ceil(math.log2(max(len(gen), 1))))
    best = 0.0
    rho = base / 2
    for _ in range(kmax + 2):
        for shift in (-rho, 0.0, rho):
            overlap = (np.minimum(hi, r + shift + rho)
                       - np.maximum(lo, r + shift - rho))
            mass = float(np.sum(np.clip(overlap, 0.0, None)))
            best = max(best, mass / (2 * rho))
        rho *= 2
    return best


def stacked_minima_per_square(gen, theta):
    """Per square, the least per-probe maximal value over its 9 probes."""
    lo, hi = projection_bounds(gen, theta)
    return np.array([min(hl_maximal_per_probe(gen, theta, float(r))
                         for r in np.linspace(lo[i], hi[i], 9))
                     for i in range(len(gen))])


def sup_by_lexsort_sweep(gen, theta):
    """Sorted +1/-1 endpoint sweep, openings before closings at ties."""
    lo, hi = projection_bounds(gen, theta)
    xs = np.concatenate([lo, hi])
    order = np.concatenate([np.zeros(lo.size, dtype=np.int8),
                            np.ones(hi.size, dtype=np.int8)])
    deltas = np.concatenate([np.ones(lo.size, dtype=np.int64),
                             -np.ones(hi.size, dtype=np.int64)])
    return int(np.cumsum(deltas[np.lexsort((order, xs))]).max())


@st.composite
def homothety_generations(draw):
    """A generation of a random equal-ratio homothety IFS on the unit
    square; dyadic ratios and offsets make exact ties likely."""
    s = draw(st.integers(2, 4))
    lam = draw(st.sampled_from([0.5, 0.25, 1 / 3, 0.3]))
    offsets = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1 - lam]),
                        st.floats(0.0, 1 - lam))
    maps = tuple(Similitude(lam, (draw(offsets), draw(offsets)))
                 for _ in range(s))
    sys_ = IFSystem(maps, Square(Point2(0.0, 0.0), 1.0))
    return generate_generation(sys_, draw(st.integers(0, 3)))


ANGLES = st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2,
                                    3 * math.pi / 4]),
                   st.floats(0.0, math.pi, exclude_max=True))


@settings(max_examples=60, deadline=None)
@given(gen=homothety_generations(), theta=ANGLES,
       rs=st.lists(st.one_of(st.floats(-1.5, 1.5),
                             st.sampled_from([0.0, 0.25, 0.5, 1.0])),
                   min_size=1, max_size=20))
def test_hl_maximal_matches_per_probe(gen, theta, rs):
    got = hl_maximal(gen, theta, np.array(rs))
    want = [hl_maximal_per_probe(gen, theta, r) for r in rs]
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
    assert isinstance(hl_maximal(gen, theta, rs[0]), float)
    assert hl_maximal(gen, theta, rs[0]) == got[0]


@settings(max_examples=40, deadline=None)
@given(gen=homothety_generations(), theta=ANGLES,
       K=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                   st.floats(0.1, 6.0)))
def test_stacked_census_matches_per_square(gen, theta, K):
    """The fraction equals the per-square count, up to probes whose
    maximal value lies within 1e-9 of K; K runs over the drawn value and
    every midpoint between two squares' least probe values."""
    minima = stacked_minima_per_square(gen, theta)
    levels = np.unique(minima)
    for k in [K, *((levels[1:] + levels[:-1]) / 2)]:
        got = stacked_census(gen, theta, k).stacked_fraction * len(gen)
        assert np.count_nonzero(minima >= k + 1e-9) <= got
        assert got <= np.count_nonzero(minima >= k - 1e-9)


def unit_generation(maps, n):
    return generate_generation(
        IFSystem(tuple(Similitude(r, t) for r, t in maps),
                 Square(Point2(0.0, 0.0), 1.0)), n)


# halves whose projections touch at theta = 0 and pi/2 (lo_j == hi_i)
TOUCHING = unit_generation([(0.5, (0.0, 0.0)), (0.5, (0.5, 0.5))], 3)
# repeated maps: coincident squares, equal lo and equal hi
COINCIDENT = unit_generation([(0.5, (0.0, 0.0)), (0.5, (0.0, 0.0)),
                              (0.5, (0.5, 0.0))], 3)
# unequal ratios whose images touch and share edges
UNEQUAL = unit_generation([(0.5, (0.0, 0.0)), (0.25, (0.5, 0.5)),
                           (0.25, (0.75, 0.25)), (0.5, (0.5, 0.5))], 3)


@settings(max_examples=100, deadline=None)
@given(gen=homothety_generations(), theta=ANGLES)
@example(gen=generate_generation(preset("fourcorner"), 3), theta=0.0)
@example(gen=generate_generation(preset("fourcorner"), 3), theta=math.pi / 2)
@example(gen=TOUCHING, theta=0.0)
@example(gen=TOUCHING, theta=math.pi / 2)
@example(gen=TOUCHING, theta=math.pi / 4)
@example(gen=COINCIDENT, theta=0.0)
@example(gen=COINCIDENT, theta=0.7)
@example(gen=UNEQUAL, theta=0.0)
@example(gen=UNEQUAL, theta=math.pi / 2)
@example(gen=UNEQUAL, theta=1.1)
def test_sup_count_matches_lexsort_sweep(gen, theta):
    """The merge of the sorted lo and hi runs counts closed intervals: a
    lo tied with a hi opens first (columns of the four-corner set coincide
    at theta = 0, and the halves of TOUCHING share endpoints)."""
    assert sup_projection_count(gen, theta) == sup_by_lexsort_sweep(gen, theta)


def sup_by_merged_runs(gen, theta):
    """One angle's sup from its own merge: the sorted lo run, then the
    sorted hi run, stably argsorted, so a lo goes before a tied hi."""
    lo, hi = projection_bounds(gen, theta)
    order = np.argsort(np.concatenate((np.sort(lo), np.sort(hi))),
                       kind="stable")
    p = np.flatnonzero(order < lo.size)
    return int((np.arange(1, 2 * lo.size, 2) - p).max())


PRESET_GENS = [generate_generation(preset(name), 3) for name in
               ("fourcorner", "fourcorner-wide", "fourcorner-annulus")]


@settings(max_examples=60, deadline=None)
@given(gen=st.one_of(homothety_generations(),
                     st.sampled_from([TOUCHING, COINCIDENT, UNEQUAL,
                                      *PRESET_GENS])),
       thetas=st.lists(ANGLES, min_size=1, max_size=13),
       rows=st.integers(1, 5))
def test_sup_counts_match_lexsort_sweep(gen, thetas, rows):
    """The kernel's sups over a grid are the per-angle sweep's, with
    blocks of `rows` angles that split the grid unevenly, on one, two and
    three workers.  The threads switch every microsecond, so that a write
    to another block's entries would show."""
    thetas = np.array(thetas)
    want = [sup_by_lexsort_sweep(gen, th) for th in thetas]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            with mock.patch.object(_kernels, "_PASS",
                                   rows * len(gen)), \
                    mock.patch.object(_kernels, "_workers", lambda: workers):
                got = _kernels._sup_counts(gen.corner_x, gen.corner_y,
                                           gen.sides, thetas)
            assert got.dtype == np.int64
            assert got.tolist() == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("name", ["fourcorner", "fourcorner-wide",
                                  "fourcorner-annulus"])
@pytest.mark.parametrize("n", range(6))
def test_bad_angle_sups_match_per_angle_oracle(grid256, name, n):
    sys_ = preset(name)
    g = generate_generation(sys_, n)
    rep = bad_angle_measure(sys_, n, grid256)
    want = [sup_by_merged_runs(g, (th - math.pi / 2) % math.pi)
            for th in grid256.thetas]
    assert list(rep.sups) == want
    assert all(type(sup) is int for sup in rep.sups)


def test_engine_matches_old_code_at_depth(gens):
    """n=5: the maximal function over the probes of every 7th square, and
    the sup.  The prefix sums carry their rounding errors, which keeps the
    windows within 1e-11 of the overlap sums (plain cumsums drift by 2e-10
    here, and by 2e-9 at n=6)."""
    g = gens(5)
    for th in (0.3, 1.9):
        lo, hi = projection_bounds(g, th)
        rs = np.linspace(lo, hi, 9, axis=1)[::7].ravel()
        want = [hl_maximal_per_probe(g, th, float(r)) for r in rs]
        assert hl_maximal(g, th, rs) == pytest.approx(want, rel=0, abs=1e-11)
        assert sup_projection_count(g, th) == sup_by_lexsort_sweep(g, th)


def test_angle_grid_contract():
    g = AngleGrid(7)
    assert len(g.thetas) == 7
    assert g.thetas[0] == pytest.approx(g.spacing / 2)
    assert g.thetas[-1] < math.pi
    with pytest.raises(ValueError):
        AngleGrid(0)


@pytest.mark.parametrize("count", [2.5, 3.0, "3", True, math.nan, math.inf,
                                   -1, 0])
def test_angle_grid_refuses_non_integer_count(count):
    """2.5 angles would give 3 thetas, the last at pi, spaced pi/2.5."""
    with pytest.raises(ValueError, match="angle count must be an integer"):
        AngleGrid(count)
    assert AngleGrid(np.int64(3)).thetas.size == 3


QUERIES = {
    "project_generation": project_generation,
    "sup_projection_count": sup_projection_count,
    "hl_maximal": lambda gen, theta: hl_maximal(gen, theta, 0.1),
    "stacked_census": lambda gen, theta: stacked_census(gen, theta, 1.0)}


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_empty_generation_refused(fourcorner, query):
    empty = Generation(fourcorner, 1, np.empty(0), np.empty(0), np.empty(0))
    with pytest.raises(ValueError, match="^empty generation$"):
        QUERIES[query](empty, 0.0)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_non_finite_theta_refused(gens, query, theta):
    with pytest.raises(GeometryError, match="^non-finite angle"):
        QUERIES[query](gens(2), theta)


def test_projection_measures_refuse_non_finite_angles(gens):
    """The batch query refuses what the one-angle queries do, where it
    returned nan with RuntimeWarnings."""
    with pytest.raises(GeometryError, match="^non-finite angle nan$"):
        projection_measures(gens(2), [0.5, math.nan, math.inf])


# ---------------------------------------------------------------------------
# the depth recursion of favard_lengths against the per-square flat path
# ---------------------------------------------------------------------------

def depth_measures(sys_, thetas, n):
    """The recursion's per-depth, per-angle measures and merged counts."""
    hull = sys_.hull
    return _kernels._depth_measures(
        np.array([m.lam for m in sys_.maps]),
        np.array([m.z[0] for m in sys_.maps]),
        np.array([m.z[1] for m in sys_.maps]), hull.corner.x, hull.corner.y,
        hull.side, np.asarray(thetas, dtype=float), n)


def flat_measures(sys_, thetas, n):
    """Per depth, the measures and merged counts of all the squares."""
    measures, counts = [], []
    for d in range(n + 1):
        g = generate_generation(sys_, d)
        measures.append(_kernels.projection_measures(
            g.corner_x, g.corner_y, g.sides, np.asarray(thetas, dtype=float)))
        counts.append([_kernels.merge_intervals(*_kernels._projection_bounds(
            g.corner_x, g.corner_y, g.sides, th))[0].size for th in thetas])
    return np.array(measures), np.array(counts)


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
@given(sys_=homothety_systems(), n=st.integers(0, 5),
       thetas=st.lists(ANGLES, min_size=1, max_size=12))
def test_depth_recursion_matches_flat_path(sys_, n, thetas):
    n = min(n, int(math.log(4000) / math.log(sys_.s)))   # <= 4000 squares
    got, got_counts = depth_measures(sys_, thetas, n)
    want, want_counts = flat_measures(sys_, thetas, n)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(got_counts, want_counts)


def test_depth_recursion_four_corner(fourcorner):
    """n <= 7 on 512 angles; the counts are the flat merges' at n <= 5 on
    every 8th angle."""
    thetas = AngleGrid(512).thetas
    got, counts = depth_measures(fourcorner, thetas, 7)
    for n in range(8):
        g = generate_generation(fourcorner, n)
        want = projection_measures(g, thetas)
        np.testing.assert_allclose(got[n], want, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(
        counts[:6, ::8], flat_measures(fourcorner, thetas[::8], 5)[1])


def test_depth_blocks_do_not_change_rows(fourcorner, monkeypatch):
    """One, two or three workers, and one angle per block, give the same
    bits as one worker with the default blocks, on the four-corner set and
    on an unequal-ratio system; 301 angles split unevenly into chunks.  The
    threads switch every microsecond, so that a write to another chunk's
    columns would show."""
    skew = IFSystem((Similitude(0.5, (0.0, 0.0)), Similitude(0.3, (0.6, 0.1)),
                     Similitude(0.25, (0.2, 0.75))),
                    Square(Point2(0.0, 0.0), 1.0))
    thetas = AngleGrid(301).thetas

    def rows():
        return [depth_measures(fourcorner, thetas, 6),
                depth_measures(skew, thetas, 7)]

    monkeypatch.setattr(_kernels, "_workers", lambda: 1)
    default = rows()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(_kernels, "_workers", lambda: workers)
            for block in (_kernels._PASS, 1):
                monkeypatch.setattr(_kernels, "_PASS", block)
                for (m0, c0), (m1, c1) in zip(default, rows()):
                    assert np.array_equal(m0, m1) and np.array_equal(c0, c1)
    finally:
        sys.setswitchinterval(interval)


def test_refused_favard_cap_starts_no_worker(fourcorner, monkeypatch):
    """The angle-squares cap is checked before the depth workers start;
    a run under the cap does start them."""
    monkeypatch.setattr(_kernels, "ThreadPoolExecutor", mock.Mock(
        side_effect=AssertionError("workers started")))
    with pytest.raises(ResourceBudgetError):
        favard_lengths(fourcorner, 12, AngleGrid(4096))
    with pytest.raises(AssertionError, match="workers started"):
        favard_lengths(fourcorner, 2, AngleGrid(8))


def test_favard_lengths_are_the_flat_favard_lengths(fourcorner, gens,
                                                    grid256):
    favs, merged = favard_lengths(fourcorner, 5, grid256)
    assert favs.shape == merged.shape == (6,)
    for n in range(6):
        assert favs[n] == pytest.approx(favard_length(gens(n), grid256),
                                        rel=1e-14)
    assert merged[0] == 1.0
    assert all(a < b for a, b in zip(merged, merged[1:]))
    with pytest.raises(ValueError):
        favard_lengths(fourcorner, -1, grid256)


@pytest.mark.parametrize("n, angles", [(12, 4096), (13, 1024), (10 ** 8, 1)])
def test_favard_lengths_capped_on_angle_squares(fourcorner, n, angles):
    """Angles times stage-n squares, checked before any depth is merged
    or any (depth, angle) table is allocated; the power is capped at the
    cap's bit length."""
    cap = WORK_BUDGET << 2
    need = angles * 4 ** min(n, cap.bit_length())
    with pytest.raises(ResourceBudgetError,
                       match=f"^Favard lengths to generation {n} needs "
                             f"{need} angle-squares; cap is {cap}$"):
        favard_lengths(fourcorner, n, AngleGrid(angles))


@pytest.mark.parametrize("run", [favard_lengths, bad_angle_measure])
@pytest.mark.parametrize("n", [0, 2, 5])
def test_angles_count_at_least_their_floor(monkeypatch, fourcorner, run, n):
    """Below 4^6 squares an angle counts as _ANGLE_SQUARES angle-squares,
    so a grid that angles times squares would admit is refused on its
    angles alone, before its thetas are built; the cap is lowered so that
    the sizes stay small."""
    monkeypatch.setattr(projections, "WORK_BUDGET", 1 << 12)   # cap 2^14
    angles = 5
    assert angles * 4 ** n <= 1 << 14 < angles * projections._ANGLE_SQUARES
    monkeypatch.setattr(AngleGrid, "thetas", property(
        lambda grid: pytest.fail("thetas built before the cap")))
    with pytest.raises(ResourceBudgetError,
                       match=f"^Favard lengths to generation {n} needs "
                             f"{angles * 4096} angle-squares; "
                             f"cap is {1 << 14}$"):
        run(fourcorner, n, AngleGrid(angles))
    monkeypatch.undo()
    assert favard_lengths(fourcorner, n, AngleGrid(angles))[0].size == n + 1


@pytest.mark.parametrize("n, angles", [(9, 2048), (10, 4096)])
def test_bad_angle_sups_are_capped(monkeypatch, fourcorner, n, angles):
    """The sups' 4 steps an angle-square are checked against WORK_BUDGET
    after the Favard cap (which n = 10 at 4096 angles meets exactly) and
    before any square, theta or Favard length is built; n = 8 at 4096
    angles and n = 9 at 1024 sit at the cap."""
    assert 4 * 4096 * 4 ** 8 == 4 * 1024 * 4 ** 9 == WORK_BUDGET
    monkeypatch.setattr(projections, "generate_generation", lambda *args:
                        pytest.fail("generation built before the cap"))
    monkeypatch.setattr(_kernels, "_depth_measures", lambda *args:
                        pytest.fail("Favard lengths run before the cap"))
    monkeypatch.setattr(AngleGrid, "thetas", property(
        lambda grid: pytest.fail("thetas built before the cap")))
    with pytest.raises(ResourceBudgetError,
                       match=f"^bad angles of generation {n} over {angles} "
                             f"angles needs {4 * angles * 4 ** n} steps; "
                             f"cap is {WORK_BUDGET}$"):
        bad_angle_measure(fourcorner, n, AngleGrid(angles))

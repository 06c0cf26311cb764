"""Set-class certifiers, Riesz energy, box dimension, well-distribution."""

import json
import math
import re
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.spatial
from scipy.spatial import cKDTree

from favlab import _kernels, set_analysis
from favlab.geometry import IntervalSet, Point2, Square
from favlab.ifs import (WORK_BUDGET, IFSystem, ResourceBudgetError,
                        Similitude, generate_generation)
from favlab.projections import project_generation
from favlab.set_analysis import (KAPPA_GRID, RECT_CENTERS, RECT_ORIENTATIONS,
                                 CheckResult, SetCertificate,
                                 UndefinedDimensionError, _ball_check,
                                 _bbox, _covering_count_intervals, _diameter,
                                 _dyadic_level, _level_breakpoints,
                                 _line_check, _rectangle_census,
                                 _strip_masses, _strip_windows,
                                 box_dimension_estimate,
                                 check_discrete_alpha_set,
                                 check_unrectifiable_one_set,
                                 check_well_distributed, difference_measure,
                                 generation_energy, riesz_energy)
from favlab.visibility import PointCloud, cloud_from_generation


class TestAlphaSetCertifier:
    def test_cantor_stage_four_passes(self, gens):
        A = cloud_from_generation(gens(4))
        cert = check_discrete_alpha_set(A, 1.0, 256.0, seed=0)
        assert cert.passed
        for name in ("separation", "cardinality", "ball", "line"):
            assert cert.checks[name].passed, name

    def test_single_point_cardinality_only(self):
        A = PointCloud(np.array([[0.0, 0.0]]), 1.0)
        cert = check_discrete_alpha_set(A, 1.0, 1.0, seed=0)
        assert cert.checks["separation"].passed
        assert cert.checks["cardinality"].passed
        # one atom is a tenth of the cloud many times over
        assert not cert.checks["line"].passed
        assert not cert.passed

    def test_segment_fails_line_condition(self, segment_cloud):
        for C in (1.0, 10.0, 100.0):
            cert = check_discrete_alpha_set(segment_cloud, 1.0, C, seed=0)
            assert not cert.checks["line"].passed
            assert cert.checks["line"].margin > 1.0

    def test_line_witness_replays(self, segment_cloud):
        cert = check_discrete_alpha_set(segment_cloud, 1.0, 100.0, seed=0)
        w = cert.checks["line"].witness
        assert w["kind"] == "line"
        pts = segment_cloud.points
        t = -math.sin(w["theta"]) * pts[:, 0] + math.cos(w["theta"]) * pts[:, 1]
        mass = float(np.sum(_strip_masses(np.abs(t - w["offset"]),
                                          segment_cloud.delta, 1.0 / 100.0)))
        assert mass == pytest.approx(w["mass"], rel=1e-9)
        assert cert.checks["line"].margin == pytest.approx(
            mass / (len(segment_cloud) / 10.0), rel=1e-9)

    def test_margins_shrink_with_C(self, gens):
        A = cloud_from_generation(gens(3))
        small = check_discrete_alpha_set(A, 1.0, 64.0, seed=7)
        large = check_discrete_alpha_set(A, 1.0, 512.0, seed=7)
        for name in ("cardinality", "ball", "line"):
            assert large.checks[name].margin <= small.checks[name].margin + 1e-12

    def test_separation_violation_detected(self):
        A = PointCloud(np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]]), 1.0)
        cert = check_discrete_alpha_set(A, 1.0, 100.0, seed=0)
        assert not cert.checks["separation"].passed
        assert cert.checks["separation"].witness["violating_pairs"] == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_discrete_alpha_set(PointCloud(np.empty((0, 2)), 0.1), 1.0, 4.0)

    @pytest.mark.parametrize("C", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_C(self, gens, C):
        A = cloud_from_generation(gens(2))
        with pytest.raises(ValueError, match="C must be positive"):
            check_discrete_alpha_set(A, 1.0, C)
        with pytest.raises(ValueError, match="C must be positive"):
            check_unrectifiable_one_set(A, C)

    def test_rejects_infinite_C(self):
        # an infinite C zeroes the strip width and every margin: a
        # vacuous certificate
        A = collinear_run(5, 1 / 64)
        with pytest.raises(ValueError, match="C must be positive and finite"):
            check_discrete_alpha_set(A, 1.0, math.inf)
        with pytest.raises(ValueError, match="C must be positive and finite"):
            check_unrectifiable_one_set(A, math.inf)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_alpha(self, gens, alpha):
        A = cloud_from_generation(gens(2))
        with pytest.raises(ValueError, match="alpha must be positive"):
            check_discrete_alpha_set(A, alpha, 4.0)

    def test_json_roundtrip(self, gens):
        A = cloud_from_generation(gens(3))
        cert = check_discrete_alpha_set(A, 1.0, 256.0, seed=5)
        blob = json.loads(cert.to_json())
        assert blob["alpha"] == 1.0 and blob["C"] == 256.0
        assert blob["seed"] == 5
        assert set(blob["passes"]) == {"separation", "cardinality",
                                       "ball", "line"}
        assert all(blob["passes"].values())
        kinds = {w["check"] for w in blob["worst_witnesses"]}
        assert kinds == set(blob["passes"])


class TestUnrectifiableCertifier:
    def test_cantor_kappa_half(self, gens):
        A = cloud_from_generation(gens(4))
        cert = check_unrectifiable_one_set(A, 256.0, seed=0)
        assert cert.passed
        assert cert.checks["rectangle"].passed
        assert cert.kappa_estimate == pytest.approx(0.5)

    def test_segment_rectangle_fails_at_unit_C(self, segment_cloud):
        cert = check_unrectifiable_one_set(segment_cloud, 1.0, seed=0)
        assert not cert.checks["rectangle"].passed
        assert cert.kappa_estimate == 0.0
        w = cert.checks["rectangle"].witness
        assert w["kind"] == "rectangle"
        assert w["count"] >= 1

    def test_segment_kappa_stays_low(self, segment_cloud):
        # a straight segment saturates the long-side bound: any positive
        # kappa certified for it must come from the C-slack alone
        cert = check_unrectifiable_one_set(segment_cloud, 4.0, seed=0)
        if cert.checks["rectangle"].passed:
            assert cert.kappa_estimate <= 0.25

    def test_deterministic_for_seed(self, gens):
        A = cloud_from_generation(gens(3))
        a = check_unrectifiable_one_set(A, 256.0, seed=3)
        b = check_unrectifiable_one_set(A, 256.0, seed=3)
        assert a.to_json() == b.to_json()


#: certificates frozen from the per-centre and per-offset loops that the
#: whole-array reductions replaced (four-corner n=5 at C=256, seed 3, and the
#: 256-point segment at C=1, seed 0)
FROZEN_CERTIFICATES = {
    "fourcorner-5": {
        "alpha": 1.0, "C": 256.0, "delta": 0.0009765625,
        "passes": {"separation": True, "cardinality": True, "ball": True,
                   "line": True, "rectangle": True},
        "kappa_estimate": 0.5,
        "worst_witnesses": [
            {"check": "separation", "margin": 0.0, "kind": "separation",
             "violating_pairs": 0},
            {"check": "cardinality", "margin": 0.00390625,
             "kind": "cardinality", "size": 1024,
             "window": [4.0, 262144.0]},
            {"check": "ball", "margin": 0.00390625, "kind": "ball",
             "center": [0.00048828125, 0.00048828125],
             "radius": 0.0009765625, "count": 1, "design": "on-set"},
            {"check": "line", "margin": 0.625, "kind": "line", "theta": 0.0,
             "offset": 0.00048828125, "mass": 64.0},
            {"check": "rectangle", "margin": 0.00390625, "kind": "rectangle",
             "orientation": 0.0, "center_index": 0, "r1": 0.0009765625,
             "r2": 0.0009765625, "count": 1}],
        "seed": 3, "n_random": 10000},
    "segment": {
        "alpha": 1.0, "C": 1.0, "delta": 0.00390625,
        "passes": {"separation": True, "cardinality": True, "ball": False,
                   "line": False, "rectangle": False},
        "kappa_estimate": 0.0,
        "worst_witnesses": [
            {"check": "separation", "margin": 0.0, "kind": "separation",
             "violating_pairs": 0},
            {"check": "cardinality", "margin": 1.0, "kind": "cardinality",
             "size": 256, "window": [256.0, 256.0]},
            {"check": "ball", "margin": 3.0, "kind": "ball",
             "center": [0.005859375, 0.0], "radius": 0.00390625, "count": 3,
             "design": "on-set"},
            {"check": "line", "margin": 10.0, "kind": "line", "theta": 0.0,
             "offset": 0.0, "mass": 256.0},
            {"check": "rectangle", "margin": 2.0, "kind": "rectangle",
             "orientation": 0.09817477042468103, "center_index": 105,
             "r1": 0.00390625, "r2": 0.00390625, "count": 2}],
        "seed": 0, "n_random": 10000},
}


def test_frozen_certificates(gens, segment_cloud):
    cert = check_unrectifiable_one_set(cloud_from_generation(gens(5)), 256.0,
                                       seed=3)
    assert cert.to_json() == json.dumps(FROZEN_CERTIFICATES["fourcorner-5"],
                                        indent=2)
    cert = check_unrectifiable_one_set(segment_cloud, 1.0)
    assert cert.to_json() == json.dumps(FROZEN_CERTIFICATES["segment"],
                                        indent=2)


def line_check_loop(A, C, rng, n_random):
    """The per-offset line check the blocked strip masses replaced."""
    pts = A.points
    m = len(pts)
    halfwidth = 1.0 / C
    bound = m / 10.0
    worst = CheckResult(True, 0.0)
    fixed_thetas = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
    n_theta = max(1, int(math.sqrt(n_random)))
    random_thetas = rng.uniform(0, math.pi, n_theta)
    scale = _diameter(pts)
    for theta in fixed_thetas + random_thetas.tolist():
        t = -math.sin(theta) * pts[:, 0] + math.cos(theta) * pts[:, 1]
        if theta in fixed_thetas:
            offsets = np.unique(t)
        else:
            center = 0.5 * (t.min() + t.max())
            offsets = rng.uniform(center - scale, center + scale,
                                  n_random // n_theta)
        masses = np.array([
            float(np.sum(_strip_masses(np.abs(t - off), A.delta, halfwidth)))
            for off in offsets])
        i = int(np.argmax(masses))
        margin = float(masses[i] / bound)
        if margin > worst.margin:
            worst = CheckResult(margin <= 1.0, float(margin), {
                "kind": "line", "theta": float(theta),
                "offset": float(offsets[i]), "mass": float(masses[i])})
    return worst


def rectangle_census_dense(A, rng):
    """The census the centre blocks replaced: dense 200 x m distance and level
    arrays per orientation, one bincount each."""
    pts = A.points
    m = len(pts)
    diam = _diameter(pts)
    levels = max(1, math.ceil(math.log2(diam / A.delta))) + 1
    half = RECT_CENTERS // 2
    idx = rng.choice(m, size=min(half, m), replace=False)
    lo, hi = _bbox(pts)
    centers = np.concatenate([
        pts[idx],
        rng.uniform(lo, hi, size=(RECT_CENTERS - len(idx), 2))])
    counts = np.zeros((RECT_ORIENTATIONS, len(centers), levels + 1,
                       levels + 1), dtype=np.int64)
    for j in range(RECT_ORIENTATIONS):
        phi = j * math.pi / RECT_ORIENTATIONS
        c, s = math.cos(phi), math.sin(phi)
        u = pts[:, 0] * c + pts[:, 1] * s
        v = -pts[:, 0] * s + pts[:, 1] * c
        uc = centers[:, 0] * c + centers[:, 1] * s
        vc = -centers[:, 0] * s + centers[:, 1] * c
        du = np.abs(u[None, :] - uc[:, None])
        dv = np.abs(v[None, :] - vc[:, None])
        with np.errstate(divide="ignore"):
            iu = np.ceil(np.log2(np.maximum(2 * du / A.delta, 1.0))).astype(int)
            iv = np.ceil(np.log2(np.maximum(2 * dv / A.delta, 1.0))).astype(int)
        np.clip(iu, 0, levels, out=iu)
        np.clip(iv, 0, levels, out=iv)
        flat = (np.arange(len(centers))[:, None] * (levels + 1) + iu
                ) * (levels + 1) + iv
        hist = np.bincount(flat.ravel(),
                           minlength=len(centers) * (levels + 1) ** 2)
        counts[j] = hist.reshape(len(centers), levels + 1, levels + 1)
    counts = counts.cumsum(axis=2).cumsum(axis=3)
    radii = A.delta * 2.0 ** np.arange(levels)
    return counts[:, :, :levels, :levels], radii


def assert_census_matches_dense(A, seed):
    stream, radii = _rectangle_census(A, np.random.default_rng(seed))
    counts = np.stack(list(stream))
    want, want_radii = rectangle_census_dense(A, np.random.default_rng(seed))
    assert counts.dtype == want.dtype
    assert np.array_equal(counts, want)
    assert np.array_equal(radii, want_radii)


def rectangle_loop(A, C, seed):
    """The (orientation, centre) loop the whole-array rectangle and kappa
    reductions replaced: (rectangle check, kappa estimate)."""
    stream, radii = _rectangle_census(A, np.random.default_rng(seed + 1))
    counts = np.stack(list(stream))
    m = len(A)
    levels = len(radii)
    i2g, i1g = np.meshgrid(np.arange(levels), np.arange(levels),
                           indexing="ij")
    valid = i1g <= i2g
    r1 = radii[i1g]
    r2 = radii[i2g]
    frac = counts / (C * m)
    worst_margin = 0.0
    witness: dict = {}
    kappa_min = 1.0
    for j in range(counts.shape[0]):
        for ci in range(counts.shape[1]):
            f = frac[j, ci]
            marg = np.where(valid, f / r2, 0.0)
            jj = int(np.argmax(marg))
            if marg.flat[jj] > worst_margin:
                worst_margin = float(marg.flat[jj])
                witness = {"kind": "rectangle",
                           "orientation": j * math.pi / counts.shape[0],
                           "center_index": ci,
                           "r1": float(r1.flat[jj]), "r2": float(r2.flat[jj]),
                           "count": int(counts[j, ci].flat[jj])}
            with np.errstate(divide="ignore", invalid="ignore"):
                k_r = np.log(f / r2) / np.log(r1 / r2)
            k_r = np.where(valid & (f > 0) & (r1 < r2), k_r, np.inf)
            k_r = np.where(valid & (f > 0) & (r1 == r2),
                           np.where(f <= r1, np.inf, -np.inf), k_r)
            kappa_min = min(kappa_min, float(np.min(k_r)))
    passed = worst_margin <= 1.0
    if not passed:
        kappa = 0.0
    elif math.isinf(kappa_min):
        kappa = 0.5
    else:
        kappa = max(0.0, min(0.5,
                             math.floor(kappa_min / KAPPA_GRID) * KAPPA_GRID))
    return CheckResult(passed, worst_margin, witness), kappa


@st.composite
def small_clouds(draw):
    """A single point, a run of collinear points on a 1/64 grid line, grid
    points (with ties and coincidences) or points in general position."""
    kind = draw(st.sampled_from(["point", "collinear", "grid", "float"]))
    if kind == "point":
        pts = [draw(st.tuples(st.floats(-2, 2), st.floats(-2, 2)))]
    elif kind == "collinear":
        dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1)]))
        lo = draw(st.integers(-30, 0))
        ks = range(lo, lo + draw(st.integers(2, 40)))
        pts = [(k * dx / 64, k * dy / 64) for k in ks]
    elif kind == "grid":
        pts = draw(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)),
                            min_size=2, max_size=40))
        pts = [(x / 32, y / 32) for x, y in pts]
    else:
        pts = draw(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                            min_size=2, max_size=40))
    delta = draw(st.sampled_from([1 / 64, 1 / 32, 0.01, 0.1]))
    return PointCloud(np.array(pts, dtype=float), delta)


def collinear_run(m, delta):
    return PointCloud(np.array([(k / 64, 0.0) for k in range(m)]), delta)


@settings(max_examples=20, deadline=None)
# collinear runs whose kappa lies strictly between 0 and 0.5 (0.25, 0.46)
@example(A=collinear_run(40, 1 / 64), C=4.0, seed=0, n_random=50)
@example(A=collinear_run(40, 1 / 32), C=6.0, seed=1, n_random=400)
@given(A=small_clouds(),
       C=st.one_of(st.floats(2.0, 20.0), st.floats(1.0, 1000.0)),
       seed=st.integers(0, 2**31),
       n_random=st.sampled_from([1, 50, 400, 2000]))
def test_certifier_matches_loops(A, C, seed, n_random):
    rng = np.random.default_rng(seed)
    ball = _ball_check(A, cKDTree(A.points), 1.0, C, rng, n_random)
    line = line_check_loop(A, C, rng, n_random)
    rectangle, kappa = rectangle_loop(A, C, seed)
    alpha_cert = check_discrete_alpha_set(A, 1.0, C, seed=seed,
                                          n_random=n_random)
    assert alpha_cert.checks["ball"] == ball
    assert alpha_cert.checks["line"] == line
    cert = check_unrectifiable_one_set(A, C, seed=seed, n_random=n_random)
    assert cert.checks["line"] == line
    assert cert.checks["rectangle"] == rectangle
    assert cert.kappa_estimate == kappa
    want = SetCertificate(1.0, C, A.delta, {**alpha_cert.checks,
                                            "rectangle": rectangle},
                          kappa, seed, n_random)
    assert cert.to_json() == want.to_json()


@settings(max_examples=30, deadline=None)
@given(A=small_clouds(), seed=st.integers(0, 2**31))
def test_census_matches_dense(A, seed):
    assert_census_matches_dense(A, seed)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_census_matches_dense_on_four_corner(gens, n):
    assert_census_matches_dense(cloud_from_generation(gens(n)), n)


def level_tie_points():
    """The cloud of test_census_matches_dense_on_level_ties."""
    delta = 1 / 64
    ts = [t for k in range(7) for t0 in [delta / 2 * 2.0 ** k]
          for t in (np.nextafter(t0, 0.0), t0, np.nextafter(t0, 1.0))]
    return [(0.0, 0.0)] + [(t, 0.0) for t in ts] + [(0.0, t) for t in ts]


def test_census_matches_dense_on_level_ties():
    """At orientation 0, u = x and v = y exactly, so a centre at the origin
    puts 2|du|/delta and 2|dv|/delta on 2^k and one ulp either side, where
    the rounding of log2 decides the level."""
    delta = 1 / 64
    ts = [t for k in range(7) for t0 in [delta / 2 * 2.0 ** k]
          for t in (np.nextafter(t0, 0.0), t0, np.nextafter(t0, 1.0))]
    pts = [(0.0, 0.0)] + [(t, 0.0) for t in ts] + [(0.0, t) for t in ts]
    assert len(pts) <= RECT_CENTERS // 2     # every point is a centre
    for seed in range(3):
        assert_census_matches_dense(PointCloud(np.array(pts), delta), seed)


@pytest.mark.parametrize("delta", [1 / 64, 1 / 32, 0.01, 0.1]
                         + [4.0 ** -n for n in range(10)])
def test_level_breakpoints_are_the_last_float_of_each_level(delta):
    """b[I] is at level <= I and the next float up is past it, with the
    level computed by the census's own formula."""
    levels = 40
    b = _level_breakpoints(delta, levels)
    above = np.nextafter(b, np.inf)
    assert np.all(_dyadic_level(b, delta, levels) <= np.arange(levels))
    assert np.all(_dyadic_level(above, delta, levels) > np.arange(levels))
    assert np.all(_dyadic_level(-b, delta, levels) <= np.arange(levels))


def test_certifier_memory_holds_no_count_table(gens):
    """At four-corner n=6 the census folds each orientation as it comes:
    one (64, 200, 14, 14) int64 table alone would be 20 MB, and the full
    table with its cumsums and float copies peaked at 98.6 MB."""
    A = cloud_from_generation(gens(6))
    tracemalloc.start()
    try:
        check_unrectifiable_one_set(A, 256.0, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_certifier_memory_bounded_on_three_workers(gens, monkeypatch):
    """The census keeps at most two orientations a worker in flight, so
    the memory bound holds with more workers than the host's cores, and
    when the consumer pauses: the 64 orientations' counts alone would be
    20 MB at n=6."""
    monkeypatch.setattr(_kernels, "_workers", lambda: 3)
    test_certifier_memory_holds_no_count_table(gens)
    A = cloud_from_generation(gens(6))
    tracemalloc.start()
    try:
        stream, _ = _rectangle_census(A, np.random.default_rng(3))
        next(stream)
        time.sleep(0.5)             # the workers run ahead, if unbounded
        for _ in stream:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def census_at(workers, monkeypatch, A, seed):
    monkeypatch.setattr(_kernels, "_workers", lambda: workers)
    stream, _ = _rectangle_census(A, np.random.default_rng(seed))
    return np.stack(list(stream))


def test_census_same_bits_at_any_worker_count(gens, monkeypatch):
    """The orientations come in order with the same counts on one to three
    workers, with threads switching every microsecond so that a worker
    writing another's buffers would show."""
    ties = PointCloud(np.array(level_tie_points()), 1 / 64)
    clouds = [cloud_from_generation(gens(n)) for n in range(1, 6)] + [ties]
    want = [census_at(1, monkeypatch, A, 7) for A in clouds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3):
            for A, counts in zip(clouds, want):
                got = census_at(workers, monkeypatch, A, 7)
                assert got.dtype == counts.dtype
                assert np.array_equal(got, counts)
    finally:
        sys.setswitchinterval(interval)


def test_census_levels_past_int8():
    """At delta = 1e-40 a unit cloud has 135 levels, past what an int8
    level holds; the first orientations' counts equal a direct count of
    the points at each (iu, iv) level."""
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 0.5), (0.25, 1e-38)])
    A = PointCloud(pts, 1e-40)
    seed = 1
    stream, radii = _rectangle_census(A, np.random.default_rng(seed))
    levels = len(radii)
    assert levels > 127
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(pts), size=len(pts), replace=False)
    centers = np.concatenate([pts[idx], rng.uniform(
        pts.min(axis=0), pts.max(axis=0), size=(RECT_CENTERS - len(pts), 2))])
    for j, counts in zip(range(4), stream):
        phi = j * math.pi / RECT_ORIENTATIONS
        c, s = math.cos(phi), math.sin(phi)
        du = (pts[:, 0] * c + pts[:, 1] * s)[None] - (
            centers[:, 0] * c + centers[:, 1] * s)[:, None]
        dv = (-pts[:, 0] * s + pts[:, 1] * c)[None] - (
            -centers[:, 0] * s + centers[:, 1] * c)[:, None]
        iu = _dyadic_level(du, A.delta, levels).astype(int)
        iv = _dyadic_level(dv, A.delta, levels).astype(int)
        want = np.zeros((RECT_CENTERS, levels + 1, levels + 1), np.int64)
        np.add.at(want, (np.arange(RECT_CENTERS)[:, None], iu, iv), 1)
        want = want.cumsum(axis=1).cumsum(axis=2)[:, :levels, :levels]
        assert np.array_equal(counts, want), j
    stream.close()


def test_ball_check_same_at_any_worker_count(gens, monkeypatch):
    A = cloud_from_generation(gens(5))
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(_kernels, "_workers", lambda: workers)
        results.append(_ball_check(A, cKDTree(A.points), 1.0, 64.0,
                                   np.random.default_rng(5), 2000))
    assert results[0] == results[1]


def test_certifier_cap_refuses_before_any_work(gens, monkeypatch):
    """Four-corner n = 9 is refused before a tree, a census or a worker is
    started; n = 8 is admitted."""
    def started(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(scipy.spatial, "cKDTree", started)
    monkeypatch.setattr(set_analysis, "_census_counts", started)
    monkeypatch.setattr(_kernels, "ThreadPoolExecutor", started)
    A = cloud_from_generation(gens(9))
    for certify in (lambda: check_unrectifiable_one_set(A, 256.0),
                    lambda: check_discrete_alpha_set(A, 1.0, 256.0)):
        with pytest.raises(ResourceBudgetError, match=(
                f"^certifier on {4 ** 9} points needs 11602403840 steps; "
                f"cap is {WORK_BUDGET}$")):
            certify()
    set_analysis._check_certifier(cloud_from_generation(gens(8)),
                                  set_analysis.N_RANDOM)


def test_certifier_cap_charges_the_census_tables(monkeypatch):
    """Four points at delta = 1e-300 have 997 levels: the census's 64 x 200
    tables of 999^2 cells are refused before any tree is built, though the
    points are few; at 1e-40 (134 levels) the tables fit the cap."""
    def started(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(scipy.spatial, "cKDTree", started)
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 0.5), (0.25, 1e-38)])
    A = PointCloud(pts, 1e-300)
    assert set_analysis._levels(A) == 997
    with pytest.raises(ResourceBudgetError, match=(
            f"^certifier on 4 points needs 12774426036 steps; "
            f"cap is {WORK_BUDGET}$")):
        check_unrectifiable_one_set(A, 256.0)
    set_analysis._check_certifier(PointCloud(pts, 1e-40),
                                  set_analysis.N_RANDOM)


#: a delta whose separation radius, delta * (1 - 1e-9), is exactly 2^-4, so
#: that grid points one step apart are a pair at exactly that radius
SEPARATION_DELTA = 2.0 ** -4 / (1 - 1e-9)


@settings(max_examples=60, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      min_size=1, max_size=40))
def test_separation_count_matches_pair_list(cells):
    """The separation witness counts the pairs that query_pairs lists, on
    grid clouds with coincident points and with pairs exactly one radius
    apart."""
    r = SEPARATION_DELTA * (1 - 1e-9)
    assert r == 2.0 ** -4
    A = PointCloud(np.array(cells) * r, SEPARATION_DELTA)
    cert = check_discrete_alpha_set(A, 1.0, 256.0, n_random=100)
    want = len(cKDTree(A.points).query_pairs(r))
    assert cert.checks["separation"].witness["violating_pairs"] == want
    assert cert.checks["separation"].passed == (want == 0)


def test_separation_memory_on_coincident_points():
    """1024 coincident points make 523776 violating pairs, which are
    counted, not listed: listing them peaked at 68.7 MB."""
    A = PointCloud(np.full((1024, 2), 0.5), 1 / 32)
    tracemalloc.start()
    try:
        cert = check_discrete_alpha_set(A, 1.0, 256.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.checks["separation"].witness["violating_pairs"] == 523776
    assert peak < 4 * 2 ** 20


@st.composite
def strip_windows_cases(draw):
    """Sorted projections, offsets among and between them, a ball radius and
    a strip halfwidth: on a 1/64 grid (ties), in general position, or one
    ulp apart, where rounding moves the searchsorted ranges."""
    kind = draw(st.sampled_from(["grid", "float", "ulp"]))
    if kind == "grid":
        ts = [k / 64 for k in draw(st.lists(st.integers(0, 63), min_size=1,
                                            max_size=40))]
        radius = draw(st.sampled_from([1 / 64, 1 / 32, 0.01]))
    elif kind == "float":
        ts = draw(st.lists(st.floats(0, 1), min_size=1, max_size=40))
        radius = draw(st.sampled_from([1 / 64, 0.01, 0.1]))
    else:
        base = draw(st.sampled_from([1.0, 0.75, 1e6]))
        ulp = math.ulp(base)
        ks = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=40))
        ts = [base + k * ulp for k in ks]
        radius = draw(st.sampled_from([0.3, 1.0, 2.5])) * ulp
    ts = np.sort(np.array(ts))
    offsets = np.concatenate([
        ts[draw(st.lists(st.integers(0, ts.size - 1), max_size=5))],
        draw(st.lists(st.floats(ts[0] - 4 * radius, ts[-1] + 4 * radius),
                      min_size=1, max_size=5))])
    ratio = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.0]),
                           st.floats(0.01, 20.0)))
    halfwidth = float(np.nextafter(ratio * radius, draw(st.sampled_from(
        [0.0, math.inf]))) if draw(st.booleans()) else ratio * radius)
    return ts, offsets, radius, halfwidth


@settings(max_examples=200, deadline=None)
# ulp-spaced points where searchsorted at halfwidth - 2 delta takes in a point
# whose inner clip argument rounds above -1
@example(case=(0.75 + np.arange(-6, 7) * 2.0 ** -53,
               np.array([0.75 - 2.0 ** -52]), 2.0 ** -55, 1.23 * 2.0 ** -53))
# a halfwidth one ulp past |offset|, where |t - o| rounds down to the
# halfwidth for the float t just outside o -/+ reach: it keeps half a mass
@example(case=(np.array([np.nextafter(-2.0 ** -54, -1.0),
                         np.nextafter(2.0 ** -54, 1.0)]),
               np.array([0.3, -0.3]), 1e-20, 0.3 + 2.0 ** -54))
@given(case=strip_windows_cases())
def test_strip_windows_bound_the_masses(case):
    """Every point outside [lo, hi) has mass exactly 0, and every point in
    [clo, chi) has exactly the whole mass."""
    ts, offsets, radius, halfwidth = case
    lo, clo, chi, hi = _strip_windows(ts, offsets, radius, halfwidth)
    whole = _strip_masses(np.zeros(1), radius, halfwidth)[0]
    for i, off in enumerate(offsets):
        masses = _strip_masses(np.abs(ts - off), radius, halfwidth)
        assert 0 <= lo[i] <= clo[i] <= chi[i] <= hi[i] <= ts.size
        assert not masses[:lo[i]].any() and not masses[hi[i]:].any()
        assert (masses[clo[i]:chi[i]] == whole).all()


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("C", [4.0, 256.0, 1e4])
def test_line_check_matches_loop_on_four_corner(gens, n, C):
    """Strips wider than 2 delta (C=4, 256) have a whole-mass core; C=1e4
    gives halfwidth < delta; n=5 has 1024 points, so 8 offsets share a
    strip-mass sum."""
    A = cloud_from_generation(gens(n))
    assert _line_check(A, C, np.random.default_rng(n), 2000) == \
        line_check_loop(A, C, np.random.default_rng(n), 2000)


class TestRieszEnergy:
    def test_two_point_closed_form(self):
        A = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.01)
        assert riesz_energy(A, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_small_s_limit(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(1.0, 2.0, size=(40, 2))
        w = rng.uniform(0.5, 1.5, 40)
        w /= w.sum()
        A = PointCloud(pts, 1e-6, weights=w)
        want = 1.0 - float(np.sum(w ** 2))
        assert riesz_energy(A, 1e-9) == pytest.approx(want, rel=1e-6)

    def test_dilation_homogeneity(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, size=(30, 2))
        s, lam = 0.7, 3.0
        a = riesz_energy(PointCloud(pts, 1e-6), s)
        b = riesz_energy(PointCloud(lam * pts, 1e-6), s)
        assert b == pytest.approx(a * lam ** -s, rel=1e-9)

    def test_kernel_floor_at_delta(self):
        # coincident points contribute delta^-s, not infinity
        A = PointCloud(np.array([[0.0, 0.0], [0.0, 0.0]]), 0.5)
        assert riesz_energy(A, 1.0) == pytest.approx(2 * 0.25 * 2.0, abs=1e-12)

    def test_rejects_unnormalized_weights(self):
        A = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.01,
                       weights=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="normalized"):
            riesz_energy(A, 1.0)

    def test_rejects_bad_s(self):
        # two points at distance 1, where a NaN s once gave 0.5
        A = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.01)
        for s in (0.0, math.nan):
            with pytest.raises(ValueError, match="s must be positive"):
                riesz_energy(A, s)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty point cloud"):
            riesz_energy(PointCloud(np.empty((0, 2)), 0.01), 1.0)

    def test_pair_cap_refuses_before_any_sum(self, gens, monkeypatch):
        """Four-corner n=8 has 2.1e9 pairs, past WORK_BUDGET, and is refused
        before the kernel runs; n=7 (1.3e8 pairs) reaches it."""
        monkeypatch.setattr(_kernels, "riesz_energy_sum", mock.Mock(
            side_effect=AssertionError("summed")))
        with pytest.raises(ResourceBudgetError, match="pairs"):
            riesz_energy(cloud_from_generation(gens(8)), 1.0)
        with pytest.raises(AssertionError, match="summed"):
            riesz_energy(cloud_from_generation(gens(7)), 1.0)

    def test_memory_is_a_few_passes(self, gens):
        """Four-corner n=6 (4096 points) peaks under 16 MiB: a pass holds
        _kernels._PASS pairs a temporary, where 2048-row blocks held 64 MiB
        each."""
        A = cloud_from_generation(gens(6))
        tracemalloc.start()
        try:
            riesz_energy(A, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


NON_FINITE_INPUTS = {
    "cloud weights": lambda x: PointCloud(np.zeros((2, 2)), 0.01,
                                          weights=[x, 1.0]),
    "measure weights": lambda x: check_well_distributed(
        [0.1, 0.2], [x, 1.0], 0.01, 0.5, 0.5),
    "measure positions": lambda x: check_well_distributed(
        [x, 0.2], [0.5, 0.5], 0.01, 0.5, 0.5),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", sorted(NON_FINITE_INPUTS))
def test_non_finite_weights_and_positions_refused(where, x):
    """A nan weight passed the sign and mass checks, and made riesz_energy
    nan and a well-distribution check pass with a worst mass of 0."""
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_INPUTS[where](x)


def homothety_system(lam, zs, corner=(0.0, 0.0), side=1.0):
    return IFSystem(tuple(Similitude(lam, z) for z in zs),
                    Square(Point2(*corner), side))


#: ratio 1/2 and translations on a 1/4 grid, one repeated: distinct words
#: share a centre, e.g. (3, 1) and (1, 2) at depth 2
OVERLAPPING = homothety_system(0.5, [(0.0, 0.0), (0.25, 0.0), (0.5, 0.0),
                                     (0.5, 0.0)])


@st.composite
def equal_ratio_systems(draw):
    """A homothety IFS with 2-5 maps of one ratio and dyadic, irrational or
    overlapping translations, under a random hull."""
    k = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["dyadic", "irrational", "overlapping"]))
    if kind == "dyadic":
        lam = draw(st.sampled_from([0.5, 0.25, 0.125]))
        zs = [(draw(st.integers(0, 7)) / 8, draw(st.integers(0, 7)) / 8)
              for _ in range(k)]
    elif kind == "irrational":
        # below about 0.1 the pair oracle itself loses digits: it takes
        # differences of centres of size 1 that lie lam^(n-1) apart
        lam = draw(st.floats(0.15, 0.6))
        zs = [(draw(st.integers(1, 99)) * math.sqrt(2) % 1,
               draw(st.integers(1, 99)) * math.sqrt(3) % 1)
              for _ in range(k)]
    else:
        # a repeated translation makes words that differ only in those two
        # letters share a centre; at ratio 1/2 the quarter grid adds more
        lam = draw(st.sampled_from([0.5, 0.25]))
        zs = [(draw(st.integers(0, 2)) / 4, draw(st.integers(0, 2)) / 4)
              for _ in range(k - 1)]
        zs.append(zs[0])
    corner = (draw(st.floats(-3, 3)), draw(st.floats(-3, 3)))
    return homothety_system(lam, zs, corner, draw(st.floats(0.1, 10)))


class TestGenerationEnergy:
    @settings(max_examples=60, deadline=None)
    @given(system=equal_ratio_systems(), n=st.integers(0, 4),
           s=st.floats(0.3, 2.0))
    def test_matches_pair_sum(self, system, n, s):
        gen = generate_generation(system, n)
        want = riesz_energy(cloud_from_generation(gen), s)
        assert generation_energy(gen, s) == pytest.approx(want, rel=1e-12)

    def test_overlapping_words_keep_their_floor_term(self):
        gen = generate_generation(OVERLAPPING, 2)
        centers = gen.centers()
        assert len(np.unique(centers, axis=0)) < len(gen)
        want = riesz_energy(cloud_from_generation(gen), 1.0)
        assert generation_energy(gen, 1.0) == pytest.approx(want, rel=1e-12)

    # block 41 at four-corner n=5: chunks of 4 outer atoms against 9 inner
    # ones, a short last chunk (6561 outer atoms), and the zero atom at
    # outer index 3280 = 80 * 41 = 820 * 4, the start of a chunk
    @pytest.mark.parametrize("block, n", [(1, 4), (7, 4), (41, 5), (100, 4)])
    @pytest.mark.parametrize("system", [OVERLAPPING, None])
    def test_block_size_does_not_change_result(self, monkeypatch, fourcorner,
                                               block, n, system):
        gen = generate_generation(system or fourcorner, n)
        want = generation_energy(gen, 1.3)
        monkeypatch.setattr(set_analysis, "_ENERGY_BLOCK", block)
        assert generation_energy(gen, 1.3) == pytest.approx(want, rel=1e-12)

    def test_four_corner_difference_measure(self, fourcorner):
        atoms, counts = difference_measure(fourcorner)
        assert atoms.tolist() == [complex(x, y) for x in (-0.75, 0.0, 0.75)
                                  for y in (-0.75, 0.0, 0.75)]
        assert counts.tolist() == (np.outer([1, 2, 1], [1, 2, 1])
                                   .ravel().tolist())

    def test_four_corner_increment_is_cross_piece_energy(self, gens):
        """At s=1 the four pieces T_i(K_{n-1}) of K_n each carry
        E_{n-1} / 4, so E_n - E_{n-1} is the energy between pairs of
        centres in different pieces."""
        increments = []
        for n in range(1, 6):
            gen = gens(n)
            c = gen.centers()
            piece = np.arange(len(gen)) % 4     # the letter applied last
            d = np.hypot(*(c[:, None, :] - c[None, :, :]).transpose(2, 0, 1))
            cross = np.where(piece[:, None] != piece[None, :],
                             1.0 / np.maximum(d, gen.side), 0.0)
            increment = (generation_energy(gen, 1.0)
                         - generation_energy(gens(n - 1), 1.0))
            assert increment == pytest.approx(cross.sum() / len(gen) ** 2,
                                              rel=1e-12)
            increments.append(increment)
        assert increments[2] == pytest.approx(0.9154511, abs=5e-8)
        assert generation_energy(gens(7), 1.0) - generation_energy(
            gens(6), 1.0) == pytest.approx(0.9155100, abs=5e-8)

    def test_rejects_unequal_ratios(self):
        system = IFSystem((Similitude(0.5, (0.0, 0.0)),
                           Similitude(0.25, (0.75, 0.75))),
                          Square(Point2(0.0, 0.0), 1.0))
        with pytest.raises(ValueError, match="ratios differ"):
            generation_energy(generate_generation(system, 2), 1.0)

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan])
    def test_rejects_bad_s(self, gens, s):
        with pytest.raises(ValueError, match="s must be positive"):
            generation_energy(gens(2), s)

    @pytest.mark.parametrize("block", [7, 2 ** 15])
    @pytest.mark.parametrize("system, n", [(None, 0), (None, 3), (None, 5),
                                           (OVERLAPPING, 4)])
    def test_atom_estimate_is_the_atoms_summed(self, monkeypatch, fourcorner,
                                               block, system, n):
        """The checked atom count, read from its refusal at cap 0, equals
        the outer x inner atoms whose kernel terms are summed."""
        gen = generate_generation(system or fourcorner, n)
        monkeypatch.setattr(set_analysis, "WORK_BUDGET", 0)
        with pytest.raises(ResourceBudgetError) as err:
            generation_energy(gen, 1.0)
        want = int(re.fullmatch(
            rf"energy of generation {n} needs (\d+) atoms; cap is 0",
            str(err.value)).group(1))
        monkeypatch.setattr(set_analysis, "WORK_BUDGET", want)
        monkeypatch.setattr(set_analysis, "_ENERGY_BLOCK", block)
        sizes = []
        atom_block = set_analysis._atom_block

        def recording(*args):
            sizes.append(args[5] - args[4])
            return atom_block(*args)

        monkeypatch.setattr(set_analysis, "_atom_block", recording)
        generation_energy(gen, 1.0)
        inner, *outer = sizes               # the inner block comes first
        assert inner * sum(outer) == want


class TestBoxDimension:
    def test_segment_cloud(self):
        xs = np.linspace(0.0, 1.0, 4096)
        A = PointCloud(np.stack([xs, np.zeros_like(xs)], axis=1), 1 / 4096)
        scales = [2.0 ** -k for k in range(3, 10)]
        dim = box_dimension_estimate(A, scales)
        assert 0.95 <= dim <= 1.05

    def test_cantor_projection_exact_half(self, gens):
        iv = project_generation(gens(6), 0.0)
        scales = [4.0 ** -1, 4.0 ** -2, 4.0 ** -3]
        dim = box_dimension_estimate(iv, scales)
        assert dim == pytest.approx(0.5, abs=1e-9)

    def test_product_grid(self):
        n = 64
        xs = (np.arange(n) + 0.5) / n
        gx, gy = np.meshgrid(xs, xs)
        A = PointCloud(np.stack([gx.ravel(), gy.ravel()], axis=1), 1.0 / n)
        scales = [2.0 ** -k for k in range(1, 6)]
        dim = box_dimension_estimate(A, scales)
        assert dim == pytest.approx(2.0, abs=0.1)

    def test_validation(self):
        A = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]), 0.1)
        with pytest.raises(ValueError, match="3 scales"):
            box_dimension_estimate(A, [0.5, 0.25])
        with pytest.raises(ValueError, match="factor"):
            box_dimension_estimate(A, [0.5, 0.25, 0.125])
        with pytest.raises(ValueError, match="power of two"):
            box_dimension_estimate(A, [0.5, 0.1, 0.01])
        with pytest.raises(TypeError):
            box_dimension_estimate([(0, 1)], [0.5, 0.25, 1 / 32])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -0.25])
    def test_non_finite_or_non_positive_scale_refused(self, bad):
        """Refused before the power-of-two check, where round(inf) raised
        an OverflowError."""
        A = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]), 0.1)
        with pytest.raises(ValueError, match="positive and finite"):
            box_dimension_estimate(A, [0.5, 0.25, 1 / 32, bad])

    def test_degenerate_raises(self):
        A = PointCloud(np.array([[0.3, 0.3]]), 0.001)
        with pytest.raises(UndefinedDimensionError):
            box_dimension_estimate(A, [0.5, 0.25, 0.125, 1 / 32])


def covering_count_loop(iv, eps):
    """The interval-by-interval covering count the array form replaced."""
    jmin = np.floor(iv.lo / eps).astype(np.int64)
    jmax = (np.ceil(iv.hi / eps) - 1).astype(np.int64)
    total = 0
    prev_end = None
    for a, b in zip(jmin, jmax):
        if prev_end is not None and a <= prev_end:
            a = prev_end + 1
        if b >= a:
            total += int(b - a + 1)
            prev_end = int(b)
        elif prev_end is None:
            prev_end = int(b)
    return total


@st.composite
def sorted_interval_families(draw):
    """Intervals with sorted left ends on a 1/64 grid: disjoint, touching,
    overlapping, nested and degenerate (lo == hi) ones all occur."""
    starts = sorted(draw(st.lists(st.integers(-200, 200), max_size=30)))
    widths = draw(st.lists(st.integers(0, 40), min_size=len(starts),
                           max_size=len(starts)))
    lo = np.array(starts, dtype=float) / 64
    return IntervalSet(lo, lo + np.array(widths, dtype=float) / 64)


@settings(max_examples=200, deadline=None)
@given(iv=sorted_interval_families(),
       ks=st.lists(st.integers(-3, 8), min_size=1, max_size=6))
def test_covering_count_matches_loop(iv, ks):
    """One pass over all the scales counts each scale as the loop does."""
    scales = [2.0 ** -k for k in ks]
    assert (_covering_count_intervals(iv, scales).tolist()
            == [covering_count_loop(iv, eps) for eps in scales])


def test_covering_count_matches_loop_on_projections(gens):
    scales = [2.0 ** -k for k in range(2, 11)]
    for th in np.linspace(0.05, 3.0, 7):
        iv = project_generation(gens(5), float(th))
        assert (_covering_count_intervals(iv, scales).tolist()
                == [covering_count_loop(iv, eps) for eps in scales])


@settings(max_examples=100, deadline=None)
@given(iv=sorted_interval_families(),
       ks=st.lists(st.integers(-3, 8), min_size=1, max_size=6),
       block=st.integers(1, 40))
def test_covering_count_blocks_match_loop(iv, ks, block):
    """Scales taken in blocks of at most `block` table entries (a scale a
    block when a row alone is larger) count as the loop does."""
    scales = [2.0 ** -k for k in ks]
    with mock.patch.object(_kernels, "_PASS", block):
        assert (_covering_count_intervals(iv, scales).tolist()
                == [covering_count_loop(iv, eps) for eps in scales])


def test_covering_count_memory_is_blocked():
    """2^17 intervals at 19 scales: the counts peak below one (scales x
    intervals) int64 table, where the one-pass form held several."""
    k = 2 ** 17
    lo = np.arange(k) / k
    iv = IntervalSet(lo, lo + 0.5 / k)
    scales = [2.0 ** -j for j in range(2, 21)]
    tracemalloc.start()
    try:
        counts = _covering_count_intervals(iv, scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(scales) * k * 8
    # each 2^-j cell meets an interval for j <= 17, and past that each
    # interval spans 2^(j-18) cells
    assert counts.tolist() == [2 ** j if j <= 17 else k * 2 ** (j - 18)
                               for j in range(2, 21)]


class TestWellDistributed:
    def test_uniform_grid_passes(self):
        n = 256
        pos = (np.arange(n) + 0.5) / n
        res = check_well_distributed(pos, np.full(n, 1.0 / n), 1.0 / n,
                                     kappa=0.5, tau=0.1)
        assert res.passed
        assert res.worst_mass <= res.worst_bound

    def test_atom_fails_with_witness(self):
        pos = np.concatenate([[0.5], np.linspace(2.0, 3.0, 50)])
        w = np.concatenate([[0.9], np.full(50, 0.1 / 50)])
        res = check_well_distributed(pos, w, 0.01, kappa=0.5, tau=0.5)
        assert not res.passed
        a, b = res.worst_interval
        assert a <= 0.5 <= b
        assert res.worst_mass >= 0.9
        assert res.worst_mass > res.worst_bound

    def test_circle_wraparound(self):
        # two moderate atoms straddling the seam: each passes alone on the
        # line but their union is caught only by a wrapping interval
        filler = np.linspace(2.0, 4.0, 40)
        pos = np.concatenate([[2 * math.pi - 0.004, 0.003], filler])
        w = np.concatenate([[0.3, 0.3], np.full(40, 0.4 / 40)])
        line = check_well_distributed(pos, w, 0.01, kappa=0.25, tau=0.5)
        circ = check_well_distributed(pos, w, 0.01, kappa=0.25, tau=0.5,
                                      circle=True)
        assert line.passed
        assert not circ.passed
        assert circ.worst_mass >= 0.59

    def test_budget_guard(self):
        pos = np.array([0.0, 1.0])
        w = np.array([0.5, 0.5])
        with pytest.raises(ResourceBudgetError):
            check_well_distributed(pos, w, 1e-6, kappa=0.5, tau=0.5)

    def test_validation(self):
        pos = np.array([0.0, 1.0])
        w = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="normalized"):
            check_well_distributed(pos, np.array([1.0, 1.0]), 0.01, 0.5, 0.5)
        with pytest.raises(ValueError):
            check_well_distributed(pos, w, 0.01, kappa=0.0, tau=0.5)
        with pytest.raises(ValueError):
            check_well_distributed(pos, w, 0.01, kappa=0.5, tau=1.0)

    @pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            check_well_distributed(np.array([0.0, 1.0]), np.array([0.5, 0.5]),
                                   delta, kappa=0.5, tau=0.5)

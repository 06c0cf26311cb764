"""Projective and polar diffeomorphisms, preset application, and the
radial/projection bridge."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.spatial

from favlab.geometry import Point2, Square
from favlab.transforms import (POLAR, PROJECTIVE_T, DomainError,
                               SingularInputError, affine_preset,
                               apply_diffeo, jacobian_norms, polar_phi,
                               polar_visibility_from_origin,
                               projective_T, radial_vs_projection_bridge,
                               theta_x)
from favlab.visibility import PointCloud, build_line_family, cloud_from_generation, visibility


class TestProjectiveT:
    def test_examples(self):
        q = projective_T(Point2(0.0, 1.0))
        assert (q.x, q.y) == (1.0, 2.0)
        q = projective_T(Point2(1.0, 1.0))
        assert (q.x, q.y) == (2.0, 2.0)
        q = projective_T(Point2(3.0, 2.0))
        assert (q.x, q.y) == (2.0, 1.5)

    def test_maps_lines_to_lines(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            p0 = rng.uniform(1, 20, 2)
            d = rng.uniform(-1, 1, 2)
            ts = np.array([0.0, 0.37, 1.0])
            pts = p0 + ts[:, None] * d
            if np.any(np.abs(pts[:, 1]) < 0.5):
                continue
            imgs = [projective_T(Point2(*p)) for p in pts]
            (x1, y1), (x2, y2), (x3, y3) = [(q.x, q.y) for q in imgs]
            cross = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
            assert abs(cross) < 1e-9

    def test_singular_axis(self):
        with pytest.raises(SingularInputError):
            projective_T(Point2(1.0, 0.0))

    def test_near_singular_guard(self):
        with pytest.raises(DomainError):
            projective_T(Point2(1.0, 0.1))
        # the guard is closed at |y| = 1/2
        q = projective_T(Point2(1.0, -0.5))
        assert (q.x, q.y) == (-4.0, -1.0)


class TestThetaX:
    def test_values(self):
        assert theta_x(0.0) == pytest.approx(math.pi / 4)
        assert theta_x(-1.0) == pytest.approx(math.pi / 2)
        assert 0 < theta_x(10.0) < math.pi / 2

    def test_bi_lipschitz_band(self):
        """On [-10, 0] the direction map distorts distances by a factor in
        [1/102, 1]: |theta'| = 1/(1+(x+1)^2) over x+1 in [-9, 1]."""
        rng = np.random.default_rng(4)
        xs = rng.uniform(-10.0, 0.0, size=(1000, 2))
        for a, b in xs:
            if a == b:
                continue
            ratio = abs(theta_x(a) - theta_x(b)) / abs(a - b)
            assert 1 / 102 - 1e-12 <= ratio <= 1 + 1e-12


class TestPolarPhi:
    def test_examples(self):
        q = polar_phi(Point2(0.0, 0.0))
        assert (q.x, q.y) == pytest.approx((1.0, 0.0))
        q = polar_phi(Point2(1.0, 0.5))
        assert (q.x, q.y) == pytest.approx((0.0, 2.0), abs=1e-12)

    def test_radius_identity(self):
        rng = np.random.default_rng(6)
        for x, y in rng.uniform(0, 1, size=(50, 2)):
            q = polar_phi(Point2(x, y))
            assert math.hypot(q.x, q.y) == pytest.approx(x + 1, abs=1e-12)

    def test_matches_vectorized_preset(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(20, 2))
        imgs = POLAR.forward(pts)
        for i, (x, y) in enumerate(pts):
            q = polar_phi(Point2(x, y))
            assert imgs[i] == pytest.approx((q.x, q.y), abs=1e-12)


class TestApplyDiffeo:
    def test_identity_affine_is_noop(self, gens):
        A = cloud_from_generation(gens(3))
        d = affine_preset(np.eye(2), np.zeros(2), Square(Point2(0, 0), 1.0))
        B = apply_diffeo(d, A)
        np.testing.assert_allclose(B.points, A.points)
        # delta may tighten to the true nearest-neighbor spread, never grow
        assert B.delta <= A.delta + 1e-15

    def test_affine_rejects_singular(self):
        with pytest.raises(ValueError, match="invertible"):
            affine_preset(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2),
                          Square(Point2(0, 0), 1.0))

    def test_domain_violation_names_point(self, gens):
        A = cloud_from_generation(gens(2))
        with pytest.raises(DomainError, match=r"\(0\.03125, 0\.03125\)"):
            apply_diffeo(PROJECTIVE_T, A)

    def test_polar_separation_band(self, gens):
        A = cloud_from_generation(gens(4))
        B = apply_diffeo(POLAR, A)
        assert len(B) == len(A)
        # the image cloud is B.delta-separated
        from scipy.spatial import cKDTree
        d2 = cKDTree(B.points).query(B.points, k=2)[0][:, 1]
        assert d2.min() >= B.delta - 1e-12
        # and the rescaling stays within the global Jacobian band
        sup_j = jacobian_norms(POLAR, A.points).max()
        assert B.delta <= A.delta * sup_j

    def test_projective_on_shifted_cloud(self, gens):
        from favlab.ifs import generate_generation, preset as ifs_preset
        g = generate_generation(ifs_preset("fourcorner-wide"), 3)
        A = cloud_from_generation(g)
        B = apply_diffeo(PROJECTIVE_T, A)
        assert len(B) == len(A)
        assert 0 < B.delta < A.delta

    def test_jacobian_grid_memory_is_blocked(self):
        """The 1901 x 1901 Jacobian grid of PROJECTIVE_T is taken in passes
        of about _kernels._PASS points: two points peak under 32 MiB, where
        the whole grid held about 410 MiB."""
        A = PointCloud(np.array([[2.0, 3.0], [5.0, 7.0]]), 0.01)
        assert scipy.spatial.cKDTree     # loaded before the trace
        tracemalloc.start()
        try:
            apply_diffeo(PROJECTIVE_T, A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestPolarVisibility:
    def test_half_ratio(self, gens):
        """The polar image of any stage subtends exactly half the linear
        visibility pattern: angle pi*y depends on y alone."""
        for n in (1, 2, 3, 4):
            g = gens(n)
            v = polar_visibility_from_origin(g)
            assert v == pytest.approx(0.5 ** n / 2, abs=1e-12)

    def test_stage_one_value(self, gens):
        # rows at y in [0, 1/4] and [3/4, 1]: total angle 2 * pi/4
        assert polar_visibility_from_origin(gens(1)) == \
            pytest.approx(0.25, abs=1e-12)


class TestBridge:
    def test_empty_cloud(self):
        fam = build_line_family(0.05, 2.0)
        A = PointCloud(np.empty((0, 2)), 0.05)
        assert radial_vs_projection_bridge(A, [-1.0, -2.0], fam) == \
            [(0, 0.0), (0, 0.0)]

    def test_domain_guard(self, gens):
        A = cloud_from_generation(gens(2))
        fam = build_line_family(A.delta, 2.0)
        with pytest.raises(DomainError):
            radial_vs_projection_bridge(A, [-1.0, 1.0], fam)

    def test_wide_cloud_values(self):
        from favlab.ifs import generate_generation, preset as ifs_preset
        g = generate_generation(ifs_preset("fourcorner-wide"), 3)
        A = cloud_from_generation(g)
        fam = build_line_family(A.delta, 30.0)
        [(vd, length)] = radial_vs_projection_bridge(A, [-1.0], fam)
        assert vd > 0
        assert length > 0
        # projected length of the thickened image is at most the span of a
        # bounded set: the image of [1,20]^2 under T lies in [0.1, 21]^2
        assert length < 2 * 30.0

"""Plane diffeomorphisms used by the experiments: the projective map
sending pencils of lines to parallel families, its direction map, the
polar wrap of the unit square, and affine maps; plus application of a
preset to a point cloud with a sampled Jacobian bound.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .geometry import Point2, Square, TWO_PI, CircularIntervalSet, IntervalSet
from .ifs import Generation
from .visibility import DEFAULT_C, LineFamily, PointCloud, vis_delta


class SingularInputError(ValueError):
    """The map is singular at the given point (line at infinity)."""


class DomainError(ValueError):
    """A point lies outside the preset's declared domain."""


#: Jacobian sampling step for the delta-rescaling bound
JACOBIAN_GRID_STEP = 1e-2
#: slack of the domain test against rounding at the square's edges
DOMAIN_PAD = 1e-9


def projective_T(p: Point2) -> Point2:
    """(x, y) -> ((x+1)/y, (y+1)/y); maps lines to lines, y = 0 is sent to
    the line at infinity.

    The library guard requires |y| >= 1/2 (the intended fixtures sit in
    [1, 20]^2).
    """
    if p.y == 0:
        raise SingularInputError("projective map undefined on y = 0")
    if abs(p.y) < 0.5:
        raise DomainError(f"|y| = {abs(p.y)} < 1/2")
    return Point2((p.x + 1) / p.y, (p.y + 1) / p.y)


def theta_x(x: float) -> float:
    """Direction arccot(x+1) in (0, pi) of the image of the pencil of lines
    through (x, 0)."""
    return math.pi / 2 - math.atan(x + 1)


def polar_phi(p: Point2) -> Point2:
    """(x, y) -> ((x+1) cos(pi y), (x+1) sin(pi y)); a diffeomorphism on a
    neighborhood of the unit square, with |phi(p)| = x + 1."""
    r = p.x + 1
    return Point2(r * math.cos(math.pi * p.y), r * math.sin(math.pi * p.y))


def _polar_forward(pts: np.ndarray) -> np.ndarray:
    r = pts[:, 0] + 1
    ang = math.pi * pts[:, 1]
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)


def _polar_jacobian(pts: np.ndarray) -> np.ndarray:
    r = pts[:, 0] + 1
    ang = math.pi * pts[:, 1]
    c, s = np.cos(ang), np.sin(ang)
    out = np.empty((len(pts), 2, 2))
    out[:, 0, 0] = c
    out[:, 0, 1] = -math.pi * r * s
    out[:, 1, 0] = s
    out[:, 1, 1] = math.pi * r * c
    return out


def _projective_forward(pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([(x + 1) / y, (y + 1) / y], axis=1)


def _projective_jacobian(pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    out = np.empty((len(pts), 2, 2))
    out[:, 0, 0] = 1 / y
    out[:, 0, 1] = -(x + 1) / y ** 2
    out[:, 1, 0] = 0.0
    out[:, 1, 1] = -1 / y ** 2
    return out


@dataclass(frozen=True)
class DiffeoPreset:
    """Forward map plus closed-form Jacobian, valid on a declared square."""

    name: str
    forward: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    domain: Square

    def contains(self, pts: np.ndarray) -> np.ndarray:
        c, a, pad = self.domain.corner, self.domain.side, DOMAIN_PAD
        return ((pts[:, 0] >= c.x - pad) & (pts[:, 0] <= c.x + a + pad)
                & (pts[:, 1] >= c.y - pad) & (pts[:, 1] <= c.y + a + pad))


def affine_preset(mat: np.ndarray, shift: np.ndarray,
                  domain: Square) -> DiffeoPreset:
    mat = np.asarray(mat, dtype=float).reshape(2, 2)
    shift = np.asarray(shift, dtype=float).reshape(2)
    if abs(np.linalg.det(mat)) < 1e-15:
        raise ValueError("affine map must be invertible")

    def fwd(pts):
        return pts @ mat.T + shift

    def jac(pts):
        return np.broadcast_to(mat, (len(pts), 2, 2))

    return DiffeoPreset("affine", fwd, jac, domain)


POLAR = DiffeoPreset("polar", _polar_forward, _polar_jacobian,
                     Square(Point2(0.0, 0.0), 1.0))
PROJECTIVE_T = DiffeoPreset("projectiveT", _projective_forward,
                            _projective_jacobian,
                            Square(Point2(1.0, 1.0), 19.0))


def _inverse_jacobian_sup(d: DiffeoPreset) -> float:
    """Sup of the operator norm of the inverse differential, sampled on a
    dense n x n grid over the declared domain, _PASS // n rows a pass."""
    c = d.domain.corner
    n = max(2, int(math.ceil(d.domain.side / JACOBIAN_GRID_STEP)) + 1)
    xs = np.linspace(c.x, c.x + d.domain.side, n)
    ys = np.linspace(c.y, c.y + d.domain.side, n)
    rows = max(1, _kernels._PASS // n)
    sup = 0.0
    for a in range(0, n, rows):
        pts = np.stack(np.meshgrid(xs, ys[a:a + rows]), axis=-1).reshape(-1, 2)
        inv = np.linalg.inv(d.jacobian(pts))
        sup = max(sup, float(np.linalg.norm(inv, ord=2, axis=(1, 2)).max()))
    return sup


def jacobian_norms(d: DiffeoPreset, pts: np.ndarray) -> np.ndarray:
    """Operator norms of the differential at the given points."""
    return np.linalg.norm(d.jacobian(pts), ord=2, axis=(1, 2))


def apply_diffeo(d: DiffeoPreset, A: PointCloud) -> PointCloud:
    """Image cloud with the separation scale rescaled by the sampled
    inverse-Jacobian bound and verified against the actual point spread."""
    inside = d.contains(A.points)
    if not inside.all():
        bad = A.points[~inside][0]
        raise DomainError(
            f"point ({bad[0]}, {bad[1]}) outside the {d.name} domain")
    image = d.forward(A.points)
    delta_new = A.delta / _inverse_jacobian_sup(d)
    if len(image) > 1:
        # imported here, so that loading favlab does not load scipy.spatial
        from scipy.spatial import cKDTree

        tree = cKDTree(image)
        dists, _ = tree.query(image, k=2)
        actual = float(dists[:, 1].min())
        delta_new = min(delta_new, actual)
    return PointCloud(image, delta_new, A.weights)


# ---------------------------------------------------------------------------
# polar Cantor visibility from the origin
# ---------------------------------------------------------------------------

def polar_visibility_from_origin(gen: Generation) -> float:
    """vis(0, phi(J_n)) via exact circular unions of the polar image arcs."""
    return CircularIntervalSet.from_arcs(np.column_stack(
        (math.pi * gen.corner_y, math.pi * gen.sides))).measure() / TWO_PI


# ---------------------------------------------------------------------------
# radial/projection bridge
# ---------------------------------------------------------------------------

def radial_vs_projection_bridge(A: PointCloud, xs: Sequence[float],
                                fam: LineFamily, c: float = DEFAULT_C
                                ) -> list[tuple[int, float]]:
    """Per abscissa x, the discrete visibility from (x, 0) next to the
    projected length of the projective image of the delta-thickened cloud
    in direction theta_x."""
    if not all(-10 <= x <= 0 for x in xs):
        raise DomainError("vantage abscissa must lie in [-10, 0]")
    vds = vis_delta([Point2(x, 0.0) for x in xs], A, fam, c)
    image = _projective_forward(A.points)
    # each delta-ball maps to a region within delta * |J| of the image point
    radii = A.delta * jacobian_norms(PROJECTIVE_T, A.points)
    out = []
    for x, vd in zip(xs, vds):
        th = theta_x(x)
        t = image[:, 0] * math.cos(th) + image[:, 1] * math.sin(th)
        out.append((vd, IntervalSet.from_arrays(t - radii, t + radii)
                    .measure()))
    return out

"""Radial-projection visibility and the delta-discretized incidence
machinery: the line family L_delta, per-line richness f_delta, discrete
visibility vis_delta, directional mass, angular-interval selection, cone
counts, richness histograms, and low-visibility line scans.

Line-neighborhood membership uses closed conditions everywhere; boundary
double counting is absorbed by the constant-fold overlap slack built into
all the definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .geometry import (FULL, TWO_PI, CircularIntervalSet, GeometryError,
                       Line, Point2, hull_arcs_of_squares)
from .ifs import Generation, ResourceBudgetError

#: default richness-neighborhood multiplier; large enough for ambient radius
#: d <= 2 fixtures (checked directly in the test suite)
DEFAULT_C = 4.0

#: cap on materialized DiscreteLine lists and dense count tables
LINE_BUDGET = 2_000_000
TABLE_BUDGET = 50_000_000


@dataclass(frozen=True)
class PointCloud:
    """delta-separated planar point set with optional normalized weights."""

    points: np.ndarray          # (m, 2)
    delta: float
    weights: np.ndarray | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (len(pts),) or np.any(w < 0):
                raise ValueError("weights must be nonnegative, one per point")
            object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]


def cloud_from_generation(gen: Generation) -> PointCloud:
    """Square centers of a generation as a delta-separated cloud."""
    return PointCloud(gen.centers(), float(gen.side))


# ---------------------------------------------------------------------------
# radial projections
# ---------------------------------------------------------------------------

def radial_projection(gen: Generation, a: Point2) -> CircularIntervalSet:
    """Exact direction set of the generation squares seen from a."""
    arcs = hull_arcs_of_squares(gen.corner_x, gen.corner_y, gen.sides, a)
    if arcs is FULL:
        return CircularIntervalSet.full()
    starts, widths = arcs
    return CircularIntervalSet.from_arcs(zip(starts.tolist(), widths.tolist()))


def radial_projection_balls(cloud: PointCloud, radius: float,
                            a: Point2) -> CircularIntervalSet:
    """Direction set of the union of radius-balls around the cloud points."""
    dx = cloud.x - a.x
    dy = cloud.y - a.y
    dist = np.hypot(dx, dy)
    if np.any(dist <= radius):
        return CircularIntervalSet.full()
    half = np.arcsin(radius / dist)
    centers = np.arctan2(dy, dx)
    return CircularIntervalSet.from_arcs(
        zip((centers - half).tolist(), (2 * half).tolist()))


def visibility(gen: Generation, a: Point2) -> float:
    """Normalized angular measure of the radial projection."""
    return radial_projection(gen, a).measure() / TWO_PI


# ---------------------------------------------------------------------------
# the discretized line family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteLine:
    k1: int
    k2: int
    line: Line
    delta: float


@dataclass(frozen=True)
class LineFamily:
    """Maximal delta-discretized family of lines meeting B(0, d).

    Directions are k1 * delta for k1 in [0, pi/delta]; signed offsets are
    k2 * delta.  The offset index runs over [-d/delta, d/delta]: the
    nonnegative half alone would leave half of B(0, d) uncovered, and the
    family is meant to be maximal.
    """

    delta: float
    d: float

    def __post_init__(self):
        if not (0 < self.delta <= self.d):
            raise GeometryError(
                f"need 0 < delta <= d, got delta={self.delta}, d={self.d}")

    @property
    def k1_count(self) -> int:
        return int(math.floor(math.pi / self.delta)) + 1

    @property
    def k2_max(self) -> int:
        return int(math.floor(self.d / self.delta))

    @property
    def k2_min(self) -> int:
        return -self.k2_max

    @property
    def n_lines(self) -> int:
        return self.k1_count * (2 * self.k2_max + 1)

    def line(self, k1: int, k2: int) -> DiscreteLine:
        return DiscreteLine(k1, k2, Line(k1 * self.delta, k2 * self.delta),
                            self.delta)

    @cached_property
    def thetas(self) -> np.ndarray:
        return np.arange(self.k1_count) * self.delta

    @property
    def lines(self) -> list[DiscreteLine]:
        if self.n_lines > LINE_BUDGET:
            raise ResourceBudgetError(
                f"family has {self.n_lines} lines; materialization cap is "
                f"{LINE_BUDGET}")
        return [self.line(k1, k2)
                for k1 in range(self.k1_count)
                for k2 in range(self.k2_min, self.k2_max + 1)]


def build_line_family(delta: float, d: float) -> LineFamily:
    return LineFamily(delta, d)


def f_delta(ell: DiscreteLine, A: PointCloud, c: float = DEFAULT_C) -> int:
    """Number of cloud points within c*delta of the line (closed)."""
    if c <= 0:
        raise ValueError("c must be positive")
    th = ell.line.theta
    t = -math.sin(th) * A.x + math.cos(th) * A.y
    return int(np.count_nonzero(np.abs(t - ell.line.offset)
                                <= c * ell.delta))


def counts_table(A: PointCloud, fam: LineFamily,
                 c: float = DEFAULT_C) -> np.ndarray:
    """Dense table of f_delta over the whole family; cnt[k1, k2 - k2_min]."""
    size = fam.k1_count * (2 * fam.k2_max + 1)
    if size > TABLE_BUDGET:
        raise ResourceBudgetError(
            f"count table needs {size} cells; cap is {TABLE_BUDGET}")
    return _kernels.line_counts_table(
        np.ascontiguousarray(A.x), np.ascontiguousarray(A.y),
        fam.delta, c, fam.k1_count, fam.k2_min, fam.k2_max)


def _vantage_projections(a: Point2, fam: LineFamily) -> np.ndarray:
    th = fam.thetas
    return -np.sin(th) * a.x + np.cos(th) * a.y


def vis_delta(a: Point2, A: PointCloud, fam: LineFamily,
              c: float = DEFAULT_C, table: np.ndarray | None = None) -> int:
    """Count of family lines whose 2-delta tube contains the vantage and
    whose c-delta tube meets the cloud."""
    if len(A) == 0:
        return 0
    if table is None:
        table = counts_table(A, fam, c)
    return int(_vis_delta_from_table(np.array([[a.x, a.y]]), fam, table)[0])


def _vis_delta_from_table(vantages: np.ndarray, fam: LineFamily,
                          table: np.ndarray) -> np.ndarray:
    """Vectorized vis_delta for an (m, 2) array of vantage points."""
    delta = fam.delta
    th = fam.thetas
    sin_t, cos_t = np.sin(th), np.cos(th)
    occupied = table > 0
    out = np.empty(len(vantages), dtype=np.int64)
    width = int(math.floor(4.0)) + 1  # |t - k2 d| <= 2d spans <= 5 indices
    offsets = np.arange(width)
    for i, (ax, ay) in enumerate(vantages):
        t = -sin_t * ax + cos_t * ay
        lo, hi = _kernels._k2_windows(t, delta, 2 * delta, fam.k2_min,
                                      fam.k2_max)
        cand = lo[:, None] + offsets[None, :]
        valid = cand <= hi[:, None]
        cand = np.clip(cand - fam.k2_min, 0, table.shape[1] - 1)
        hits = occupied[np.arange(fam.k1_count)[:, None], cand] & valid
        out[i] = int(np.count_nonzero(hits))
    return out


def l2_norm_f(A: PointCloud, fam: LineFamily, c: float = DEFAULT_C) -> float:
    """Family-averaged squared richness (1/|L|) * sum_l f_delta(l)^2."""
    if len(A) == 0:
        return 0.0
    mask = np.ones(fam.k1_count, dtype=bool)
    sum_sq, _ = _kernels.f_delta_stats(
        np.ascontiguousarray(A.x), np.ascontiguousarray(A.y),
        fam.delta, c, mask, fam.k2_min, fam.k2_max)
    return sum_sq / fam.n_lines


Arc = tuple[float, float]


def _arc_contains(arc: Arc, angle: float) -> bool:
    start, length = arc
    return (angle - start) % TWO_PI <= length


def _direction_mask(fam: LineFamily, theta_set: Arc,
                    antipodal: bool = True) -> np.ndarray:
    """Which family directions fall in the arc (optionally union its
    antipode), with directions read as angles in [0, pi)."""
    start, length = theta_set
    mask = np.remainder(fam.thetas - start, TWO_PI) <= length
    if antipodal:
        mask |= np.remainder(fam.thetas + math.pi - start, TWO_PI) <= length
    return mask


def mass(a: Point2, theta_set: Arc, A: PointCloud, fam: LineFamily,
         c: float = DEFAULT_C, table: np.ndarray | None = None) -> int:
    """Total richness of the lines through the vantage's 2-delta ball whose
    direction lies in the arc or its antipode."""
    if len(A) == 0:
        return 0
    if table is None:
        table = counts_table(A, fam, c)
    dmask = _direction_mask(fam, theta_set, antipodal=True)
    t = _vantage_projections(a, fam)
    lo, hi = _kernels._k2_windows(t, fam.delta, 2 * fam.delta, fam.k2_min,
                                  fam.k2_max)
    total = 0
    for k1 in np.flatnonzero(dmask):
        if lo[k1] <= hi[k1]:
            row = table[k1]
            total += int(row[lo[k1] - fam.k2_min: hi[k1] - fam.k2_min + 1].sum())
    return total


def cone_count(a: Point2, theta_set: Arc, A: PointCloud, fam: LineFamily,
               c: float = DEFAULT_C, table: np.ndarray | None = None) -> int:
    """Exact count of pairs (a', l): a' in the cloud, a' != a, both a and a'
    within c*delta of l, and the direction of l in the arc."""
    if len(A) == 0:
        return 0
    if table is None:
        table = counts_table(A, fam, c)
    dmask = _direction_mask(fam, theta_set, antipodal=False)
    t = _vantage_projections(a, fam)
    reach = c * fam.delta
    lo, hi = _kernels._k2_windows(t, fam.delta, reach, fam.k2_min, fam.k2_max)
    a_in_cloud = bool(np.any((A.x == a.x) & (A.y == a.y)))
    total = 0
    for k1 in np.flatnonzero(dmask):
        if lo[k1] > hi[k1]:
            continue
        row = table[k1, lo[k1] - fam.k2_min: hi[k1] - fam.k2_min + 1]
        total += int(row.sum())
        if a_in_cloud:
            # each qualifying line counts the vantage itself once
            total -= int(len(row))
    return total


@dataclass(frozen=True)
class SelectedIntervals:
    arc1: Arc
    arc2: Arc
    i1: int
    i2: int
    mass1: int
    mass2: int


def _arc_distance(a: Arc, b: Arc) -> float:
    """Distance on S^1 between two arcs (0 when they overlap)."""
    (s1, l1), (s2, l2) = a, b
    if _arc_contains(a, s2) or _arc_contains(b, s1):
        return 0.0
    gap12 = (s2 - (s1 + l1)) % TWO_PI
    gap21 = (s1 - (s2 + l2)) % TWO_PI
    return min(gap12, gap21)


def select_intervals(a: Point2, A: PointCloud, fam: LineFamily, k: int,
                     c: float = DEFAULT_C,
                     table: np.ndarray | None = None) -> SelectedIntervals | None:
    """First (lexicographic) pair of 2pi/k grid arcs, separated from each
    other and from each other's antipode, each catching > |A|/10k of mass.

    Returns None when no pair qualifies, which signals a cloud concentrated
    near a single line through the vantage.
    """
    if k <= 10 or k % 2:
        raise ValueError("k must be even and > 10")
    if len(A) == 0:
        return None
    if table is None:
        table = counts_table(A, fam, c)
    width = TWO_PI / k
    arcs = [((i - 1) * width, width) for i in range(1, k + 1)]
    masses = [mass(a, arc, A, fam, c, table=table) for arc in arcs]
    threshold = len(A) / (10 * k)
    for i1 in range(k):
        if masses[i1] <= threshold:
            continue
        for i2 in range(i1 + 1, k):
            if masses[i2] <= threshold:
                continue
            anti2 = ((arcs[i2][0] + math.pi) % TWO_PI, width)
            if (_arc_distance(arcs[i1], arcs[i2]) >= width
                    and _arc_distance(arcs[i1], anti2) >= width):
                return SelectedIntervals(arcs[i1], arcs[i2], i1 + 1, i2 + 1,
                                         masses[i1], masses[i2])
    return None


@dataclass(frozen=True)
class RichnessHistogram:
    """Dyadic census of per-line richness: buckets[j] counts lines with
    2^j < f_delta <= 2^(j+1)."""

    buckets: dict[int, int]
    family_size: int

    def total(self) -> int:
        return sum(self.buckets.values())


def richness_histogram(A: PointCloud, fam: LineFamily, c: float = DEFAULT_C,
                       theta_filter: Arc | None = None) -> RichnessHistogram:
    if len(A) == 0:
        return RichnessHistogram({}, fam.n_lines)
    if theta_filter is None:
        mask = np.ones(fam.k1_count, dtype=bool)
    else:
        mask = _direction_mask(fam, theta_filter, antipodal=True)
    _, hist = _kernels.f_delta_stats(
        np.ascontiguousarray(A.x), np.ascontiguousarray(A.y),
        fam.delta, c, mask, fam.k2_min, fam.k2_max)
    buckets = {lev - 1: int(cnt) for lev, cnt in enumerate(hist) if cnt > 0}
    return RichnessHistogram(buckets, fam.n_lines)


def scan_line_low_visibility(ell0: Line, A: PointCloud, fam: LineFamily,
                             lam: float, sample_step: float | None = None,
                             c: float = DEFAULT_C,
                             table: np.ndarray | None = None) -> float:
    """Length estimate of {a on ell0 inside B(0, d): vis_delta(a) < lam/delta},
    sampled at half-delta resolution along the chord."""
    if not (0 < lam <= 1):
        raise ValueError("lam must be in (0, 1]")
    step = fam.delta / 2 if sample_step is None else sample_step
    if step > fam.delta:
        raise ValueError("sample_step must be <= delta")
    if abs(ell0.offset) >= fam.d:
        return 0.0
    if table is None and len(A) > 0:
        table = counts_table(A, fam, c)
    half = math.sqrt(fam.d ** 2 - ell0.offset ** 2)
    n = max(1, int(math.floor(2 * half / step)))
    ts = (np.arange(n) + 0.5) * step - half
    nx, ny = -math.sin(ell0.theta), math.cos(ell0.theta)
    dx, dy = math.cos(ell0.theta), math.sin(ell0.theta)
    pts = np.stack([ell0.offset * nx + ts * dx,
                    ell0.offset * ny + ts * dy], axis=1)
    if len(A) == 0:
        return n * step
    vis = _vis_delta_from_table(pts, fam, table)
    return float(np.count_nonzero(vis < lam / fam.delta) * step)

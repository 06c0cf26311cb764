"""Radial-projection visibility and the delta-discretized incidence
machinery: the line family L_delta, per-line richness f_delta, discrete
visibility vis_delta, directional mass, angular-interval selection, cone
counts, richness histograms, and low-visibility line scans.

Line-neighborhood membership uses closed conditions everywhere; boundary
double counting is absorbed by the constant-fold overlap slack built into
all the definitions.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .geometry import (TWO_PI, CircularIntervalSet, GeometryError, Line,
                       Point2, _arc_union, hull_arcs_of_squares)
from .ifs import (WORK_BUDGET, Generation, IFSystem, _generation_blocks,
                  _stage_squares, check_budget)

#: default richness-neighborhood multiplier; large enough for ambient radius
#: d <= 2 fixtures (checked directly in the test suite)
DEFAULT_C = 4.0

#: cap on the cells that the dense oracle table `counts_table` holds
TABLE_BUDGET = 50_000_000

#: squares per block of the radial arc union; a block's hull arcs take
#: about 0.2 KB a square while they are computed
_ARC_BLOCK = 2 ** 14


@dataclass(frozen=True)
class PointCloud:
    """delta-separated planar point set with optional normalized weights."""

    points: np.ndarray          # (m, 2), column-major: x and y contiguous
    delta: float
    weights: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pts = np.atleast_2d(pts) if pts.size else pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must be an (m, 2) array, got shape "
                             f"{pts.shape}")
        pts = np.asfortranarray(pts)
        object.__setattr__(self, "points", pts)
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be positive and finite")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (len(pts),) or not np.all(np.isfinite(w) & (w >= 0)):
                raise ValueError("weights must be finite and nonnegative, "
                                 "one per point")
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

def _hull_arcs(blocks, a: Point2):
    """Per (corner_x, corner_y, sides) block of squares, their (k, 2) hull
    arcs seen from a, less those of width <= 0."""
    for x0, y0, sides in blocks:
        starts, widths = hull_arcs_of_squares(x0, y0, sides, a)
        # a square too small to part its corners' directions has a width
        # within an ulp of 0, on either side, and adds nothing to the union
        keep = widths > 0
        yield np.column_stack((starts[keep], widths[keep]))
        # the next block is built while these names no longer hold this one
        del x0, y0, sides, starts, widths, keep


def radial_projection(gen: Generation, a: Point2) -> CircularIntervalSet:
    """Exact direction set of the generation squares seen from a."""
    blocks = ((gen.corner_x[i:i + _ARC_BLOCK], gen.corner_y[i:i + _ARC_BLOCK],
               gen.sides[i:i + _ARC_BLOCK])
              for i in range(0, len(gen), _ARC_BLOCK))
    return _arc_union(_hull_arcs(blocks, a))


def streamed_visibility(sys: IFSystem, n: int,
                        vantages: Sequence[Point2]) -> list[tuple[float, int]]:
    """Per vantage, `visibility` of the stage-n squares and the number of
    arcs of their radial projection, bit for bit, from squares streamed in
    blocks of `_ARC_BLOCK`: no generation is held.

    The squares streamed for all the vantages are checked first against
    WORK_BUDGET >> 5 (one costs about 0.2 us on a 2-core host, so the cap
    stops a run near 7 s)."""
    cap = WORK_BUDGET >> 5
    check_budget(f"visibility of generation {n}",
                 len(vantages) * _stage_squares(sys, n, cap), "squares", cap)
    found = []
    for a in vantages:
        union = _arc_union(_hull_arcs(_generation_blocks(sys, n, _ARC_BLOCK),
                                      a))
        found.append((union.measure() / TWO_PI, len(union)))
    return found


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
        np.column_stack((centers - half, 2 * half)))


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
        if not (math.isfinite(math.pi / self.delta)
                and math.isfinite(self.d / self.delta)):
            raise GeometryError(
                f"pi/delta and d/delta must be finite, got delta={self.delta}, "
                f"d={self.d}")

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


def build_line_family(delta: float, d: float) -> LineFamily:
    return LineFamily(delta, d)


def f_delta(ell: DiscreteLine, A: PointCloud, c: float = DEFAULT_C) -> int:
    """Number of cloud points within c*delta of the line (closed)."""
    _kernels._check_c(c)
    th = ell.line.theta
    t = -math.sin(th) * A.x + math.cos(th) * A.y
    return int(np.count_nonzero(np.abs(t - ell.line.offset)
                                <= c * ell.delta))


#: steps (about 10 ns each, 2-core host) a direction besides its windows
#: and row cells; the candidate engine charges them once a query.  Reading
#: one direction's vantage windows off its row costs about 5 us of
#: interpreter work; a candidate query holds 56 bytes a direction while it
#: queries a vantage, and the term keeps those arrays near 120 MB under the
#: cap
_DIRECTION_STEPS = 500
#: steps a direction for each vantage of the candidate engine: a vantage's
#: windows and covered cells take 24-26 ns a direction (one-point clouds at
#: delta = 1e-5 and 3e-6, 10-20 vantages)
_VANTAGE_STEPS = 3
#: steps a direction for one arc's direction mask (about 30 ns)
_MASK_STEPS = 3
#: cells of slack, past c*delta + reach, in the candidates' reach: it
#: covers the rounding of t and of the direction bounds many times over
_SLACK = 0.25


def _check_line_work(A: PointCloud, fam: LineFamily, c: float,
                     more: float) -> None:
    """Raise ResourceBudgetError past WORK_BUDGET for one stream of count
    rows over the line family that takes, per direction, the cloud points'
    windows, the span of a row (_kernels._row_width), _DIRECTION_STEPS and
    `more` steps: the vantages' windows."""
    width = _kernels._row_width(A.x, A.y, fam.delta, c, fam.k2_min,
                                fam.k2_max)
    steps = fam.k1_count * (len(A) + width + _DIRECTION_STEPS + more)
    check_budget("line family", steps, "steps", WORK_BUDGET)


def counts_table(A: PointCloud, fam: LineFamily,
                 c: float = DEFAULT_C) -> np.ndarray:
    """Dense table of f_delta over the whole family; cnt[k1, k2 - k2_min]."""
    check_budget("count table", fam.n_lines, "cells", TABLE_BUDGET)
    return _kernels.line_counts_table(A.x, A.y, fam.delta, c, fam.k1_count,
                                      fam.k2_min, fam.k2_max)


def _window_sums(pts: np.ndarray, A: PointCloud, fam: LineFamily, c: float,
                 reach: float):
    """Yield, per direction k1, the (m,) counts of the lines of row k1 that
    meet the cloud (count > 0) in each vantage's window |t_k1(a) - k2*delta|
    <= reach, read from one prefix sum of the streamed span row; no table
    is kept.  The caller checks the work (_check_line_work)."""
    rows = _kernels._count_rows(A.x, A.y, fam.delta, c, range(fam.k1_count),
                                fam.k2_min, fam.k2_max)
    blocks = _kernels._window_blocks(
        pts[:, 0], pts[:, 1], fam.delta, reach, range(fam.k1_count),
        fam.k2_min, fam.k2_max, _kernels._block_step(len(pts)))
    windows = itertools.chain.from_iterable(zip(*w) for w in blocks)
    for bases, block in rows:
        prefix = np.zeros((len(block), block.shape[1] + 1), dtype=np.int64)
        np.cumsum(block > 0, axis=1, out=prefix[:, 1:])
        for base, pre, (lo, hi) in zip(bases.tolist(), prefix, windows):
            # a window past an end of the span reads 0 or the row's total
            yield (pre.take(hi - base + 1, mode="clip")
                   - pre.take(lo - base, mode="clip"))


def _vantage_windows(vantages: Sequence[Point2], A: PointCloud,
                     fam: LineFamily, c: float, reach: float, more: int):
    """Yield, per vantage a, (lo, hi, windows): the clipped k2 window
    [lo, hi] of the offsets with |t_k1(a) - k2*delta| <= reach of each
    direction k1, and the blocks (k1, a, b) of _kernels._candidate_windows:
    the windows of reach c*delta of the cloud points cut to a's.

    A point p is a candidate of the directions within asin(rho/|p - a|) of
    its direction from a, mod pi (_kernels._direction_ranges), with rho =
    (c + _SLACK)*delta + reach: only there can its window meet a's, so every
    overlap is found and the windows keep the row engine's bits.  The work,
    _DIRECTION_STEPS a direction once, per vantage the points, the
    candidates and _VANTAGE_STEPS a direction, plus `more`, is checked
    before any window is taken; the candidates are counted only when the
    rest fits the cap, and each vantage takes its ranges (48 bytes a point)
    again for its windows rather than hold every vantage's."""
    _kernels._check_c(c)
    rho = (c + _SLACK) * fam.delta + reach

    def ranges(a):
        return _kernels._direction_ranges(A.x, A.y, a.x, a.y, fam.delta, rho,
                                          fam.k1_count)

    steps = (fam.k1_count * (_DIRECTION_STEPS + len(vantages) * _VANTAGE_STEPS)
             + len(vantages) * len(A) + more)
    if steps <= WORK_BUDGET:
        for a in vantages:
            steps += int(ranges(a)[1].sum())
    check_budget("line family", steps, "steps", WORK_BUDGET)
    ns, cs = -np.sin(fam.thetas), np.cos(fam.thetas)
    for a in vantages:
        lo, hi = _kernels._k2_windows(ns * a.x + cs * a.y, fam.delta, reach,
                                      fam.k2_min, fam.k2_max)
        yield lo, hi, _kernels._candidate_windows(
            A.x, A.y, ns, cs, fam.delta, c, lo, hi,
            *ranges(a),
            fam.k2_min, fam.k2_max, _kernels._LINE_BLOCK)


def _direction_sums(a: Point2, A: PointCloud, fam: LineFamily, c: float,
                    reach: float, masks: int) -> tuple[np.ndarray, np.ndarray]:
    """Per direction, the total richness of the lines within reach of a, the
    sum of the candidates' window overlaps, and the number of those lines,
    for a caller that then takes `masks` arc masks of the directions."""
    [(lo, hi, windows)] = _vantage_windows(
        [a], A, fam, c, reach, masks * _MASK_STEPS * fam.k1_count)
    sums = np.zeros(fam.k1_count)
    for k, first, last in windows:
        # an empty overlap has last < first and adds nothing
        sums += np.bincount(k, np.maximum(last - first + 1, 0), fam.k1_count)
    return sums.astype(np.int64), hi - lo + 1


def vis_delta(vantages: Sequence[Point2], A: PointCloud, fam: LineFamily,
              c: float = DEFAULT_C) -> list[int]:
    """Per vantage, the count of family lines whose 2-delta tube contains it
    and whose c-delta tube meets the cloud: the cells of each direction's
    vantage window (at most 5) that some candidate's window covers."""
    found = []
    near = 2 * fam.delta
    for lo, hi, windows in _vantage_windows(vantages, A, fam, c, near, 0):
        cells = int((hi - lo).max(initial=-1)) + 1
        covered = np.zeros((fam.k1_count, max(cells, 0)), dtype=bool)
        for k, a, b in windows:
            a -= lo[k]
            b -= lo[k]
            for cell in range(cells):
                covered[k[(a <= cell) & (cell <= b)], cell] = True
        found.append(int(np.count_nonzero(covered)))
    return found


def _richness_stats(A: PointCloud, fam: LineFamily, c: float):
    """f_delta_stats over every direction of the family."""
    _check_line_work(A, fam, c, 0)
    return _kernels.f_delta_stats(A.x, A.y, fam.delta, c,
                                  np.ones(fam.k1_count, dtype=bool),
                                  fam.k2_min, fam.k2_max)


def l2_norm_f(A: PointCloud, fam: LineFamily, c: float = DEFAULT_C) -> float:
    """Family-averaged squared richness (1/|L|) * sum_l f_delta(l)^2."""
    sum_sq, _ = _richness_stats(A, fam, c)
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
         c: float = DEFAULT_C) -> int:
    """Total richness of the lines through the vantage's 2-delta ball whose
    direction lies in the arc or its antipode."""
    sums, _ = _direction_sums(a, A, fam, c, 2 * fam.delta, 1)
    return int(sums[_direction_mask(fam, theta_set)].sum())


def cone_count(a: Point2, theta_set: Arc, A: PointCloud, fam: LineFamily,
               c: float = DEFAULT_C) -> int:
    """Exact count of pairs (a', l): a' in the cloud, a' != a, both a and a'
    within c*delta of l, and the direction of l in the arc."""
    sums, lines = _direction_sums(a, A, fam, c, c * fam.delta, 1)
    if np.any((A.x == a.x) & (A.y == a.y)):
        # each line within reach of the vantage counts it once
        sums -= lines
    return int(sums[_direction_mask(fam, theta_set, antipodal=False)].sum())


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
                     c: float = DEFAULT_C) -> SelectedIntervals | None:
    """First (lexicographic) pair of 2pi/k grid arcs, separated from each
    other and from each other's antipode, each catching > |A|/10k of mass.

    Returns None when no pair qualifies, which signals a cloud concentrated
    near a single line through the vantage.
    """
    if k <= 10 or k % 2:
        raise ValueError("k must be even and > 10")
    sums, _ = _direction_sums(a, A, fam, c, 2 * fam.delta, k)
    width = TWO_PI / k
    arcs = [((i - 1) * width, width) for i in range(1, k + 1)]
    masses = [int(sums[_direction_mask(fam, arc)].sum()) for arc in arcs]
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


def richness_histogram(A: PointCloud, fam: LineFamily,
                       c: float = DEFAULT_C) -> RichnessHistogram:
    _, hist = _richness_stats(A, fam, c)
    buckets = {lev - 1: int(cnt) for lev, cnt in enumerate(hist) if cnt > 0}
    return RichnessHistogram(buckets, fam.n_lines)


def scan_line_low_visibility(ell0: Line, A: PointCloud, fam: LineFamily,
                             lams: Sequence[float],
                             sample_step: float | None = None,
                             c: float = DEFAULT_C) -> list[float]:
    """Per lam, the length estimate of {a on ell0 inside B(0, d):
    vis_delta(a) < lam/delta}, sampled at half-delta resolution along the
    chord.  Visibility along the chord is computed once for every lam."""
    if not all(0 < lam <= 1 for lam in lams):
        raise ValueError("lam must be in (0, 1]")
    step = fam.delta / 2 if sample_step is None else sample_step
    if not 0 < step <= fam.delta:          # also rejects nan
        raise ValueError(f"sample_step must be in (0, delta], got {step}")
    if abs(ell0.offset) >= fam.d:
        return [0.0] * len(lams)
    half = math.sqrt(fam.d ** 2 - ell0.offset ** 2)
    ratio = 2 * half / step                # inf for a tiny step
    n = max(1, math.floor(ratio)) if math.isfinite(ratio) else ratio
    # before the chord samples are built
    _check_line_work(A, fam, c, n)
    ts = (np.arange(n) + 0.5) * step - half
    nx, ny = -math.sin(ell0.theta), math.cos(ell0.theta)
    dx, dy = math.cos(ell0.theta), math.sin(ell0.theta)
    pts = np.stack([ell0.offset * nx + ts * dx,
                    ell0.offset * ny + ts * dy], axis=1)
    vis = sum(_window_sums(pts, A, fam, c, 2 * fam.delta))
    return [float(np.count_nonzero(vis < lam / fam.delta) * step)
            for lam in lams]

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
                       Point2, _seam_joined, _seam_merged,
                       hull_arcs_of_squares)
from .ifs import (WORK_BUDGET, Generation, IFSystem, _generation_blocks,
                  check_budget)

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

    points: np.ndarray          # (m, 2)
    delta: float
    weights: np.ndarray | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be positive and finite")
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

def _arc_union(blocks, a: Point2):
    """(starts, lengths) arrays of the union of the hull arcs, seen from a,
    of the squares that come as (corner_x, corner_y, sides) blocks.

    Each block's arcs are split at the seam, merged and appended to lo and
    hi behind the running union; once these pending arcs outnumber the
    union, both are sorted and merged in place into the new union.  Memory
    stays O(union + block), and `_seam_merged` says why the result is the
    one union of all the arcs bit for bit."""
    lo = hi = np.empty(0)
    union = filled = 0      # the union in [:union], pending arcs up to filled
    full = False
    for x0, y0, sides in blocks:
        starts, widths = hull_arcs_of_squares(x0, y0, sides, a)
        # a square too small to part its corners' directions has a width
        # within an ulp of 0, on either side, and adds nothing to the union
        keep = widths > 0
        blo, bhi, block_full = _seam_merged(np.column_stack(
            (starts[keep], widths[keep])))
        full |= block_full
        end = filled + blo.size
        if end > lo.size:
            # room for up to `union` more pending arcs, one fold's worth
            size = end + max(union, blo.size)
            lo, hi = _grown(lo, filled, size), _grown(hi, filled, size)
        lo[filled:end] = blo
        hi[filled:end] = bhi
        filled = end
        # the next block is built while this one's names still hold it
        del x0, y0, sides, starts, widths, keep, blo, bhi
        if filled > 2 * union:
            union = filled = _fold(lo[:filled], hi[:filled])
    if filled > union:
        union = _fold(lo[:filled], hi[:filled])
    return _seam_joined(lo[:union], hi[:union], full)


def _grown(buf: np.ndarray, filled: int, size: int) -> np.ndarray:
    """A buffer of `size` entries holding buf's first `filled`; the pages
    past them stay untouched until written."""
    grown = np.empty(size)
    grown[:filled] = buf[:filled]
    return grown


def _fold(lo: np.ndarray, hi: np.ndarray) -> int:
    """Sort and merge lo and hi in place as merge_intervals does; returns
    the number of merged intervals, now at their front."""
    lo.sort()
    hi.sort()
    return _kernels._merge_sorted(lo, hi)


def radial_projection(gen: Generation, a: Point2) -> CircularIntervalSet:
    """Exact direction set of the generation squares seen from a."""
    blocks = ((gen.corner_x[i:i + _ARC_BLOCK], gen.corner_y[i:i + _ARC_BLOCK],
               gen.sides[i:i + _ARC_BLOCK])
              for i in range(0, len(gen), _ARC_BLOCK))
    return CircularIntervalSet(np.column_stack(_arc_union(blocks, a)))


def streamed_visibility(sys: IFSystem, n: int,
                        vantages: Sequence[Point2]) -> list[tuple[float, int]]:
    """Per vantage, `visibility` of the stage-n squares and the number of
    arcs of their radial projection, bit for bit, from squares streamed in
    blocks of `_ARC_BLOCK`: no generation is held.

    The squares streamed for all the vantages are checked first against
    WORK_BUDGET >> 5 (one costs about 0.2 us on a 2-core host, so the cap
    stops a run near 7 s); past the cap's bit length the figure reported
    is s^bit_length, a lower bound of the s^n squares."""
    if n < 0:
        raise ValueError("generation index must be >= 0")
    cap = WORK_BUDGET >> 5
    check_budget(f"visibility of generation {n}",
                 len(vantages) * sys.s ** min(n, cap.bit_length()),
                 "squares", cap)
    found = []
    for a in vantages:
        _, lengths = _arc_union(_generation_blocks(sys, n, _ARC_BLOCK), a)
        # the sum that CircularIntervalSet.measure takes
        found.append((float(np.sum(lengths)) / TWO_PI, lengths.size))
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
    if not (math.isfinite(c) and c > 0):
        raise ValueError("c must be positive and finite")
    th = ell.line.theta
    t = -math.sin(th) * A.x + math.cos(th) * A.y
    return int(np.count_nonzero(np.abs(t - ell.line.offset)
                                <= c * ell.delta))


#: steps a direction besides its windows and row cells: reading one
#: direction's vantage windows off its row costs about 5 us of interpreter
#: work, against about 10 ns a cell (2-core host), and the single-vantage
#: queries hold about 60 bytes a direction
_DIRECTION_STEPS = 500
#: steps a direction for one arc's direction mask (about 30 ns)
_MASK_STEPS = 3


def _check_line_work(A: PointCloud, fam: LineFamily, more: float) -> None:
    """Raise ResourceBudgetError past WORK_BUDGET for one stream over the
    line family that takes, per direction, the cloud points' windows,
    _DIRECTION_STEPS and `more` steps: a count row's span and the vantages'
    windows, or a single-vantage sum's one window and its arc masks."""
    steps = fam.k1_count * (len(A) + _DIRECTION_STEPS + more)
    check_budget("line family", steps, "steps", WORK_BUDGET)


def _row_width(A: PointCloud, fam: LineFamily, c: float) -> int:
    """Offsets spanned by each count row of the cloud (_kernels._row_width)."""
    return _kernels._row_width(A.x, A.y, fam.delta, c, fam.k2_min,
                               fam.k2_max)


def counts_table(A: PointCloud, fam: LineFamily,
                 c: float = DEFAULT_C) -> np.ndarray:
    """Dense table of f_delta over the whole family; cnt[k1, k2 - k2_min]."""
    check_budget("count table", fam.n_lines, "cells", TABLE_BUDGET)
    return _kernels.line_counts_table(
        np.ascontiguousarray(A.x), np.ascontiguousarray(A.y),
        fam.delta, c, fam.k1_count, fam.k2_min, fam.k2_max)


def _points(vantages) -> np.ndarray:
    """(m, 2) array of a sequence of Point2."""
    return np.array([(a.x, a.y) for a in vantages], dtype=float).reshape(-1, 2)


def _window_sums(pts: np.ndarray, A: PointCloud, fam: LineFamily, c: float,
                 reach: float):
    """Yield, per direction k1, the (m,) counts of the lines of row k1 that
    meet the cloud (count > 0) in each vantage's window |t_k1(a) - k2*delta|
    <= reach, read from one prefix sum of the streamed span row; no table
    is kept."""
    width = _row_width(A, fam, c)
    _check_line_work(A, fam, width + len(pts))
    rows = _kernels._count_rows(
        np.ascontiguousarray(A.x), np.ascontiguousarray(A.y), fam.delta, c,
        range(fam.k1_count), fam.k2_min, fam.k2_max)
    blocks = _kernels._window_blocks(
        pts[:, 0], pts[:, 1], fam.delta, reach, range(fam.k1_count),
        fam.k2_min, fam.k2_max, _kernels._block_step(len(pts)))
    windows = itertools.chain.from_iterable(zip(*w) for w in blocks)
    for bases, block in rows:
        prefix = np.zeros((len(block), width + 1), dtype=np.int64)
        np.cumsum(block > 0, axis=1, out=prefix[:, 1:])
        for base, pre, (lo, hi) in zip(bases.tolist(), prefix, windows):
            # a window past an end of the span reads 0 or the row's total
            yield (pre.take(hi - base + 1, mode="clip")
                   - pre.take(lo - base, mode="clip"))


def _direction_sums(a: Point2, A: PointCloud, fam: LineFamily, c: float,
                    reach: float, masks: int) -> np.ndarray:
    """Per direction, the total richness of the lines within reach of a,
    for a caller that then takes `masks` arc masks of the directions."""
    _check_line_work(A, fam, 1 + _MASK_STEPS * masks)
    return _kernels._vantage_sums(
        np.ascontiguousarray(A.x), np.ascontiguousarray(A.y), fam.delta, c,
        a.x, a.y, reach, range(fam.k1_count), fam.k2_min, fam.k2_max)


def vis_delta(vantages: Sequence[Point2], A: PointCloud, fam: LineFamily,
              c: float = DEFAULT_C) -> list[int]:
    """Per vantage, the count of family lines whose 2-delta tube contains it
    and whose c-delta tube meets the cloud."""
    return sum(_window_sums(_points(vantages), A, fam, c,
                            2 * fam.delta)).tolist()


def _richness_stats(A: PointCloud, fam: LineFamily, c: float):
    """f_delta_stats over every direction of the family."""
    _check_line_work(A, fam, _row_width(A, fam, c))
    return _kernels.f_delta_stats(
        np.ascontiguousarray(A.x), np.ascontiguousarray(A.y), fam.delta, c,
        np.ones(fam.k1_count, dtype=bool), fam.k2_min, fam.k2_max)


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
    sums = _direction_sums(a, A, fam, c, 2 * fam.delta, 1)
    return int(sums[_direction_mask(fam, theta_set)].sum())


def cone_count(a: Point2, theta_set: Arc, A: PointCloud, fam: LineFamily,
               c: float = DEFAULT_C) -> int:
    """Exact count of pairs (a', l): a' in the cloud, a' != a, both a and a'
    within c*delta of l, and the direction of l in the arc."""
    reach = c * fam.delta
    sums = _direction_sums(a, A, fam, c, reach, 1)
    if np.any((A.x == a.x) & (A.y == a.y)):
        # each line within reach of the vantage counts it once
        t = -np.sin(fam.thetas) * a.x + np.cos(fam.thetas) * a.y
        lo, hi = _kernels._k2_windows(t, fam.delta, reach, fam.k2_min,
                                      fam.k2_max)
        sums -= hi - lo + 1
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
    sums = _direction_sums(a, A, fam, c, 2 * fam.delta, k)
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
    _check_line_work(A, fam, _row_width(A, fam, c) + n)
    ts = (np.arange(n) + 0.5) * step - half
    nx, ny = -math.sin(ell0.theta), math.cos(ell0.theta)
    dx, dy = math.cos(ell0.theta), math.sin(ell0.theta)
    pts = np.stack([ell0.offset * nx + ts * dx,
                    ell0.offset * ny + ts * dy], axis=1)
    vis = sum(_window_sums(pts, A, fam, c, 2 * fam.delta))
    return [float(np.count_nonzero(vis < lam / fam.delta) * step)
            for lam in lams]

"""Exact primitive geometry: interval unions on the line and the circle,
axis-aligned squares, lines, and angular hulls of squares.

Everything here is immutable and pure; values can be shared freely across
workers.  Interval measures are exact sums of the stored endpoints; a merge
tolerance absorbs floating-point rounding without bridging real gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import MERGE_TOL

TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    """Rejected geometric input (non-finite, inverted, out of range)."""


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True)
class Square:
    """Axis-aligned square given by its lower-left corner and side."""

    corner: Point2
    side: float

    def __post_init__(self):
        if not (self.side > 0 and math.isfinite(self.side)):
            raise GeometryError(f"square side must be positive, got {self.side}")

    def contains(self, p: Point2) -> bool:
        return (self.corner.x <= p.x <= self.corner.x + self.side
                and self.corner.y <= p.y <= self.corner.y + self.side)

    def corners(self) -> np.ndarray:
        x0, y0, a = self.corner.x, self.corner.y, self.side
        return np.array([[x0, y0], [x0 + a, y0], [x0 + a, y0 + a], [x0, y0 + a]])


@dataclass(frozen=True)
class Line:
    """Unoriented line: direction angle theta in [0, pi), signed offset.

    The line is {p : -sin(theta) * p.x + cos(theta) * p.y = offset}; the
    offset is the signed distance from the origin along the unit normal
    (-sin theta, cos theta).
    """

    theta: float
    offset: float

    def __post_init__(self):
        th = self.theta % math.pi
        off = self.offset
        # direction angle wraps mod pi; each wrap flips the normal
        wraps = round((self.theta - th) / math.pi)
        if wraps % 2:
            off = -off
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "offset", off)


def dist_point_line(p: Point2, line: Line) -> float:
    """Euclidean distance; p lies in the rho-neighborhood iff result <= rho."""
    return abs(-math.sin(line.theta) * p.x + math.cos(line.theta) * p.y
               - line.offset)


# ---------------------------------------------------------------------------
# interval sets on the line
# ---------------------------------------------------------------------------

class IntervalSet:
    """Maximal disjoint sorted intervals on R with exact total measure."""

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: np.ndarray | None = None, hi: np.ndarray | None = None):
        if lo is None:
            lo = np.empty(0)
            hi = np.empty(0)
        self._lo = np.asarray(lo, dtype=float)
        self._hi = np.asarray(hi, dtype=float)

    @classmethod
    def from_pairs(cls, pairs) -> "IntervalSet":
        pairs = list(pairs)
        lo = np.array([p[0] for p in pairs], dtype=float)
        hi = np.array([p[1] for p in pairs], dtype=float)
        if np.any(lo == hi):
            raise GeometryError("empty interval")
        return cls.from_arrays(lo, hi)

    @classmethod
    def from_arrays(cls, lo: np.ndarray, hi: np.ndarray) -> "IntervalSet":
        """The union of the intervals [lo_i, hi_i].  Unlike from_pairs it
        takes lo_i == hi_i: a square far below an ulp of its offset
        projects to a zero-length interval."""
        lo, hi = np.asarray(lo, float), np.asarray(hi, float)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise GeometryError("non-finite interval endpoint")
        if np.any(lo > hi):
            raise GeometryError("inverted interval")
        return cls(*_kernels.merge_intervals(lo, hi))

    @property
    def intervals(self) -> list[tuple[float, float]]:
        return list(zip(self._lo.tolist(), self._hi.tolist()))

    def insert(self, lo: float, hi: float) -> "IntervalSet":
        """Union with [lo, hi]; returns a new set."""
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise GeometryError(f"non-finite interval [{lo}, {hi}]")
        if lo >= hi:
            raise GeometryError(f"inverted interval [{lo}, {hi}]")
        return IntervalSet(*_kernels.merge_intervals(
            np.append(self._lo, lo), np.append(self._hi, hi)))

    def measure(self) -> float:
        return float(np.sum(self._hi - self._lo))

    def contains(self, r: float) -> bool:
        i = int(np.searchsorted(self._lo, r, side="right")) - 1
        return i >= 0 and r <= self._hi[i]

    def __len__(self) -> int:
        return self._lo.size

    def __repr__(self) -> str:
        return f"IntervalSet({self.intervals!r})"

    @property
    def lo(self) -> np.ndarray:
        return self._lo

    @property
    def hi(self) -> np.ndarray:
        return self._hi


# ---------------------------------------------------------------------------
# interval sets on the circle
# ---------------------------------------------------------------------------

class CircularIntervalSet:
    """Disjoint arcs on R/2piZ, held as one (k, 2) array of (start, length)
    rows; a set covering the whole circle reports 2pi."""

    __slots__ = ("_arcs",)

    def __init__(self, arcs=()):
        self._arcs = np.asarray(arcs, dtype=float).reshape(-1, 2)

    @classmethod
    def full(cls) -> "CircularIntervalSet":
        return cls([(0.0, TWO_PI)])

    @classmethod
    def from_arcs(cls, arcs) -> "CircularIntervalSet":
        """Union of (start, length) arcs, given as any (k, 2) array-like;
        start anywhere, length in (0, 2pi]."""
        return _arc_union([arcs])

    @property
    def arcs(self) -> tuple[tuple[float, float], ...]:
        return tuple(map(tuple, self._arcs.tolist()))

    def is_full(self) -> bool:
        return len(self._arcs) == 1 and self.measure() >= TWO_PI

    def measure(self) -> float:
        return float(np.sum(self._arcs[:, 1]))

    def insert(self, lo: float, length: float) -> "CircularIntervalSet":
        if not (0 < length <= TWO_PI):
            raise GeometryError(f"arc length {length} outside (0, 2pi]")
        return CircularIntervalSet.from_arcs(
            np.vstack((self._arcs, (lo, length))))

    def contains(self, angle: float) -> bool:
        starts, lengths = self._arcs.T
        return bool(np.any((angle % TWO_PI - starts) % TWO_PI <= lengths))

    def __len__(self) -> int:
        return len(self._arcs)

    def __repr__(self) -> str:
        return f"CircularIntervalSet({self.arcs!r})"


def _arc_union(blocks) -> CircularIntervalSet:
    """The union of the (start, length) arcs that come in blocks, each a
    (k, 2) array-like or a one-shot iterable of pairs: start anywhere,
    length in (0, 2pi].  Each block is checked, split at the 0 = 2pi seam
    and merged in place behind the running union, which takes it in once
    the pending intervals outnumber it: memory stays O(union + block).  It
    is one merge of all the arcs bit for bit, as a merged interval keeps
    the least lo and the greatest hi of its members and fl(hi + MERGE_TOL)
    grows with hi.  The set returned holds the union's columns of the
    buffer, hi turned into lengths, with no copy."""
    buf = np.empty((2, 0))  # lo and hi rows
    union = filled = 0      # the union in [:union], pending ones up to filled
    for arcs in blocks:
        arcs = np.asarray(arcs if hasattr(arcs, "__len__") else list(arcs),
                          dtype=float)
        if arcs.size and (arcs.ndim != 2 or arcs.shape[1] != 2):
            raise GeometryError(f"arcs of shape {arcs.shape}, not (k, 2)")
        start, length = arcs.reshape(-1, 2).T
        bad = length[~((0 < length) & (length <= TWO_PI + MERGE_TOL))]
        if bad.size:
            raise GeometryError(f"arc length {bad[0]} outside (0, 2pi]")
        if not np.isfinite(start).all():
            raise GeometryError("non-finite arc start")
        s = _mod_two_pi(start)
        # a whole-circle arc starts at 0: it is one interval of the union,
        # which then measures at least 2pi - MERGE_TOL, the whole circle
        s[length >= TWO_PI - MERGE_TOL] = 0.0
        e = s + length
        wrap = e > TWO_PI
        mid = filled + s.size
        end = mid + np.count_nonzero(wrap)
        if end > buf.shape[1]:
            # room for up to `union` more pending intervals, a fold's worth;
            # the pages past `filled` stay untouched until written
            grown = np.empty((2, end + max(union, end - filled)))
            grown[:, :filled] = buf[:, :filled]
            buf = grown
        lo, hi = buf
        lo[filled:mid] = s
        lo[mid:end] = 0.0
        np.minimum(e, TWO_PI, out=hi[filled:mid])
        hi[mid:end] = e[wrap] - TWO_PI
        filled += _kernels._merge_sorted(lo[filled:end], hi[filled:end])
        # the next block is built while these names no longer hold this one
        del arcs, start, length, s, e, wrap
        if filled > 2 * union:
            union = filled = _kernels._merge_sorted(lo[:filled], hi[:filled])
    lo, hi = buf[:, :filled]
    if filled > union:
        union = _kernels._merge_sorted(lo, hi)
    joined = (union >= 2 and lo[0] <= MERGE_TOL
              and hi[union - 1] >= TWO_PI - MERGE_TOL)
    arcs = buf[:, :union].T
    arcs[:, 1] -= arcs[:, 0]
    if float(np.sum(arcs[:, 1])) >= TWO_PI - MERGE_TOL:
        return CircularIntervalSet.full()
    if joined:
        # the first arc continues the last one
        arcs[-1, 1] += arcs[0, 1]
        arcs = arcs[1:]
    return CircularIntervalSet(arcs)


def _mod_two_pi(x: np.ndarray) -> np.ndarray:
    """np.remainder(x, 2pi) bit for bit for finite x, without its division:
    fmod is exact, a negative remainder gains 2pi as in np.remainder, and
    adding 0.0 to the others turns a -0.0 into np.remainder's +0.0."""
    r = np.fmod(x, TWO_PI)
    r += TWO_PI * (r < 0)
    return r


# ---------------------------------------------------------------------------
# angular hulls
# ---------------------------------------------------------------------------

def hull_arcs_of_squares(x0: np.ndarray, y0: np.ndarray, side: np.ndarray,
                         a: Point2) -> tuple[np.ndarray, np.ndarray]:
    """Angular hulls of the squares with lower-left corners (x0, y0) and
    per-square sides `side`, seen from a, as (starts, widths); a square
    whose closed set holds a has width 2pi, and the start of such an arc
    is unspecified.

    Exact for convex bodies: outside the square the hull is the minor arc
    counter-clockwise from one corner's direction to another's, and where a
    lies (below, above, left or right of the square) fixes the two, with
    x1 = x0 + side and y1 = y0 + side:

        below:        (x1, y1 if right else y0) to (x0, y1 if left else y0)
        above:        (x0, y0 if left else y1) to (x1, y0 if right else y1)
        level, right: (x1, y1) to (x1, y0)
        level, left:  (x0, y0) to (x0, y1)
    """
    x1 = x0 + side
    y1 = y0 + side
    left, right = a.x < x0, a.x > x1
    below, above = a.y < y0, a.y > y1
    inside = ~(left | right | below | above)
    s = np.arctan2(np.where((right & ~above) | (above & ~left), y1, y0) - a.y,
                   np.where(below | (right & ~above), x1, x0) - a.x)
    e = np.arctan2(np.where((left & below) | ~(below | right), y1, y0) - a.y,
                   np.where(above | (right & ~below), x1, x0) - a.x)
    # _mod_two_pi without its fmod, the identity on atan2's range
    s += TWO_PI * (s < 0)
    e += TWO_PI * (e < 0)
    # the largest gap between corner directions, from e on to s: where
    # s <= e it is (s + 2pi) - e, and s + 0.0 is s; s == e when the square
    # is too small to part its corners' directions, and its width is ~0
    gap = (s + TWO_PI * (s <= e)) - e
    return s, np.where(inside, TWO_PI, TWO_PI - gap)

"""Linear projections of generation squares, Favard-length quadrature, the
projection-counting / Hardy-Littlewood / stacking pipeline, bad-angle sets,
and the visibility-vs-Favard scaling pipeline.

Angle quadrature uses the midpoint rule on a uniform partition of [0, pi);
per-angle work is pure and reduced in fixed index order, so results are
byte-stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .geometry import IntervalSet, Point2
from .ifs import (WORK_BUDGET, Generation, IFSystem, check_budget,
                  generate_generation)
from .visibility import streamed_visibility


class DegenerateError(ArithmeticError, ValueError):
    """A quantity needed for a derived threshold vanished; a ValueError
    too, so that the CLI reports it as bad input (exit 2)."""


@dataclass(frozen=True)
class AngleGrid:
    """Midpoints of a uniform count-cell partition of [0, pi)."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("angle count must be >= 1")

    @property
    def thetas(self) -> np.ndarray:
        return (np.arange(self.count) + 0.5) * (math.pi / self.count)

    @property
    def spacing(self) -> float:
        return math.pi / self.count


@dataclass(frozen=True)
class StackReport:
    n: int
    theta: float
    K: float
    stacked_fraction: float
    support_measure: float


def _projection_bounds(gen: Generation, theta: float):
    return _kernels._projection_bounds(gen.corner_x, gen.corner_y, gen.sides,
                                       theta)


def project_generation(gen: Generation, theta: float) -> IntervalSet:
    """Exact union of the per-square projection intervals at angle theta."""
    if len(gen) == 0:
        raise ValueError("empty generation")
    lo, hi = _projection_bounds(gen, theta)
    return IntervalSet.from_arrays(lo, hi)


def projection_measures(gen: Generation, thetas: np.ndarray) -> np.ndarray:
    """Union measure of the theta-projections for a whole batch of angles."""
    return _kernels.projection_measures(
        gen.corner_x, gen.corner_y, gen.sides,
        np.ascontiguousarray(thetas, dtype=float))


def favard_length(gen: Generation, grid: AngleGrid) -> float:
    """Midpoint-rule value of the direction-averaged projection length of
    one generation's squares; the per-square reference of favard_lengths."""
    return float(np.mean(projection_measures(gen, grid.thetas)))


def favard_lengths(sys: IFSystem, n: int, grid: AngleGrid):
    """Fav(K_0), ..., Fav(K_n) by the midpoint rule, and per depth the mean
    number of merged projection intervals per angle, from one pass that
    carries each angle's merged projection from depth d - 1 to d.

    The angles times the stage-n squares are checked first against
    WORK_BUDGET << 2 (one costs 8-15 ns on a 2-core host, counting every
    depth, so the cap stops a run near 35-65 s: n = 10 at 4096 angles or
    n = 11 at 1024 runs, n = 12 at 4096 does not); past the cap's bit
    length the figure reported is s^bit_length, a lower bound of s^n."""
    if n < 0:
        raise ValueError("generation index must be >= 0")
    cap = WORK_BUDGET << 2
    check_budget(f"Favard lengths to generation {n}",
                 grid.count * sys.s ** min(n, cap.bit_length()),
                 "angle-squares", cap)
    hull = sys.hull
    measures, counts = _kernels._depth_measures(
        np.array([m.lam for m in sys.maps]),
        np.array([m.z[0] for m in sys.maps]),
        np.array([m.z[1] for m in sys.maps]), hull.corner.x, hull.corner.y,
        hull.side, grid.thetas, n)
    return measures.mean(axis=1), counts.mean(axis=1)


def _prefix_sums(v: np.ndarray):
    """[0, v_0, v_0 + v_1, ...] as a float cumsum s and the running total e
    of its rounding errors (Knuth's two-sum), so s + e is nearly exact."""
    s = np.concatenate([[0.0], np.cumsum(v)])
    part = s[1:] - s[:-1]
    err = (s[:-1] - (s[1:] - part)) + (v - part)
    return s, np.concatenate([[0.0], np.cumsum(err)])


def hl_maximal(gen: Generation, theta: float, r):
    """Centered maximal average of the projection-counting function at the
    probe r (a float, or an array of probes answered in one pass).

    Maximizes the window average over a dyadic ladder of radii anchored at
    the hull-projection width scaled to the current generation; a factor-2
    ladder loss relative to the continuum supremum is accepted.
    """
    lo, hi = _projection_bounds(gen, theta)
    # a window's mass is F(right) - F(left), F(x) = sum_i |[lo_i, hi_i] n
    # (-inf, x]|, read off the sorted endpoints and their prefix sums; the
    # coordinates start at 0 so that the prefix sums only grow
    origin = lo.min()
    lo = np.sort(lo - origin)
    hi = np.sort(hi - origin)
    sum_lo, err_lo = _prefix_sums(lo)
    sum_hi, err_hi = _prefix_sums(hi)

    def below(x):
        i = np.searchsorted(lo, x)
        j = np.searchsorted(hi, x)
        return (i - j) * x - (sum_lo[i] - sum_hi[j]) - (err_lo[i] - err_hi[j])

    probes = np.asarray(r, dtype=float)
    order = np.argsort(probes, axis=None)      # sorted keys search faster
    x = probes.ravel()[order] - origin
    best = np.zeros(x.size)
    rho = gen.side * (abs(math.cos(theta)) + abs(math.sin(theta))) / 2
    # uncentered: any window of half-length rho containing r; probing the
    # left-aligned, centered, and right-aligned positions loses at most a
    # constant factor against the true supremum.  Each rung doubles rho, so
    # its outer edges r -+ 2 rho are the next rung's inner ones.
    at_r, left, right = below(x), below(x - rho), below(x + rho)
    for _ in range(math.ceil(math.log2(len(gen))) + 2):
        left2, right2 = below(x - 2 * rho), below(x + 2 * rho)
        mass = np.maximum(np.maximum(at_r - left2, right - left),
                          right2 - at_r)
        np.maximum(best, mass / (2 * rho), out=best)
        left, right = left2, right2
        rho *= 2
    best[order] = best.copy()                # back to the probes' order
    return float(best[0]) if probes.ndim == 0 else best.reshape(probes.shape)


def stacked_census(gen: Generation, theta: float, K: float) -> StackReport:
    """Fraction of stage-n squares whose whole projection sits where the
    maximal function is >= K, probed at 9 equispaced points per square."""
    if not K > 0:
        raise ValueError("stack threshold K must be positive")
    probes = np.linspace(*_projection_bounds(gen, theta), 9, axis=1)
    stacked = np.all(hl_maximal(gen, theta, probes) >= K, axis=1).sum()
    support = project_generation(gen, theta).measure()
    return StackReport(gen.n, theta, K, int(stacked) / len(gen), support)


def sup_projection_count(gen: Generation, theta: float) -> int:
    """Exact sup of the projection-counting step function: the count of the
    closed intervals is largest at some left endpoint."""
    lo, hi = _projection_bounds(gen, theta)
    # a stable sort of two sorted runs merges them, a lo before a tied hi;
    # the j-th lo, at merged position p_j, leaves j + 1 - (p_j - j) open
    order = np.argsort(np.concatenate((np.sort(lo), np.sort(hi))),
                       kind="stable")
    p = np.flatnonzero(order < lo.size)
    return int((np.arange(1, 2 * lo.size, 2) - p).max())


@dataclass(frozen=True)
class BadAngleReport:
    K: float
    measure_estimate: float
    bad_thetas: tuple[float, ...]
    sups: tuple[int, ...]       # sup of the counting function per grid angle


def bad_angle_measure(sys: IFSystem, L: int,
                      grid: AngleGrid) -> BadAngleReport:
    """Angle-measure of {theta : sup of the stage-L counting function at
    theta - pi/2 is at most 1/sqrt(Fav(J_L))}."""
    gen = generate_generation(sys, L)
    fav = float(favard_lengths(sys, L, grid)[0][L])
    if fav <= 0:
        raise DegenerateError("Favard estimate is zero; threshold undefined")
    K = 1.0 / math.sqrt(fav)
    thetas = grid.thetas
    sups = tuple(sup_projection_count(gen, (th - math.pi / 2) % math.pi)
                 for th in thetas)
    bad = tuple(float(th) for th, sup in zip(thetas, sups) if sup <= K)
    return BadAngleReport(K, len(bad) * grid.spacing, bad, sups)


def fav_upper_pipeline(sys: IFSystem, a: Point2, n: int, grid: AngleGrid):
    """Measured visibility of J_n from a, paired with sqrt(Fav(J_L)) at the
    logarithmically shallower depth L = ceil(log_s n)."""
    hull = sys.hull
    dx = max(hull.corner.x - a.x, 0.0, a.x - hull.corner.x - hull.side)
    dy = max(hull.corner.y - a.y, 0.0, a.y - hull.corner.y - hull.side)
    if math.hypot(dx, dy) < 0.1 * hull.side:
        raise ValueError("vantage point too close to the hull")
    vis = streamed_visibility(sys, n, [a])[0][0]
    L = sys.log_depth(n)
    bound = math.sqrt(favard_lengths(sys, L, grid)[0][L])
    return vis, bound

"""Certifiers for discrete set classes (dimension-alpha sets unconcentrated
on lines, unrectifiable one-sets), Riesz energy, box-counting dimension,
and well-distributed measures on the line or circle.

All "for every ball / line / rectangle" conditions are checked over a
deterministic design plus seeded random samples: a certificate is sound
for the sampled family only, and the seed and sample sizes are part of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .geometry import IntervalSet
from .ifs import WORK_BUDGET, Generation, IFSystem, check_budget
from .visibility import PointCloud

N_RANDOM = 10_000
KAPPA_GRID = 0.01
#: rectangle census: centres (half of them cloud points) and orientations
RECT_CENTERS = 200
RECT_ORIENTATIONS = 64
#: cap on the (start, length) intervals of one well-distribution sweep
INTERVAL_BUDGET = 20_000_000
# elements per pass of the line check (strip masses summed, and the window
# points evaluated): 64 KiB temporaries stay under glibc's 128 KiB mmap
# threshold and in cache (2^14 and more ran the dense n=6 line check at half
# speed)
_BLOCK = 2 ** 13
# difference atoms per kernel pass of generation_energy: four-corner n=9
# ran in 3.4 s at 2^15 on a 2-core host, 3.7-4.4 s at 2^13, 2^14 and 2^16
_ENERGY_BLOCK = 2 ** 15


class UndefinedDimensionError(ArithmeticError, ValueError):
    """Box counting degenerated to a single occupied cell at all scales;
    a ValueError too, so that the CLI reports it as bad input (exit 2)."""


@dataclass
class CheckResult:
    passed: bool
    margin: float           # worst count / allowed bound; <= 1 means pass
    witness: dict = field(default_factory=dict)


@dataclass
class SetCertificate:
    alpha: float
    C: float
    delta: float
    checks: dict[str, CheckResult]
    kappa_estimate: float | None = None
    seed: int = 0
    n_random: int = N_RANDOM

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json(self) -> str:
        return json.dumps({
            "alpha": self.alpha,
            "C": self.C,
            "delta": self.delta,
            "passes": {k: v.passed for k, v in self.checks.items()},
            "kappa_estimate": self.kappa_estimate,
            "worst_witnesses": [
                {"check": k, "margin": v.margin, **v.witness}
                for k, v in self.checks.items()],
            "seed": self.seed,
            "n_random": self.n_random,
        }, indent=2)


def _bbox(pts: np.ndarray):
    return pts.min(axis=0), pts.max(axis=0)


def _diameter(pts: np.ndarray) -> float:
    lo, hi = _bbox(pts)
    return float(np.hypot(*(hi - lo))) or 1.0


def _levels(A: PointCloud) -> int:
    """Dyadic scales delta * 2^i of the ball check past its first: enough
    that the last reaches the cloud's diameter."""
    return max(1, math.ceil(math.log2(_diameter(A.points) / A.delta)))


def _ball_check(A: PointCloud, tree, alpha: float, C: float,
                rng: np.random.Generator, n_random: int) -> CheckResult:
    """Worst ball count against C r^alpha m, per dyadic radius, over the
    cloud's points and seeded random centres.  The cKDTree of the points
    counts on _kernels._workers() threads: at four-corner n=6 and 7 (C =
    256) they took 0.11-0.17 and 0.87-0.96 s on two, 0.13-0.22 and
    1.16-1.71 s on one (2-core host)."""
    pts = A.points
    m = len(pts)
    levels = _levels(A)
    radii = A.delta * 2.0 ** np.arange(levels + 1)
    lo, hi = _bbox(pts)
    extra = rng.uniform(lo - A.delta, hi + A.delta,
                        size=(max(1, n_random // (levels + 1)), 2))
    centers = np.concatenate([pts, extra])
    worst = CheckResult(True, 0.0)
    for r in radii:
        # one query a radius: the on-set centres, then the random ones
        every = tree.query_ball_point(centers, r, return_length=True,
                                      workers=_kernels._workers())
        bound = C * r ** alpha * m
        for part, kind in ((slice(m), "on-set"), (slice(m, None), "random")):
            counts = every[part]
            i = int(np.argmax(counts))
            margin = float(counts[i] / bound)
            if margin > worst.margin:
                worst = CheckResult(margin <= 1.0, float(margin), {
                    "kind": "ball", "center": centers[part][i].tolist(),
                    "radius": float(r), "count": int(counts[i]),
                    "design": kind})
    return worst


def _segment_area(t: np.ndarray, radius: float) -> np.ndarray:
    """Area of the part of a radius-ball lying at signed coordinate > t."""
    u = np.clip(t / radius, -1.0, 1.0)
    return radius ** 2 * (np.arccos(u) - u * np.sqrt(1.0 - u ** 2))


def _strip_masses(dist: np.ndarray, radius: float,
                  halfwidth: float) -> np.ndarray:
    """Fraction of each delta-ball inside a strip, given center distances.

    The certified object is the union of delta-balls around the cloud, so
    line concentration is ball mass caught by the 1/C-strip, not a point
    count (a bare count through a finite column would overshoot the strip
    width and misreport thin structured clouds).
    """
    inner = _segment_area(dist - halfwidth, radius)
    outer = _segment_area(dist + halfwidth, radius)
    return (inner - outer) / (math.pi * radius ** 2)


def _strip_windows(ts: np.ndarray, offsets: np.ndarray, radius: float,
                   halfwidth: float):
    """Per offset, the ranges of the sorted projections ts with a non-zero
    strip mass, [lo, hi), and with the whole mass, [clo, chi).

    The mass is 0 where the inner clip argument of _strip_masses is >= 1 and
    whole where it is <= -1.  Both tests are monotone in dist, so testing
    the points just outside [lo, hi) and the outermost of [clo, chi) makes
    the ranges exact: where rounding fails a test, [lo, hi) is widened to
    every point or [clo, chi) emptied.
    """
    m = ts.size

    def clip_arg(j):
        dist = np.abs(ts[np.clip(j, 0, m - 1)] - offsets)
        return (dist - halfwidth) / radius

    reach, core = halfwidth + 2 * radius, halfwidth - 2 * radius
    lo = np.searchsorted(ts, offsets - reach)
    hi = np.searchsorted(ts, offsets + reach, side="right")
    lo[(lo > 0) & ~(clip_arg(lo - 1) >= 1)] = 0
    hi[(hi < m) & ~(clip_arg(hi) >= 1)] = m
    clo = np.searchsorted(ts, offsets - core)
    chi = np.searchsorted(ts, offsets + core, side="right")
    full = (chi > clo) & (clip_arg(clo) <= -1) & (clip_arg(chi - 1) <= -1)
    return lo, clo, np.where(full, chi, clo), hi


def _strip_sums(t: np.ndarray, offsets: np.ndarray, radius: float,
                halfwidth: float, block: np.ndarray) -> np.ndarray:
    """Per offset, the strip mass of all points, summed in a row of the
    zeroed (rows, m) block.  Only the points in the offset's _strip_windows
    range are evaluated and scattered into the row in their original order,
    so it sums the same values in the same places as a dense row would."""
    rows, m = block.shape
    flat = block.reshape(-1)
    order = np.argsort(t)
    ts = t[order]
    lo, clo, chi, hi = _strip_windows(ts, offsets, radius, halfwidth)
    whole = _strip_masses(np.zeros(1), radius, halfwidth)[0]
    ends = np.zeros(offsets.size + 1, dtype=np.int64)
    np.cumsum(hi - lo, out=ends[1:])     # window points of offsets before
    sums = np.empty(offsets.size)
    a = 0
    while a < offsets.size:              # passes of about _BLOCK points
        fit = int(np.searchsorted(ends, ends[a] + _BLOCK, "right")) - 1 - a
        b = min(a + max(rows, fit - fit % rows), offsets.size)
        k = np.repeat(np.arange(a, b), hi[a:b] - lo[a:b])
        j = lo[k] + np.arange(k.size) - (ends[k] - ends[a])
        vals = np.full(j.size, whole)
        edge = (j < clo[k]) | (j >= chi[k])
        vals[edge] = _strip_masses(np.abs(ts[j[edge]] - offsets[k[edge]]),
                                   radius, halfwidth)
        pos = (k - a) % rows * m + order[j]
        for s in range(a, b, rows):
            e = slice(ends[s] - ends[a], ends[min(s + rows, b)] - ends[a])
            flat[pos[e]] = vals[e]
            sums[s:s + rows] = block[:min(rows, b - s)].sum(axis=1)
            flat[pos[e]] = 0.0
        a = b
    return sums


def _line_check(A: PointCloud, C: float, rng: np.random.Generator,
                n_random: int) -> CheckResult:
    """Worst strip mass of the 1/C-strips about axis and diagonal lines
    through every point and seeded random lines, against a tenth of the
    cloud.  It runs on one thread: its directions on the _kernels._pool_map
    threads took 0.20-0.22 s at four-corner n=6 against 0.09-0.16 s serial
    (0.58-0.71 against 0.43-0.57 s at n=7, 2-core host), as _strip_sums
    steps a few offsets at a time (_BLOCK // m rows) and holds the
    interpreter lock between those small calls."""
    pts = A.points
    m = len(pts)
    halfwidth = 1.0 / C
    bound = m / 10.0
    block = np.zeros((max(1, _BLOCK // m), m))   # a row per offset summed
    # deterministic design: axis and diagonal lines through every point
    fixed_thetas = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
    n_theta = max(1, int(math.sqrt(n_random)))
    random_thetas = rng.uniform(0, math.pi, n_theta)
    scale = _diameter(pts)
    best = []                            # (theta, offset, mass) per direction
    for theta in fixed_thetas + random_thetas.tolist():
        t = -math.sin(theta) * pts[:, 0] + math.cos(theta) * pts[:, 1]
        if theta in fixed_thetas:
            offsets = np.unique(t)
        else:
            center = 0.5 * (t.min() + t.max())
            offsets = rng.uniform(center - scale, center + scale,
                                  n_random // n_theta)
        masses = _strip_sums(t, offsets, A.delta, halfwidth, block)
        i = int(np.argmax(masses))
        best.append((theta, offsets[i], masses[i]))
    best = np.array(best)
    margins = best[:, 2] / bound
    k = int(np.argmax(margins))          # first direction on ties
    margin = float(margins[k])
    theta, offset, mass = best[k].tolist()
    witness = {"kind": "line", "theta": theta, "offset": offset, "mass": mass}
    return CheckResult(margin <= 1.0, margin, witness if margin > 0 else {})


def _check_certifier(A: PointCloud, n_random: int) -> None:
    """Raise ResourceBudgetError past WORK_BUDGET steps for the certifier's
    two largest stages: the ball check's pair visits, (levels + 1) * m *
    (m + extra centres), and the rectangle census's RECT_ORIENTATIONS *
    RECT_CENTERS centres, each with m point cells and a (levels + 2)^2
    table.  On a 2-core host a pair visit took 1.1-1.9e-10 s, a point cell
    3.4-3.6e-9 s (four-corner n = 7, 8) and a table cell 1.4-1.5e-8 s (134,
    200 levels), charged 2^-7, 2^-2 and 1 steps of 1.2-1.7e-8 s: four-corner
    n = 8 needs 8.2e8 steps (11.2 s), n = 9 1.2e10; past about 290 levels
    the tables alone pass the cap."""
    m = len(A)
    levels = _levels(A)
    pairs = (levels + 1) * m * (m + max(1, n_random // (levels + 1)))
    cells = RECT_ORIENTATIONS * RECT_CENTERS * (m + 4 * (levels + 2) ** 2)
    check_budget(f"certifier on {m} points", (pairs + 32 * cells) >> 7,
                 "steps", WORK_BUDGET)


def check_discrete_alpha_set(A: PointCloud, alpha: float, C: float,
                             seed: int = 0,
                             n_random: int = N_RANDOM) -> SetCertificate:
    """Certify the delta-separated, cardinality-window, ball-growth, and
    line-unconcentration conditions over a deterministic plus seeded design.
    The work is checked first by `_check_certifier`."""
    if len(A) == 0:
        raise ValueError("empty point cloud")
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"C must be positive and finite, got {C}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    _check_certifier(A, n_random)
    # imported here, past the cap, as only the certifier and apply_diffeo
    # build a tree: importing scipy.spatial took 0.3-0.5 s and 35 MB of
    # peak RSS on a 2-core host, which no other experiment pays
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    m = len(A)
    checks: dict[str, CheckResult] = {}

    # every point pairs with itself once and with each other point twice
    tree = cKDTree(A.points)
    pairs = (int(tree.count_neighbors(tree, A.delta * (1 - 1e-9))) - m) // 2
    checks["separation"] = CheckResult(
        pairs == 0, float(pairs > 0),
        {"kind": "separation", "violating_pairs": pairs})

    lo_card = A.delta ** (-alpha) / C
    hi_card = C * A.delta ** (-alpha)
    card_margin = max(lo_card / m, m / hi_card)
    checks["cardinality"] = CheckResult(
        lo_card <= m <= hi_card, float(card_margin),
        {"kind": "cardinality", "size": m,
         "window": [lo_card, hi_card]})

    checks["ball"] = _ball_check(A, tree, alpha, C, rng, n_random)
    checks["line"] = _line_check(A, C, rng, n_random)
    return SetCertificate(alpha, C, A.delta, checks, seed=seed,
                          n_random=n_random)


def _dyadic_level(d: np.ndarray, delta: float, levels: int) -> np.ndarray:
    """ceil(log2(max(2|d|/delta, 1))) clipped to [0, levels]: the rectangle
    level of a coordinate difference d."""
    with np.errstate(over="ignore"):
        x = np.abs(d) * 2 / delta
    return np.minimum(np.ceil(np.log2(np.maximum(x, 1.0))), levels)


def _level_breakpoints(delta: float, levels: int) -> np.ndarray:
    """b[I] for I < levels: the largest float d >= 0 with
    _dyadic_level(d) <= I.

    Bisected on the bit patterns of d, which order as the floats do for
    d >= 0, against _dyadic_level itself, so log2's rounding near 2^k is
    kept: as the level is non-decreasing in |d|, it is <= I exactly where
    |d| <= b[I].
    """
    want = np.arange(levels)
    lo = np.zeros(levels, dtype=np.int64)                # 0.0, at level 0
    hi = np.full(levels, np.float64(np.inf).view(np.int64))  # at `levels`
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        ok = _dyadic_level(mid.view(np.float64), delta, levels) <= want
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return lo.view(np.float64)


def _slab_ends(s: np.ndarray, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """e[i, q]: how many of the sorted s have fl(s - c[i]) <= t[q].

    Every s <= c + t has and every s >= c + nextafter(t) has not, so keys
    one ulp outside these two bounds bracket the count.  The upper key is
    searched only where an s lies between the two (ties, or an s within
    ulps of a bound), and a bisection on the predicate itself settles those.
    The keys are searched level by level over the sorted centres, so each
    run of them ascends, and the ends are scattered back to centre order.
    """
    order = np.argsort(c, kind="stable")
    cc = c[order]
    tt = t[:, None]
    lo = np.searchsorted(s, np.nextafter(cc + tt, -np.inf), "right")
    hi = lo.copy()
    top = np.nextafter(cc + np.nextafter(tt, np.inf), np.inf)
    q, i = np.nonzero(s[np.minimum(lo, s.size - 1)] < top)
    hi[q, i] = np.searchsorted(s, top[q, i])
    while i.size:
        open_ = lo[q, i] < hi[q, i]
        q, i = q[open_], i[open_]
        a, b = lo[q, i], hi[q, i]
        mid = (a + b) // 2
        above = s[mid] - cc[i] > t[q]
        lo[q, i] = np.where(above, a, mid + 1)
        hi[q, i] = np.where(above, mid, b)
    ends = np.empty_like(lo.T)
    ends[order] = lo.T
    return ends


def _census_counts(pts: np.ndarray, centers: np.ndarray, delta: float,
                   levels: int):
    """Per orientation, the cumulative counts[center, iu, iv] of
    _rectangle_census.

    Along each axis a point is at level <= I where its difference d to
    the centre lies in [-b[I], b[I]] (_level_breakpoints).  d = fl(u - uc)
    is monotone in u, so along the sorted u the levels L..1, 0, 1..L fill
    2L+1 runs whose ends _slab_ends finds per centre; the same holds for v.
    The levels are repeated over the runs, the v levels gathered into u
    order, and one bincount per block of centres counts the (iu, iv) cells;
    the cells at the clipped level L are sliced away.  The orientations run
    on the _kernels._pool_map threads, two a worker in flight, each with
    buffers of its own, and come in order.
    """
    m, k, side = len(pts), len(centers), levels + 1
    b = _level_breakpoints(delta, levels)
    # fl(d) >= -b exactly when fl(d) > nextafter(-b, -inf): outermost first
    t = np.concatenate([np.nextafter(-b[::-1], -np.inf), b])
    run_level = np.abs(np.arange(-levels, levels + 1))
    rows = max(1, _kernels._PASS // m)   # centres per bincount
    # a block's cells lie below rows * side^2, which int16 holds in the
    # usual case (15^2 * 16 at four-corner n=6); narrow cells cut the
    # memory traffic of the repeats, the gather and the add
    cell_type = np.int16 if rows * side * side <= 2 ** 15 else np.intp
    ucell = ((np.arange(rows)[:, None] * side + run_level)
             * side).astype(cell_type)
    vlevel = np.tile(run_level.astype(np.min_scalar_type(levels)), rows)

    def orientation(j):
        phi = j * math.pi / RECT_ORIENTATIONS
        c, s = math.cos(phi), math.sin(phi)
        u = pts[:, 0] * c + pts[:, 1] * s        # along long axis
        v = -pts[:, 0] * s + pts[:, 1] * c
        uc = centers[:, 0] * c + centers[:, 1] * s
        vc = -centers[:, 0] * s + centers[:, 1] * c
        ou, ov = np.argsort(u), np.argsort(v)
        ends = np.zeros((k, t.size + 2), dtype=np.intp)
        ends[:, -1] = m
        ends[:, 1:-1] = _slab_ends(u[ou], uc, t)
        ulen = np.diff(ends, axis=1)
        ends[:, 1:-1] = _slab_ends(v[ov], vc, t)
        vlen = np.diff(ends, axis=1)
        rank = np.empty(m, dtype=np.intp)
        rank[ov] = np.arange(m)
        v_to_u = rank[ou]                # v rank of each u-sorted point
        counts = np.empty((k, side, side), dtype=np.int64)
        for a in range(0, k, rows):
            r = min(rows, k - a)
            iv = np.repeat(vlevel[:r * run_level.size], vlen[a:a + r].ravel())
            cell = np.repeat(ucell[:r].ravel(), ulen[a:a + r].ravel())
            cell += iv.reshape(r, m).take(v_to_u, axis=1).ravel()
            counts[a:a + r] = np.bincount(
                cell, minlength=r * side * side).reshape(r, side, side)
        return counts[:, :levels, :levels].cumsum(axis=1).cumsum(axis=2)

    yield from _kernels._pool_map(
        orientation, ((j,) for j in range(RECT_ORIENTATIONS)))


def _rectangle_census(A: PointCloud, rng: np.random.Generator):
    """Counts |A n R| over dyadic-dimension rotated rectangles.

    Returns (stream, radii): stream yields, per orientation, the int64
    counts[center, i2, i1] where the rectangle at (i1, i2) has short side
    delta*2^i1 and long side delta*2^i2, cumulative over both indices.
    The centres are drawn from rng before it returns.
    """
    pts = A.points
    m = len(pts)
    levels = _levels(A) + 1
    half = RECT_CENTERS // 2
    idx = rng.choice(m, size=min(half, m), replace=False)
    lo, hi = _bbox(pts)
    centers = np.concatenate([
        pts[idx],
        rng.uniform(lo, hi, size=(RECT_CENTERS - len(idx), 2))])
    radii = A.delta * 2.0 ** np.arange(levels)
    return _census_counts(pts, centers, A.delta, levels), radii


def check_unrectifiable_one_set(A: PointCloud, C: float, seed: int = 0,
                                n_random: int = N_RANDOM) -> SetCertificate:
    """Alpha=1 certificate plus the rectangle condition and the largest
    kappa (0.01 grid) at which it holds over the sampled rectangles."""
    cert = check_discrete_alpha_set(A, 1.0, C, seed=seed, n_random=n_random)
    rng = np.random.default_rng(seed + 1)
    stream, radii = _rectangle_census(A, rng)
    r1, r2 = radii, radii[:, None]   # short side on axis i1, long on i2
    log_ratio = np.log(r1 / r2)
    worst_margin, witness, kappa_min = -1.0, {}, np.float64(0.5)
    for j, counts in enumerate(stream):
        frac = counts / (C * len(A))  # need frac <= r1^kappa * r2^(1-kappa)
        # kappa = 0 bound: frac <= r2; the witness is the first worst
        # (orientation, center, i2, i1) in C order
        marg = np.where(r1 <= r2, frac / r2, 0.0)
        ci, i2, i1 = np.unravel_index(int(np.argmax(marg)), marg.shape)
        if marg[ci, i2, i1] > worst_margin:
            worst_margin = float(marg[ci, i2, i1])
            witness = {"kind": "rectangle",
                       "orientation": j * math.pi / RECT_ORIENTATIONS,
                       "center_index": int(ci), "r1": float(radii[i1]),
                       "r2": float(radii[i2]),
                       "count": int(counts[ci, i2, i1])}
        # largest kappa with frac <= r1^k r2^(1-k), a bound decreasing in
        # k; squares do not constrain it. Passing means frac <= r2, so
        # k_r >= 0.  k_r falls as the count rises, and distinct counts
        # differ by far more than log's rounding, so each cell's least k_r
        # is that of its largest count over the centres
        with np.errstate(divide="ignore", invalid="ignore"):
            k_r = np.log(frac.max(axis=0) / r2) / log_ratio
        kappa_min = np.minimum(kappa_min,
                               k_r.min(where=r1 < r2, initial=0.5))
    passed = worst_margin <= 1.0
    kappa = (math.floor(float(kappa_min) / KAPPA_GRID) * KAPPA_GRID
             if passed else 0.0)
    cert.checks["rectangle"] = CheckResult(
        passed, worst_margin, witness if worst_margin > 0 else {})
    cert.kappa_estimate = kappa
    return cert


def riesz_energy(A: PointCloud, s: float) -> float:
    """Off-diagonal weighted energy sum with the kernel floored at the
    cloud's separation scale.

    The pair sum differences coordinates of size ~1, so it loses digits
    on points far closer than that: on a 2-map generation of ratio 0.1 at
    n = 4 it is 1.8e-14 relative off the exact sum at s = 2, where
    generation_energy, built from the difference measure, is 2.2e-16 off.
    Its m(m - 1)/2 pairs, about 10 ns each on a 2-core host, are checked
    against WORK_BUDGET first, so the cap stops a run near 11 s.
    """
    if not s > 0:
        raise ValueError("s must be positive")
    if len(A) == 0:
        raise ValueError("empty point cloud")
    if A.weights is None:
        w = np.full(len(A), 1.0 / len(A))
    else:
        w = A.weights
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must be normalized to total mass 1")
    m = len(A)
    check_budget(f"Riesz energy of {m} points", m * (m - 1) // 2, "pairs",
                 WORK_BUDGET)
    return _kernels.riesz_energy_sum(A.x, A.y, w, s, A.delta)


def difference_measure(system: IFSystem):
    """First-level difference measure of a homothety IFS: the distinct
    translation differences z_a - z_b as complex numbers (sorted), and how
    many ordered pairs (a, b) give each."""
    z = np.array([complex(*m.z) for m in system.maps])
    return np.unique((z[:, None] - z[None, :]).ravel(), return_counts=True)


def _atom_block(atoms, counts, lam, depth, start, stop):
    """Depth-level difference atoms start..stop-1 and their multiplicities.

    The base-len(atoms) digits of an index pick one first-level atom per
    level, first level most significant, giving sum_k lam^(depth-k) atom_k.
    """
    t = np.arange(depth - 1, -1, -1)
    digits = np.arange(start, stop) // atoms.size ** t[:, None] % atoms.size
    return lam ** t @ atoms[digits], counts[digits].prod(axis=0)


def generation_energy(gen: Generation, s: float) -> float:
    """riesz_energy(cloud_from_generation(gen), s), summed over the
    difference measure of the generation instead of over pairs of centres.

    Two stage-n centres differ by d = sum_k lam^(n-k) (z_{a_k} - z_{b_k}),
    so E_n = m^-2 [sum_d mult(d) max(|d|, delta)^-s - m delta^-s] with
    delta = gen.side.  The atoms are streamed as outer prefixes against a
    dense inner block, so memory is bounded at every depth; four-corner
    has 9^n atoms against 16^n / 2 pairs.  Needs equal contraction ratios;
    more than WORK_BUDGET atoms raise ResourceBudgetError before any sum.
    """
    if not s > 0:
        raise ValueError("s must be positive")
    delta = gen.side            # raises for unequal contraction ratios
    lam = gen.sys.maps[0].lam
    atoms, counts = difference_measure(gen.sys)
    a, n = atoms.size, gen.n
    check_budget(f"energy of generation {n}", a ** n, "atoms", WORK_BUDGET)
    j = n                       # inner depth
    while a ** j > _ENERGY_BLOCK:
        j -= 1
    inner, imult = _atom_block(atoms, counts, lam, j, 0, a ** j)
    ix, iy = inner.real.copy(), inner.imag.copy()
    rows = max(1, _ENERGY_BLOCK // inner.size)
    # the combination of zero atoms at every level holds the pairs whose
    # letters have equal translations throughout: w = v, and distinct
    # words with equal centres.  Its d is exactly 0, so it is left out of
    # the sum and added back below without the m diagonal pairs, which
    # avoids cancelling a large m delta^-s against the sum
    zero = int(np.flatnonzero(atoms == 0)[0])
    r0 = sum(zero * a ** t for t in range(n - j))
    c0 = sum(zero * a ** t for t in range(j))
    n_outer = a ** (n - j)
    total = 0.0
    for r in range(0, n_outer, rows):
        outer, omult = _atom_block(atoms, counts, lam, n - j, r,
                                   min(r + rows, n_outer))
        outer *= lam ** j
        kern = np.square(outer.real[:, None] + ix)
        kern += np.square(outer.imag[:, None] + iy)
        np.maximum(kern, delta * delta, out=kern)
        np.power(kern, -0.5 * s, out=kern)
        if r <= r0 < r + len(kern):
            kern[r0 - r, c0] = 0.0
        total += float(omult @ (kern @ imult))
    total += (int(counts[zero]) ** n - len(gen.sys.maps) ** n) * delta ** -s
    return total / len(gen) ** 2


def _covering_count_points(pts: np.ndarray, eps: float) -> int:
    cells = np.floor(pts / eps).astype(np.int64)
    return len(np.unique(cells, axis=0))


def _covering_count_intervals(iv: IntervalSet, scales) -> np.ndarray:
    """Per scale eps, the eps-cells meeting the interior of the union."""
    # cells are half-open [j*eps, (j+1)*eps); count those meeting the
    # interior of the union, each once: an interval's cells start past the
    # last cell of every interval before it.  One row per scale, and the
    # rows in blocks of at most _PASS table entries: one block for the 11
    # scales of n <= 6, whose 4^6 squares make at most 4^6 intervals
    eps = np.asarray(scales, dtype=float)[:, None]
    rows = max(1, _kernels._PASS // max(len(iv), 1))
    counts = np.empty(len(eps), dtype=np.int64)
    for i in range(0, len(eps), rows):
        jmin = np.floor(iv.lo / eps[i:i + rows]).astype(np.int64)
        jmax = (np.ceil(iv.hi / eps[i:i + rows]) - 1).astype(np.int64)
        first = jmin.copy()
        first[:, 1:] = np.maximum(
            jmin[:, 1:], np.maximum.accumulate(jmax, axis=1)[:, :-1] + 1)
        counts[i:i + rows] = np.maximum(jmax - first + 1, 0).sum(axis=1)
    return counts


def box_dimension_estimate(obj, scales) -> float:
    """Least-squares slope of log N(eps) against log(1/eps).

    Scales must be dyadic (powers of two), at least 3 of them, spanning a
    factor of at least 16.
    """
    scales = sorted(float(s) for s in scales)
    if not all(math.isfinite(s) and s > 0 for s in scales):
        raise ValueError(f"scales must be positive and finite, got {scales}")
    if len(scales) < 3:
        raise ValueError("need at least 3 scales")
    if scales[-1] / scales[0] < 16:
        raise ValueError("scales must span a factor of at least 16")
    for s in scales:
        if abs(math.log2(s) - round(math.log2(s))) > 1e-9:
            raise ValueError(f"scale {s} is not a power of two")
    if isinstance(obj, PointCloud):
        ns = [_covering_count_points(obj.points, e) for e in scales]
    elif isinstance(obj, IntervalSet):
        ns = _covering_count_intervals(obj, scales)
    else:
        raise TypeError("expected a PointCloud or an IntervalSet")
    if all(n <= 1 for n in ns):
        raise UndefinedDimensionError(
            "single occupied cell at every scale")
    slope = np.polyfit(np.log(1.0 / np.array(scales)), np.log(ns), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class WellDistributedResult:
    passed: bool
    worst_interval: tuple[float, float]
    worst_mass: float
    worst_bound: float


def check_well_distributed(positions, weights, delta: float, kappa: float,
                           tau: float,
                           circle: bool = False) -> WellDistributedResult:
    """Exhaustively test mass(I) <= |I|^kappa for every interval I with
    endpoints on the delta/2 grid and delta < |I| < delta^tau.

    For measures on the circle, positions are angles and intervals wrap.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    pos = np.asarray(positions, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if not (np.isfinite(pos).all() and np.isfinite(w).all()):
        raise ValueError("positions and weights must be finite")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError("weights must be normalized to total mass 1")
    if not (0 < tau < 1) or not (0 < kappa):
        raise ValueError("need kappa > 0 and tau in (0, 1)")
    max_len = delta ** tau
    g = delta / 2
    if circle:
        period = 2 * math.pi
        pos = pos % period
        order = np.argsort(pos)
        pos_s = np.concatenate([pos[order], pos[order] + period])
        w_s = np.concatenate([w[order], w[order]])
        start_lo, start_hi = 0.0, period
    else:
        order = np.argsort(pos)
        pos_s = pos[order]
        w_s = w[order]
        start_lo = math.floor((pos_s[0] - max_len) / g) * g
        start_hi = pos_s[-1]
    cum = np.concatenate([[0.0], np.cumsum(w_s)])
    starts = np.arange(start_lo, start_hi + g / 2, g)
    n_len = int(math.floor(max_len / g)) - int(math.ceil(delta / g)) + 1
    check_budget("well-distribution sweep", starts.size * max(n_len, 1),
                 "intervals", INTERVAL_BUDGET)
    worst = WellDistributedResult(True, (0.0, 0.0), 0.0, 1.0)
    worst_ratio = 0.0
    length = math.ceil(delta / g) * g
    while length < max_len:
        if length > delta:
            lo = np.searchsorted(pos_s, starts, side="left")
            hi = np.searchsorted(pos_s, starts + length, side="right")
            masses = cum[hi] - cum[lo]
            bound = length ** kappa
            i = int(np.argmax(masses))
            ratio = masses[i] / bound
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst = WellDistributedResult(
                    ratio <= 1.0, (float(starts[i]), float(starts[i] + length)),
                    float(masses[i]), float(bound))
        length += g
    return worst

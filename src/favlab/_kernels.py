"""Numeric inner loops in plain numpy: interval merges, projection unions,
Riesz sums and the per-direction count rows of the delta-line family."""

from __future__ import annotations

import math

import numpy as np

# Absolute merge tolerance: projection endpoints are sums/products of O(n)
# dyadic-rational terms, so 1e-12 absorbs rounding without bridging real
# gaps of size >= 4^-15.
MERGE_TOL = 1e-12


def merge_intervals(lo: np.ndarray, hi: np.ndarray):
    """Merge intervals into a disjoint sorted family; returns (lo, hi) arrays.

    Intervals whose gap is <= MERGE_TOL are treated as touching.  Needs
    lo <= hi for each interval, which holds because every caller builds hi
    as lo plus a non-negative length or rejects lo >= hi.
    """
    lo = np.sort(lo)
    hi = np.sort(hi)
    k = _merge_sorted(lo, hi)
    return lo[:k].copy(), hi[:k].copy()


#: elements per pass of _merge_sorted
_MERGE_BLOCK = 2 ** 16


def _merge_sorted(lo: np.ndarray, hi: np.ndarray) -> int:
    """Merge in place the intervals whose sorted lo and sorted hi values
    the arrays hold: the k merged intervals' lo and hi values are written,
    in order, to the first k entries of lo and hi, and k is returned.
    Passes of _MERGE_BLOCK entries keep the temporaries small."""
    # lo[i] > hi[i-1] + MERGE_TOL means the i intervals opening before lo[i]
    # have all closed (lo <= hi puts the i smallest hi among them), so a
    # merged interval starts at lo[i] and the one before it ends at hi[i-1].
    # A pass over [i, j) writes below index j - 1, where no later pass reads.
    k = min(lo.size, 1)
    for i in range(1, lo.size, _MERGE_BLOCK):
        j = min(i + _MERGE_BLOCK, lo.size)
        opens = np.flatnonzero(lo[i:j] > hi[i - 1:j - 1] + MERGE_TOL)
        hi[k - 1:k - 1 + opens.size] = hi[i - 1:j - 1][opens]
        lo[k:k + opens.size] = lo[i:j][opens]
        k += opens.size
    hi[k - 1:k] = hi[-1:]
    return k


def union_measure_np(lo: np.ndarray, hi: np.ndarray) -> float:
    """Total length of the union of closed intervals [lo_i, hi_i]."""
    seg_lo, seg_hi = merge_intervals(lo, hi)
    return float(np.sum(seg_hi - seg_lo))


def _projection_bounds(x0, y0, side, theta):
    """Endpoints (lo, hi) of the theta-projections of the squares."""
    c = math.cos(theta)
    s = math.sin(theta)
    lo = x0 * c + y0 * s + side * (min(c, 0.0) + min(s, 0.0))
    hi = lo + side * (abs(c) + abs(s))
    return lo, hi


def projection_measures(x0, y0, side, thetas) -> np.ndarray:
    """Union measure of the theta-projections of axis-aligned squares.

    x0, y0: lower-left corners; side: common side length.
    Returns one measure per angle.
    """
    out = np.empty(len(thetas))
    for i, th in enumerate(thetas):
        out[i] = union_measure_np(*_projection_bounds(x0, y0, side, th))
    return out


#: elements of one block of _depth_measures' padded (angles x width) rows;
#: a block of angles is halved before a depth would exceed it.  Four-corner
#: n=0..7 at 4096 angles ran in 0.75-0.85 s at 2^14, 2^15 and 2^16 on a
#: 2-core host, and in 1.1-1.2 s at 2^18
_DEPTH_BLOCK = 2 ** 16


def _depth_measures(lam, zx, zy, corner_x, corner_y, side, thetas, n):
    """Per depth 0..n and per angle, the measure and the merged-interval
    count of the theta-projection of the stage-d squares of the homothety
    IFS x -> lam_i x + (zx_i, zy_i) on the square hull (corner, side).

    Uses pi(K_d) = U_i (lam_i pi(K_{d-1}) + pi(z_i)): each depth shifts and
    scales the previous depth's merged intervals and merges their s copies
    as merge_intervals does.  Rows are padded with copies of their last
    merged interval, which leave the union, and so each row's result, the
    same whatever the block.  Returns two (n + 1, angles) arrays.
    """
    c, s = np.cos(thetas), np.sin(thetas)
    lo = corner_x * c + corner_y * s + side * (np.minimum(c, 0.0)
                                               + np.minimum(s, 0.0))
    hi = lo + side * (np.abs(c) + np.abs(s))
    shift = np.outer(c, zx) + np.outer(s, zy)          # (angles, maps)
    measures = np.empty((n + 1, thetas.size))
    counts = np.empty((n + 1, thetas.size), dtype=np.int64)
    measures[0] = hi - lo
    counts[0] = 1
    lam = lam[None, :, None]
    # (first angle, past-the-last angle, depth, lo, hi): angles a:b merged
    # at `depth`, one padded row each
    work = [(0, thetas.size, 0, lo[:, None], hi[:, None])]
    while work:
        a, b, depth, lo, hi = work.pop()
        if depth == n:
            continue
        rows = b - a
        if rows > 1 and rows * lam.size * lo.shape[1] > _DEPTH_BLOCK:
            h = rows // 2
            work += [(a + h, b, depth, lo[h:], hi[h:]),
                     (a, a + h, depth, lo[:h], hi[:h])]
            continue
        t = shift[a:b, :, None]
        # each map's copy is a sorted run, which the stable sort sees
        lo = (lam * lo[:, None, :] + t).reshape(rows, -1)
        hi = (lam * hi[:, None, :] + t).reshape(rows, -1)
        lo.sort(axis=1, kind="stable")
        hi.sort(axis=1, kind="stable")
        gap = lo[:, 1:] > hi[:, :-1] + MERGE_TOL
        edge = np.ones((rows, 1), dtype=bool)
        seg_lo = lo[np.hstack((edge, gap))]
        seg_hi = hi[np.hstack((gap, edge))]
        m = gap.sum(axis=1) + 1
        first = np.concatenate(([0], np.cumsum(m[:-1])))
        measures[depth + 1, a:b] = np.add.reduceat(seg_hi - seg_lo, first)
        counts[depth + 1, a:b] = m
        take = first[:, None] + np.minimum(np.arange(m.max()), m[:, None] - 1)
        work.append((a, b, depth + 1, seg_lo[take], seg_hi[take]))
    return measures, counts


def riesz_energy_sum(px, py, w, s, floor) -> float:
    """Sum_{i != j} w_i w_j max(|p_i - p_j|, floor)^(-s), as twice i < j."""
    m = px.size
    total = 0.0
    block = 2048
    for a in range(0, m, block):
        b = min(a + block, m)
        dx = px[a:b, None] - px[None, a:]
        dy = py[a:b, None] - py[None, a:]
        d = np.sqrt(dx * dx + dy * dy)
        np.maximum(d, floor, out=d)
        kern = d ** (-s)
        kern[np.tril_indices(b - a)] = 0.0      # j <= i in the diagonal square
        total += float(np.sum((w[a:b, None] * w[None, a:]) * kern))
    return 2.0 * total


def _k2_windows(t, delta, reach, k2min, k2max):
    """Integer k2 ranges [a, b] with |t - k2*delta| <= reach, clipped as
    floats before the int64 cast, which a reach past 2^63 cells overflows."""
    a = np.ceil((t - reach) / delta)
    b = np.floor((t + reach) / delta)
    np.clip(a, k2min, k2max + 1, out=a)
    np.clip(b, k2min - 1, k2max, out=b)
    return a.astype(np.int64), b.astype(np.int64)


#: cells (windows or row entries) per block of directions in the line
#: family's streams
_LINE_BLOCK = 2 ** 14


def _block_step(cells: int) -> int:
    """Directions per block when each direction takes `cells` cells."""
    return max(1, _LINE_BLOCK // max(cells, 1))


def _window_blocks(px, py, delta, reach, k1s, k2min, k2max, step):
    """Yield, per block of `step` directions k1 in k1s, the clipped k2
    windows [a, b] of the points with |t_k1(p) - k2*delta| <= reach
    (_k2_windows) as two (directions, points) arrays; reach may be one
    per point."""
    k1s = np.asarray(k1s)
    for s in range(0, k1s.size, step):
        th = k1s[s:s + step, None] * delta
        # t is not kept while the caller holds the windows
        yield _k2_windows(-np.sin(th) * px + np.cos(th) * py, delta, reach,
                          k2min, k2max)


def _check_c(c_mult):
    """Reject a tube multiplier c that is not positive and finite."""
    if not (math.isfinite(c_mult) and c_mult > 0):
        raise ValueError(f"c must be positive and finite, got {c_mult}")


def _row_width(px, py, delta, c_mult, k2min, k2max) -> int:
    """Width of the count rows: the offsets one direction's point windows
    can span.  Two points of a cloud of radius r (about its bounding-box
    centre) differ in t_k1 by at most 2r, so their windows of reach
    c_mult*delta lie within 2r/delta + 2*c_mult + 1 cells of each other,
    and ceil(2r/delta + 2*c_mult + 2) leaves a cell for rounding.  Clipped
    to the family's width; 0 for no points."""
    _check_c(c_mult)
    if px.size == 0:
        return 0
    cx = (px.min() + px.max()) / 2
    cy = (py.min() + py.max()) / 2
    span = 2 * float(np.hypot(px - cx, py - cy).max()) / delta + 2 * c_mult + 2
    nk2 = k2max - k2min + 1
    return nk2 if span >= nk2 else math.ceil(span)


def _count_rows(px, py, delta, c_mult, k1s, k2min, k2max):
    """Yield, per block of the directions k1 in k1s, (bases, rows): rows[j, i]
    counts the points within c_mult*delta of the line ell_{k1, bases[j] + i}
    of the block's j-th direction, and no point lies that near a family
    line off its row.  Rows have the width _row_width, and each span
    [base, base + width) lies in [k2min, k2max]."""
    width = _row_width(px, py, delta, c_mult, k2min, k2max)
    top = k2max - width + 1
    for a, b in _window_blocks(px, py, delta, c_mult * delta, k1s, k2min,
                               k2max, _block_step(max(px.size, width + 1))):
        # the least window start, empty windows' (b = a - 1) too: every
        # window [a, b + 1) then lies in [base, base + width].  One that the
        # family clips away below is [k2min, k2min - 1], and base = k2min;
        # one clipped away above is [k2max + 1, k2max], and as the others
        # start within 2r/delta of it, past top, base = top.
        bases = a.min(axis=1, initial=top)
        # row j's cells sit at j * (width + 1) + (k2 - base) in one array:
        # +1 where a point's window opens, -1 just past where it closes; an
        # empty window puts both on one cell, where they cancel
        a += (np.arange(len(a)) * (width + 1) - bases)[:, None]
        b += (np.arange(len(b)) * (width + 1) - bases + 1)[:, None]
        cells = len(a) * (width + 1)
        diff = (np.bincount(a.ravel(), minlength=cells)
                - np.bincount(b.ravel(), minlength=cells))
        rows = diff.reshape(len(a), width + 1)[:, :-1].cumsum(axis=1)
        # nothing of the block but its rows is kept while the caller reads
        del a, b, diff
        yield bases, rows


def _vantage_sums(px, py, delta, c_mult, ax, ay, reach, k1s, k2min, k2max):
    """Per direction k1 in k1s, the sum of its count row over the window
    [lo, hi] of the offsets k2 with |t_k1(a) - k2*delta| <= reach of the
    vantage a = (ax, ay).  That is sum_p |[a_p, b_p] & [lo, hi]| over the
    points' windows, so no row is built: the vantage is windowed as one
    more point, in the same blocks."""
    _check_c(c_mult)
    reaches = np.full(px.size + 1, c_mult * delta)
    reaches[-1] = reach
    out = np.empty(len(k1s), dtype=np.int64)
    i = 0
    for a, b in _window_blocks(np.append(px, ax), np.append(py, ay), delta,
                               reaches, k1s, k2min, k2max,
                               _block_step(px.size + 1)):
        # an empty window has b = a - 1, so its overlap is at most 0
        np.maximum(a, a[:, -1:], out=a)
        np.minimum(b, b[:, -1:], out=b)
        b -= a - 1
        np.maximum(b, 0, out=b)
        out[i:i + len(b)] = b[:, :-1].sum(axis=1)
        i += len(b)
    return out


def f_delta_stats(px, py, delta, c_mult, dir_mask, k2min, k2max):
    """Per-line richness sweep over the directions with dir_mask[k1].

    Returns the sum of squared counts and a dyadic histogram of the counts
    (hist[j] = number of lines with 2^(j-1) < f <= 2^j, f >= 1).
    """
    # lines_with[f] = number of lines with count f; a line counts a point
    # at most once, so f <= px.size
    lines_with = np.zeros(px.size + 1, dtype=np.int64)
    for _, rows in _count_rows(px, py, delta, c_mult,
                               np.flatnonzero(dir_mask), k2min, k2max):
        lines_with += np.bincount(rows.ravel(), minlength=px.size + 1)
    f = np.arange(px.size + 1, dtype=np.int64)
    sum_sq = float(np.sum(lines_with * f * f))
    nlevels = max(1, int(np.ceil(np.log2(max(px.size, 2)))) + 2)
    hist = np.zeros(nlevels, dtype=np.int64)
    lev = np.ceil(np.log2(f[1:])).astype(np.int64)
    np.add.at(hist, np.clip(lev, 0, nlevels - 1), lines_with[1:])
    return sum_sq, hist


def line_counts_table(px, py, delta, c_mult, n_dir, k2min, k2max):
    """Dense table cnt[k1, k2-k2min] of point counts near each family line."""
    out = np.zeros((n_dir, k2max - k2min + 1), dtype=np.int32)
    k1 = 0
    for bases, rows in _count_rows(px, py, delta, c_mult, range(n_dir),
                                   k2min, k2max):
        cols = bases[:, None] - k2min + np.arange(rows.shape[1])
        np.put_along_axis(out[k1:k1 + len(rows)], cols, rows, axis=1)
        k1 += len(rows)
    return out

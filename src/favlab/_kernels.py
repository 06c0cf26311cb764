"""Numeric inner loops in plain numpy: interval merges, projection unions,
Riesz sums, and the per-direction count rows and per-vantage candidate
windows of the delta-line family."""

from __future__ import annotations

import collections
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Absolute merge tolerance: projection endpoints are sums/products of O(n)
# dyadic-rational terms, so 1e-12 absorbs rounding without bridging real
# gaps of size >= 4^-15.
MERGE_TOL = 1e-12

#: elements that one vectorized pass holds in one temporary: the merge's
#: entries, a block of _depth_measures' padded (angles x width) rows or of
#: _sup_counts' lo, a block of riesz_energy_sum's pairs, of the rectangle
#: census's centre-point pairs and of the interval box counts' table, and
#: a block of the Jacobian grid of transforms.  Four-corner n=0..7 depth
#: rows at 4096 angles ran in 0.39-0.44 s at 2^16 with two workers on a
#: 2-core host (medians of 7 runs), in 0.43-0.62 s at 2^15, 0.47-0.51 s at
#: 2^17 and 0.57-0.66 s at 2^14 and 2^18; at 2^14 the interpreter lock,
#: held between the many small calls, takes back the second worker's gain
_PASS = 2 ** 16


def merge_intervals(lo: np.ndarray, hi: np.ndarray):
    """Merge intervals into a disjoint sorted family; returns (lo, hi) arrays.

    Intervals whose gap is <= MERGE_TOL are treated as touching.  Needs
    lo <= hi for each interval, which holds because every caller builds hi
    as lo plus a non-negative length or rejects lo >= hi.
    """
    lo, hi = np.array(lo), np.array(hi)
    k = _merge_sorted(lo, hi)
    return lo[:k].copy(), hi[:k].copy()


def _merge_sorted(lo: np.ndarray, hi: np.ndarray) -> int:
    """Sort lo and hi in place, then merge the intervals they hold: the k
    merged intervals' lo and hi values are written, in order, to the first
    k entries of lo and hi, and k is returned.  Passes of _PASS entries
    keep the temporaries small."""
    lo.sort()
    hi.sort()
    # lo[i] > hi[i-1] + MERGE_TOL means the i intervals opening before lo[i]
    # have all closed (lo <= hi puts the i smallest hi among them), so a
    # merged interval starts at lo[i] and the one before it ends at hi[i-1].
    # A pass over [i, j) writes below index j - 1, where no later pass reads.
    k = min(lo.size, 1)
    for i in range(1, lo.size, _PASS):
        j = min(i + _PASS, lo.size)
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
    """Endpoints (lo, hi) of the theta-projections of the squares, for one
    angle or, broadcast, for an array of them."""
    c = np.cos(theta)
    s = np.sin(theta)
    lo = x0 * c + y0 * s + side * (np.minimum(c, 0.0) + np.minimum(s, 0.0))
    hi = lo + side * (np.abs(c) + np.abs(s))
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


#: contiguous chunks of angles per depth worker, so that cheap and
#: expensive angles even out between the workers
_CHUNKS_PER_WORKER = 4


def _workers() -> int:
    """Pool workers: one per core this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call off Linux
        return os.cpu_count() or 1


def _pool_map(fn, args):
    """Yield fn(*a) for each tuple a of args, in order: a lone call on the
    calling thread (a pool's start and stop took 0.3 ms, ten times the sup
    of one angle at 16 squares), more on _workers() threads with at most
    2 * _workers() submitted and not yet yielded, so that at most that many
    results are held.  A call's exception is raised when its result is due."""
    args = list(args)
    if len(args) < 2:
        yield from (fn(*a) for a in args)
        return
    workers = _workers()
    with ThreadPoolExecutor(workers) as pool:
        due = collections.deque()
        for a in args:
            if len(due) == 2 * workers:
                yield due.popleft().result()
            due.append(pool.submit(fn, *a))
        while due:
            yield due.popleft().result()


def _depth_measures(lam, zx, zy, corner_x, corner_y, side, thetas, n):
    """Per depth 0..n and per angle, the measure and the merged-interval
    count of the theta-projection of the stage-d squares of the homothety
    IFS x -> lam_i x + (zx_i, zy_i) on the square hull (corner, side).

    Uses pi(K_d) = U_i (lam_i pi(K_{d-1}) + pi(z_i)): each depth shifts and
    scales the previous depth's merged intervals and merges their s copies
    as merge_intervals does.  Rows are padded with copies of their last
    merged interval, which leave the union, and so each row's result, the
    same whatever the block.  Contiguous chunks of the angles run on
    _workers() threads, each writing only its own columns of the results.
    Returns two (n + 1, angles) arrays.
    """
    lo0, hi0 = _projection_bounds(corner_x, corner_y, side, thetas)
    shift = np.outer(np.cos(thetas), zx) + np.outer(np.sin(thetas), zy)
    measures = np.empty((n + 1, thetas.size))
    counts = np.empty((n + 1, thetas.size), dtype=np.int64)
    measures[0] = hi0 - lo0
    counts[0] = 1
    lam = lam[None, :, None]

    def merge_chunk(a0, b0):
        # (first angle, past-the-last angle, depth, lo, hi): angles a:b
        # merged at `depth` < n, one padded row each
        work = [(a0, b0, 0, lo0[a0:b0, None], hi0[a0:b0, None])]
        while work:
            a, b, depth, lo, hi = work.pop()
            rows, width = lo.shape
            if rows > 1 and rows * lam.size * width > _PASS:
                h = rows // 2
                work += [(a + h, b, depth, lo[h:], hi[h:]),
                         (a, a + h, depth, lo[:h], hi[:h])]
                continue
            t = shift[a:b, :, None]
            # each map's copy is a sorted run, which the stable sort sees;
            # the shift is added in place, with no second temporary
            copies = (rows, lam.size, width)
            lo = np.multiply(lam, lo[:, None, :], out=np.empty(copies))
            lo += t
            hi = np.multiply(lam, hi[:, None, :], out=np.empty(copies))
            hi += t
            lo = lo.reshape(rows, -1)
            hi = hi.reshape(rows, -1)
            lo.sort(axis=1, kind="stable")
            hi.sort(axis=1, kind="stable")
            # a merged interval opens where lo passes the hi before it by
            # more than MERGE_TOL, and at a row's first entry; it closes
            # just before the next opens, and at a row's last entry
            tol = hi[:, :-1] + MERGE_TOL
            opens = np.empty(lo.shape, dtype=bool)
            opens[:, 0] = True
            np.greater(lo[:, 1:], tol, out=opens[:, 1:])
            del tol
            closes = np.empty_like(opens)
            closes[:, :-1] = opens[:, 1:]
            closes[:, -1] = True
            seg_lo = lo[opens]
            seg_hi = hi[closes]
            m = np.count_nonzero(opens, axis=1)
            # the copies go before the re-pad, which holds the next rows
            del lo, hi, opens, closes
            first = np.concatenate(([0], np.cumsum(m[:-1])))
            measures[depth + 1, a:b] = np.add.reduceat(seg_hi - seg_lo, first)
            counts[depth + 1, a:b] = m
            if depth + 1 < n:
                take = (first[:, None]
                        + np.minimum(np.arange(m.max()), m[:, None] - 1))
                work.append((a, b, depth + 1, seg_lo[take], seg_hi[take]))

    if n:
        k = min(thetas.size, _workers() * _CHUNKS_PER_WORKER)
        cuts = [thetas.size * i // k for i in range(k + 1)]
        for _ in _pool_map(merge_chunk, zip(cuts[:-1], cuts[1:])):
            pass
    return measures, counts


def _sup_counts(x0, y0, side, thetas) -> np.ndarray:
    """Per angle, the sup of the count of the closed theta-projections of
    the squares (x0, y0, side), which is reached at some lo.

    Blocks of angles, each at most _PASS lo and as many hi, run through
    _pool_map.  A block's buffer row holds one angle's lo, sorted, then its
    hi, sorted; a stable argsort of the row merges the two runs, a lo
    before a tied hi, and the j-th lo, at merged position p_j, leaves
    j + 1 - (p_j - j) intervals open.  Each block writes only its own
    angles' entries of the int64 result."""
    m = x0.size
    rows = max(1, _PASS // m)
    sups = np.empty(thetas.size, dtype=np.int64)

    def block(a, b):
        buf = np.concatenate(_projection_bounds(x0, y0, side,
                                                thetas[a:b, None]), axis=1)
        buf[:, :m].sort(axis=1)
        buf[:, m:].sort(axis=1)
        # row r's lo sit at the flat positions r * 2m + p_j
        p = np.flatnonzero(np.argsort(buf, axis=1, kind="stable") < m)
        p = p.reshape(b - a, m) - np.arange(0, buf.size, 2 * m)[:, None]
        sups[a:b] = (np.arange(1, 2 * m, 2) - p).max(axis=1)

    for _ in _pool_map(block, ((a, min(a + rows, thetas.size))
                               for a in range(0, thetas.size, rows))):
        pass
    return sups


def riesz_energy_sum(px, py, w, s, floor) -> float:
    """Sum_{i != j} w_i w_j max(|p_i - p_j|, floor)^(-s), as twice i < j."""
    m = px.size
    total = 0.0
    rows = max(1, _PASS // m)
    for a in range(0, m, rows):
        b = min(a + rows, m)
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


def _direction_ranges(px, py, ax, ay, delta, rho, n_dir):
    """Per point p, the family directions k*delta (0 <= k < n_dir) within
    asin(min(1, rho/|p - a|)) of the direction phi_p of p seen from the
    vantage a = (ax, ay), mod pi: the directions theta with |t_theta(p) -
    t_theta(a)| = |p - a| |sin(phi_p - theta)| <= rho.  Returns (starts,
    counts) of 3m index ranges: the m ranges about phi_p, then the m parts
    past pi, which wrap to the directions from 0 up, and the m parts below
    0, which wrap to those up to pi, each cut to leave the first range's
    directions to it.  A point within rho of a gets every direction once."""
    dx, dy = px - ax, py - ay
    r = np.hypot(dx, dy)
    phi = np.remainder(np.arctan2(dy, dx), math.pi)
    near = r <= rho
    half = np.arcsin(rho / np.where(near, 1.0, r), where=~near,
                     out=np.full(r.size, math.pi / 2))
    top = n_dir - 1
    lo = np.where(near, 0, np.clip(np.ceil((phi - half) / delta), 0, top + 1))
    hi = np.where(near, top,
                  np.clip(np.floor((phi + half) / delta), -1, top))
    # theta in [phi - half, phi + half] - pi, and + pi
    below = np.minimum(np.floor((phi + half - math.pi) / delta), lo - 1)
    above = np.maximum(np.ceil((phi - half + math.pi) / delta), hi + 1)
    starts = np.concatenate((lo, np.zeros(r.size), above))
    ends = np.concatenate((hi, below, np.full(r.size, top)))
    return (starts.astype(np.int64),
            np.maximum(ends - starts + 1, 0).astype(np.int64))


def _candidate_windows(px, py, ns, cs, delta, c_mult, lo, hi, starts, counts,
                       k2min, k2max, step):
    """Yield, per block of about `step` candidates of the ranges (starts,
    counts) of _direction_ranges, (k, a, b): each candidate's direction k
    and its point's k2 window of reach c_mult*delta (_k2_windows, with t =
    ns[k]*px + cs[k]*py) cut to the vantage's window [lo[k], hi[k]]; b < a
    where they miss.  A block holds whole ranges."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    cuts = np.unique(np.searchsorted(ends, np.arange(step, total, step),
                                     "right"))
    for r0, r1 in zip(np.r_[0, cuts], np.r_[cuts, counts.size]):
        n = counts[r0:r1]
        size = int(n.sum())
        if size == 0:
            continue
        k = np.arange(size) + np.repeat(starts[r0:r1] - (np.cumsum(n) - n), n)
        j = np.repeat(np.arange(r0, r1) % px.size, n)
        a, b = _k2_windows(ns[k] * px[j] + cs[k] * py[j], delta,
                           c_mult * delta, k2min, k2max)
        np.maximum(a, lo[k], out=a)
        np.minimum(b, hi[k], out=b)
        yield k, a, b


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

"""Regression values for the numpy kernels and the identities that tie the
count table to the richness statistics.

The frozen values below were computed by the kernels as they stood before
the count-row sweep was shared between the table and the statistics; the
integer outputs must match bit for bit.
"""

import hashlib
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from favlab import _kernels


def uniform_cloud(seed, m):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)


def family_shape(delta, d):
    """(direction count, k2 max) of the maximal delta-family meeting B(0, d)."""
    return int(np.floor(np.pi / delta)) + 1, int(np.floor(d / delta))


class TestFrozenValues:
    def test_line_counts_table(self):
        px, py = uniform_cloud(123, 400)
        n_dir, k2max = family_shape(0.02, 2.0)
        table = _kernels.line_counts_table(px, py, 0.02, 4.0, n_dir,
                                           -k2max, k2max)
        assert table.dtype == np.int32
        assert table.shape == (158, 201)
        assert int(table.sum()) == 505600
        assert hashlib.sha256(table.tobytes()).hexdigest() == (
            "2332cc6de1df1fcb102a0058dd7a6033c9586e693273222e56a5f32ba787ea21")

    def test_f_delta_stats_full_mask(self):
        px, py = uniform_cloud(7, 350)
        n_dir, k2max = family_shape(0.03, 1.5)
        mask = np.ones(n_dir, dtype=bool)
        sum_sq, hist = _kernels.f_delta_stats(px, py, 0.03, 4.0, mask,
                                              -k2max, k2max)
        assert sum_sq == 11951216.0
        assert hist.tolist() == [370, 132, 195, 380, 820, 1952, 5172, 63,
                                 0, 0, 0]

    def test_f_delta_stats_random_mask(self):
        px, py = uniform_cloud(7, 350)
        n_dir, k2max = family_shape(0.03, 1.5)
        mask = np.random.default_rng(8).random(n_dir) < 0.5
        assert int(mask.sum()) == 66
        sum_sq, hist = _kernels.f_delta_stats(px, py, 0.03, 4.0, mask,
                                              -k2max, k2max)
        assert sum_sq == 7515960.0
        assert hist.tolist() == [250, 80, 121, 236, 522, 1234, 3238, 46,
                                 0, 0, 0]

    def test_projection_measures(self):
        rng = np.random.default_rng(11)
        x0 = rng.uniform(-1, 1, 300)
        y0 = rng.uniform(-1, 1, 300)
        thetas = rng.uniform(0, np.pi, 8)
        got = _kernels.projection_measures(x0, y0, 0.05, thetas)
        frozen = [2.191177235026902, 2.476998270344671, 2.3200168345975225,
                  2.640927672720498, 2.663098047736288, 2.603944847289472,
                  2.3066572411818873, 2.6589291838517672]
        np.testing.assert_allclose(got, frozen, rtol=1e-14, atol=0)

    def test_riesz_energy_sum(self):
        rng = np.random.default_rng(12)
        px = rng.uniform(0, 1, 500)
        py = rng.uniform(0, 1, 500)
        w = rng.uniform(0, 1, 500)
        w /= w.sum()
        got = _kernels.riesz_energy_sum(px, py, w, 0.8, 1e-4)
        assert got == pytest.approx(2.161835931925077, rel=1e-14)


def test_riesz_half_sum_matches_full_sum():
    # 2100 points take 68 passes of 31 rows; coincident points hit the floor
    rng = np.random.default_rng(3)
    px = rng.uniform(0, 1, 2100)
    py = rng.uniform(0, 1, 2100)
    px[7], py[7] = px[2090], py[2090]
    w = rng.uniform(0, 1, 2100)
    w /= w.sum()
    d = np.maximum(np.hypot(px[:, None] - px, py[:, None] - py), 1e-3)
    kern = d ** -1.3
    np.fill_diagonal(kern, 0.0)
    want = float(np.sum(w[:, None] * w * kern))
    assert _kernels.riesz_energy_sum(px, py, w, 1.3, 1e-3) == pytest.approx(
        want, rel=1e-12)


def argsort_merge(lo, hi):
    """The merge as it stood before it sorted the two endpoint arrays
    separately: one argsort, gathers by that order and a running maximum."""
    if lo.size == 0:
        return lo.copy(), hi.copy()
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    hi = hi[order]
    run = np.maximum.accumulate(hi)
    starts = np.empty(lo.size, dtype=bool)
    starts[0] = True
    starts[1:] = lo[1:] > run[:-1] + _kernels.MERGE_TOL
    idx = np.flatnonzero(starts)
    seg_lo = lo[idx]
    seg_hi = np.empty(idx.size)
    seg_hi[:-1] = run[idx[1:] - 1]
    seg_hi[-1] = run[-1]
    return seg_lo, seg_hi


#: how an interval is drawn relative to an earlier one
_INTERVAL_KINDS = ("fresh", "same-left", "nested", "point", "touching",
                   "gap-tol", "gap-tol-ulp")


@st.composite
def interval_families(draw):
    """A shuffled family of closed intervals (lo <= hi), each drawn fresh or
    against an earlier one: same left end, nested, degenerate, touching, or
    a gap of exactly MERGE_TOL or one ulp above it."""
    coord = st.floats(-4.0, 4.0)
    length = st.floats(0.0, 2.0)
    ivs = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(_INTERVAL_KINDS)) if ivs else "fresh"
        plo, phi = draw(st.sampled_from(ivs)) if ivs else (0.0, 0.0)
        if kind == "fresh":
            lo = draw(coord)
            ivs.append((lo, lo + draw(length)))
        elif kind == "same-left":
            ivs.append((plo, plo + draw(length)))
        elif kind == "nested":
            lo = draw(st.floats(plo, phi))
            ivs.append((lo, draw(st.floats(lo, phi))))
        elif kind == "point":
            lo = draw(st.sampled_from([plo, phi])) if draw(
                st.booleans()) else draw(coord)
            ivs.append((lo, lo))
        else:
            lo = {"touching": phi, "gap-tol": phi + _kernels.MERGE_TOL,
                  "gap-tol-ulp": np.nextafter(phi + _kernels.MERGE_TOL,
                                              np.inf)}[kind]
            ivs.append((lo, lo + draw(length)))
    ivs = draw(st.permutations(ivs))
    return (np.array([iv[0] for iv in ivs], dtype=float),
            np.array([iv[1] for iv in ivs], dtype=float))


@settings(max_examples=500, deadline=None)
@given(family=interval_families())
def test_merge_matches_argsort_merge(family):
    lo, hi = family
    got_lo, got_hi = _kernels.merge_intervals(lo, hi)
    want_lo, want_hi = argsort_merge(lo, hi)
    assert np.array_equal(got_lo, want_lo)
    assert np.array_equal(got_hi, want_hi)


@settings(max_examples=300, deadline=None)
@given(family=interval_families(), block=st.sampled_from([1, 2, 3, 5]))
def test_merge_passes_match_argsort_merge(family, block):
    """Passes of a few entries each, written in place behind the pass,
    merge as one pass does."""
    lo, hi = family
    want_lo, want_hi = argsort_merge(lo, hi)
    with mock.patch.object(_kernels, "_PASS", block):
        got_lo, got_hi = _kernels.merge_intervals(lo, hi)
    assert np.array_equal(got_lo, want_lo)
    assert np.array_equal(got_hi, want_hi)


class TestIntervals:
    def test_union_measure(self):
        lo = np.array([0.0, 0.5, 3.0])
        hi = np.array([1.0, 2.0, 4.0])
        assert _kernels.union_measure_np(lo, hi) == pytest.approx(3.0)

    def test_merge_intervals(self):
        lo = np.array([3.0, 0.0, 0.5, 2.0 + 1e-13])
        hi = np.array([4.0, 1.0, 2.0, 2.5])
        mlo, mhi = _kernels.merge_intervals(lo, hi)
        assert mlo.tolist() == [0.0, 3.0]
        assert mhi.tolist() == [2.5, 4.0]

    def test_empty(self):
        mlo, mhi = _kernels.merge_intervals(np.empty(0), np.empty(0))
        assert mlo.size == mhi.size == 0
        assert _kernels.union_measure_np(np.empty(0), np.empty(0)) == 0.0

    def test_single_square_projection(self):
        # the projection of a unit square at angle th has length |cos|+|sin|
        thetas = np.array([0.0, 0.5, 1.3, 2.9])
        got = _kernels.projection_measures(np.zeros(1), np.zeros(1), 1.0,
                                           thetas)
        np.testing.assert_allclose(
            got, np.abs(np.cos(thetas)) + np.abs(np.sin(thetas)), atol=1e-15)


def brute_counts(px, py, delta, c_mult, n_dir, k2min, k2max):
    """Independent oracle: count points near every line directly."""
    k2 = np.arange(k2min, k2max + 1) * delta
    out = np.empty((n_dir, k2.size), dtype=np.int64)
    for k1 in range(n_dir):
        th = k1 * delta
        t = -np.sin(th) * px + np.cos(th) * py
        out[k1] = np.count_nonzero(
            np.abs(t[None, :] - k2[:, None]) <= c_mult * delta, axis=1)
    return out


def test_table_matches_brute_force():
    px, py = uniform_cloud(5, 120)
    delta = 0.07
    n_dir, k2max = family_shape(delta, 1.5)
    table = _kernels.line_counts_table(px, py, delta, 2.0, n_dir,
                                       -k2max, k2max)
    assert np.array_equal(
        table, brute_counts(px, py, delta, 2.0, n_dir, -k2max, k2max))


def per_direction_rows(px, py, delta, c_mult, k1s, k2min, k2max):
    """The count rows with each direction's point windows computed on its
    own, as before the windows came in blocks of directions."""
    nk2 = k2max - k2min + 1
    for k1 in k1s:
        th = k1 * delta
        t = -np.sin(th) * px + np.cos(th) * py
        a, b = _kernels._k2_windows(t, delta, c_mult * delta, k2min, k2max)
        ok = a <= b
        diff = (np.bincount(a[ok] - k2min, minlength=nk2 + 1)
                - np.bincount(b[ok] - k2min + 1, minlength=nk2 + 1))
        yield np.cumsum(diff[:-1])


def embedded_rows(px, py, delta, c_mult, k1s, k2min, k2max):
    """The span rows of _count_rows' blocks, each written into a row of the
    family width at its base; the spans all have the width _row_width and
    stay inside the family."""
    width = _kernels._row_width(px, py, delta, c_mult, k2min, k2max)
    for bases, rows in _kernels._count_rows(px, py, delta, c_mult, k1s,
                                            k2min, k2max):
        assert rows.shape == (len(bases), width)
        for base, row in zip(bases.tolist(), rows):
            assert k2min <= base and base + width <= k2max + 1
            full = np.zeros(k2max - k2min + 1, dtype=np.int64)
            full[base - k2min:base - k2min + width] = row
            yield full


def assert_rows_match(px, py, delta, c_mult, k1s, k2max, block):
    """Span rows in blocks of about `block` cells against the rows built
    one direction at a time."""
    with mock.patch.object(_kernels, "_LINE_BLOCK", block):
        got = list(embedded_rows(px, py, delta, c_mult, k1s, -k2max, k2max))
    want = list(per_direction_rows(px, py, delta, c_mult, k1s, -k2max,
                                   k2max))
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 80), seed=st.integers(0, 2 ** 32 - 1),
       delta=st.floats(0.01, 0.4), c_mult=st.floats(0.5, 6.0),
       d=st.floats(0.5, 2.0), block=st.sampled_from([1, 500, 2 ** 14]),
       data=st.data())
def test_blocked_rows_match_per_direction_rows(m, seed, delta, c_mult, d,
                                                block, data):
    """Span rows from direction blocks (one direction per block at the
    least block size), embedded in the family width, equal the full rows
    built one direction at a time, exactly; half the points sit on a window
    edge
    |t_k1 - k2*delta| = c_mult*delta of some line, where a rounding change
    would move them."""
    rng = np.random.default_rng(seed)
    n_dir, k2max = family_shape(delta, max(d, delta))
    th = rng.integers(0, n_dir, m) * delta
    r = (rng.integers(-k2max, k2max + 1, m)
         + c_mult * rng.choice([-1.0, 1.0], m)) * delta
    s = rng.uniform(-d, d, m)
    edge = rng.random(m) < 0.5
    px = np.where(edge, -r * np.sin(th) + s * np.cos(th),
                  rng.uniform(-d, d, m))
    py = np.where(edge, r * np.cos(th) + s * np.sin(th),
                  rng.uniform(-d, d, m))
    k1s = np.flatnonzero(np.array(data.draw(st.lists(
        st.booleans(), min_size=n_dir, max_size=n_dir)), dtype=bool))
    for ks in (k1s, range(n_dir)):
        assert_rows_match(px, py, delta, c_mult, ks, k2max, block)


@settings(max_examples=80, deadline=None)
@example(delta=0.1, c_mult=1.0, d=2.0, pts=[(2.3, 0.0), (1.9, 0.0)],
         copies=1, block=1)
@example(delta=0.1, c_mult=1.0, d=2.0, pts=[(-2.3, 0.5), (-1.9, 0.5)],
         copies=0, block=1)
@given(delta=st.floats(0.02, 0.4), c_mult=st.floats(0.3, 6.0),
       d=st.floats(0.1, 2.0),
       pts=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
                    max_size=12),
       copies=st.integers(0, 3), block=st.sampled_from([1, 2 ** 14]))
def test_span_rows_match_full_rows(delta, c_mult, d, pts, copies, block):
    """Empty clouds, points far past +-d (whose windows the family clips
    away, or a cloud wider than the family, whose span is the family
    width) and coincident points give the full rows too.  In the examples
    a point's window is clipped away below (direction pi/2) or above the
    family next to a point whose window it keeps."""
    pts = pts + pts[:copies]
    px = np.array([p[0] for p in pts], dtype=float)
    py = np.array([p[1] for p in pts], dtype=float)
    n_dir, k2max = family_shape(delta, max(d, delta))
    assert_rows_match(px, py, delta, c_mult, range(n_dir), k2max, block)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 60), seed=st.integers(0, 2 ** 32 - 1),
       delta=st.floats(0.05, 0.4), c_mult=st.floats(0.5, 6.0),
       d=st.floats(0.5, 2.0), data=st.data())
def test_stats_consistent_with_table(m, seed, delta, c_mult, d, data):
    rng = np.random.default_rng(seed)
    px = rng.uniform(-0.5, 0.5, m)
    py = rng.uniform(-0.5, 0.5, m)
    n_dir, k2max = family_shape(delta, max(d, delta))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n_dir,
                                       max_size=n_dir)), dtype=bool)
    table = _kernels.line_counts_table(px, py, delta, c_mult, n_dir,
                                       -k2max, k2max)
    sum_sq, hist = _kernels.f_delta_stats(px, py, delta, c_mult, mask,
                                          -k2max, k2max)
    rows = table[mask].astype(np.int64)
    assert sum_sq == float(np.sum(rows.astype(np.float64) ** 2))
    pos = rows[rows > 0]
    assert int(hist.sum()) == pos.size
    # hist[j] counts lines with 2^(j-1) < f <= 2^j
    for j, count in enumerate(hist):
        lo = 2.0 ** (j - 1) if j > 0 else 0.0
        assert count == np.count_nonzero((pos > lo) & (pos <= 2.0 ** j))


# ---------------------------------------------------------------------------
# the ordered pool of the vectorized kernels
# ---------------------------------------------------------------------------

def test_pool_map_runs_a_lone_call_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(_kernels, "ThreadPoolExecutor", mock.Mock(
        side_effect=AssertionError("pool started")))
    got = list(_kernels._pool_map(threading.get_ident, [()]))
    assert got == [threading.get_ident()]


def test_pool_map_yields_in_call_order(monkeypatch):
    """Later calls finish first; their results still come in call order."""
    monkeypatch.setattr(_kernels, "_workers", lambda: 3)

    def late(i):
        time.sleep(0.002 * (8 - i))
        return i

    assert list(_kernels._pool_map(late, ((i,) for i in range(8)))) == list(
        range(8))


def test_pool_map_raises_a_call_error_when_its_result_is_due(monkeypatch):
    monkeypatch.setattr(_kernels, "_workers", lambda: 2)

    def call(i):
        if i == 2:
            raise KeyError(i)
        return i

    got = []
    with pytest.raises(KeyError):
        for result in _kernels._pool_map(call, ((i,) for i in range(6))):
            got.append(result)
    assert got == [0, 1]


def test_pool_map_holds_at_most_two_calls_a_worker(monkeypatch):
    """A consumer that pauses after each result sees at most 2 * workers
    calls submitted and not yet yielded: in the pause every submitted call
    has run, so the calls run count those submitted."""
    monkeypatch.setattr(_kernels, "_workers", lambda: 2)
    ran = []

    def call(i):
        ran.append(i)
        return i

    ahead = []
    for got, _ in enumerate(_kernels._pool_map(call,
                                               ((i,) for i in range(12))), 1):
        time.sleep(0.05)            # the workers run ahead, if unbounded
        ahead.append(len(ran) - got)
    assert 1 <= max(ahead) <= 4
    assert sorted(ran) == list(range(12))

"""Output checks: frozen values and independent recomputations.

Nothing here calls favlab.  The four-corner generation, the arc unions,
the line-family incidences and the certificate witnesses are recomputed
from their definitions with plain numpy, so a check shares no code with
the program it checks.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9
#: absolute slack for frozen floats that are exactly zero
ZERO_TOL = 1e-12


def close(got, want, rel=REL_TOL) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=ZERO_TOL)


def compare_values(got, want, where: str) -> list[str]:
    """Integers and booleans must match exactly, floats within REL_TOL,
    lists and dicts element by element."""
    if isinstance(want, list):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return [f"{where}: expected {len(want)} items, got {_short(got)}"]
        errs: list[str] = []
        for i, (g, w) in enumerate(zip(got, want)):
            errs += compare_values(g, w, f"{where}[{i}]")
            if len(errs) > 5:
                break
        return errs
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {_short(got)} != {sorted(want)}"]
        errs = []
        for k in sorted(want):
            errs += compare_values(got[k], want[k], f"{where}.{k}")
        return errs
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return [] if close(float(got), want) else [
            f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


def _short(x) -> str:
    text = repr(x)
    return text if len(text) < 80 else text[:77] + "..."


# ---------------------------------------------------------------------------
# the unit four-corner generation, from its digit expansion
# ---------------------------------------------------------------------------

def four_corner(n: int):
    """Lower-left corners (x0, y0) and side of the 4^n stage-n squares of
    the four-corner set in [0, 1]^2: digits 0 or 3 in base 4."""
    offs = np.zeros(1)
    for j in range(1, n + 1):
        offs = (offs[:, None] + np.array([0.0, 3.0 * 4.0 ** -j])).ravel()
    x0 = np.repeat(offs, offs.size)
    y0 = np.tile(offs, offs.size)
    return x0, y0, 4.0 ** -n


def four_corner_centers(n: int):
    x0, y0, side = four_corner(n)
    return x0 + side / 2, y0 + side / 2, side


def union_length(lo: np.ndarray, hi: np.ndarray) -> float:
    """Length of a union of closed intervals, by a sorted sweep."""
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    new = np.empty(lo.size, dtype=bool)
    new[0] = True
    new[1:] = lo[1:] > reach[:-1]
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:] - 1, lo.size - 1)
    return float(np.sum(reach[ends] - lo[starts]))


# ---------------------------------------------------------------------------
# radial projections seen from a vantage left of the unit square
# ---------------------------------------------------------------------------

def square_visibility(n: int, vx: float, vy: float) -> float:
    """Normalised angle covered by the stage-n squares seen from (vx, vy),
    with vx < 0: every direction then lies in (-pi/2, pi/2), so no arc
    wraps and each square spans its extreme corner directions."""
    x0, y0, side = four_corner(n)
    ang = np.stack([np.arctan2(y0 + dy - vy, x0 + dx - vx)
                    for dx in (0.0, side) for dy in (0.0, side)])
    return union_length(ang.min(axis=0), ang.max(axis=0)) / (2 * math.pi)


def ball_visibility(n: int, radius: float, vx: float, vy: float) -> float:
    """Normalised angle covered by radius-balls around the stage-n centres."""
    px, py, _ = four_corner_centers(n)
    mid = np.arctan2(py - vy, px - vx)
    half = np.arcsin(radius / np.hypot(px - vx, py - vy))
    return union_length(mid - half, mid + half) / (2 * math.pi)


# ---------------------------------------------------------------------------
# the delta-line family, by direct point-line distances
# ---------------------------------------------------------------------------

#: directions handled at once, so the checker's own memory stays a few MB
#: and the benchmark's peak RSS is the program's
DIR_BLOCK = 128


def vantage_lines(px, py, vx, vy, delta, d, c):
    """For every family direction k1*delta, the (up to 5) lines whose
    2-delta tube holds the vantage, and the number of points within
    c*delta of each.  Returns (counts[k1, j], valid[k1, j])."""
    k2max = math.floor(d / delta)
    th = np.arange(math.floor(math.pi / delta) + 1) * delta
    sn, cs = np.sin(th), np.cos(th)
    t_vantage = -sn * vx + cs * vy
    base = np.floor(t_vantage / delta).astype(np.int64)
    counts = np.zeros((th.size, 5), dtype=np.int64)
    valid = np.zeros((th.size, 5), dtype=bool)
    for j, shift in enumerate(range(-2, 3)):
        k2 = base + shift
        valid[:, j] = ((np.abs(t_vantage - k2 * delta) <= 2 * delta)
                       & (np.abs(k2) <= k2max))
    for b in range(0, th.size, DIR_BLOCK):
        blk = slice(b, b + DIR_BLOCK)
        t_points = -sn[blk, None] * px[None, :] + cs[blk, None] * py[None, :]
        for j, shift in enumerate(range(-2, 3)):
            line = ((base[blk] + shift) * delta)[:, None]
            counts[blk, j] = np.count_nonzero(
                np.abs(t_points - line) <= c * delta, axis=1)
    return counts, valid


def vis_delta(px, py, vx, vy, delta, d, c) -> int:
    counts, valid = vantage_lines(px, py, vx, vy, delta, d, c)
    return int(np.count_nonzero(valid & (counts > 0)))


def _direction_in_arc(delta: float, n_dir: int, start: float,
                      width: float) -> np.ndarray:
    ang = np.arange(n_dir) * delta
    two_pi = 2 * math.pi
    return (((ang - start) % two_pi <= width)
            | ((ang + math.pi - start) % two_pi <= width))


def _arc_gap(s1: float, s2: float, width: float) -> float:
    """Circular gap between two arcs of the same width (0 if they meet)."""
    d = (s2 - s1) % (2 * math.pi)
    return max(0.0, min(d - width, 2 * math.pi - d - width))


def check_selection(sel, px, py, vx, vy, delta, d, c, k) -> list[str]:
    """select_intervals: the arc masses are recomputed directly; the chosen
    pair must carry them, clear the mass threshold, be separated from each
    other and from each other's antipode, and no earlier pair may clearly
    qualify.  Separations within 1e-9 of the limit may go either way."""
    counts, valid = vantage_lines(px, py, vx, vy, delta, d, c)
    per_dir = np.where(valid, counts, 0).sum(axis=1)
    width = 2 * math.pi / k
    starts = [i * width for i in range(k)]
    masses = [int(per_dir[_direction_in_arc(delta, per_dir.size, s, width)]
                  .sum()) for s in starts]
    threshold = px.size / (10 * k)

    def separated(i1, i2, slack):
        anti = (starts[i2] + math.pi) % (2 * math.pi)
        return (_arc_gap(starts[i1], starts[i2], width) >= width * slack
                and _arc_gap(starts[i1], anti, width) >= width * slack)

    def qualifies(i1, i2, slack):
        return (masses[i1] > threshold and masses[i2] > threshold
                and separated(i1, i2, slack))

    stop = (k, k) if sel is None else (sel["i1"] - 1, sel["i2"] - 1)
    errs = [f"select_intervals: pair {i1 + 1},{i2 + 1} qualifies before "
            f"the one returned" for i1 in range(k) for i2 in range(i1 + 1, k)
            if (i1, i2) < stop and qualifies(i1, i2, 1 + 1e-9)]
    if sel is None:
        return errs
    i1, i2 = stop
    if not qualifies(i1, i2, 1 - 1e-9):
        errs.append(f"select_intervals: pair {i1 + 1},{i2 + 1} does not "
                    f"qualify (masses {masses[i1]}, {masses[i2]})")
    if [sel["mass1"], sel["mass2"]] != [masses[i1], masses[i2]]:
        errs.append(f"select_intervals: masses {sel['mass1']}, "
                    f"{sel['mass2']} != {masses[i1]}, {masses[i2]}")
    for key, i in (("arc1", i1), ("arc2", i2)):
        if not (close(sel[key][0], starts[i]) and close(sel[key][1], width)):
            errs.append(f"select_intervals: {key} {sel[key]} is not grid "
                        f"arc {i + 1}")
    return errs


# ---------------------------------------------------------------------------
# projective bridge
# ---------------------------------------------------------------------------

def projected_length(px, py, delta: float, x: float) -> float:
    """Length of the projection, in direction arccot(x + 1), of the image of
    the delta-balls under T(x, y) = ((x+1)/y, (y+1)/y); each ball is widened
    by delta times the largest singular value of DT, in closed form."""
    ix, iy = (px + 1) / py, (py + 1) / py
    a, b, dd = 1 / py, -(px + 1) / py ** 2, -1 / py ** 2   # DT = [[a, b], [0, dd]]
    frob = a * a + b * b + dd * dd
    det = a * dd
    sigma = np.sqrt((frob + np.sqrt(np.maximum(frob * frob - 4 * det * det,
                                               0.0))) / 2)
    th = math.pi / 2 - math.atan(x + 1)
    t = ix * math.cos(th) + iy * math.sin(th)
    r = delta * sigma
    return union_length(t - r, t + r)


# ---------------------------------------------------------------------------
# unrectifiable one-set certificate
# ---------------------------------------------------------------------------

def strip_mass(px, py, delta: float, theta: float, offset: float,
               halfwidth: float) -> float:
    """Total delta-ball area fraction inside the strip |t - offset| <= h
    around the line of direction theta: the fraction of a disc below
    height u*delta is (asin u + u sqrt(1 - u^2) + pi/2) / pi."""
    t = -math.sin(theta) * px + math.cos(theta) * py
    s = np.abs(t - offset)

    def below(x):
        u = np.clip(x / delta, -1.0, 1.0)
        return (np.arcsin(u) + u * np.sqrt(1 - u * u) + math.pi / 2) / math.pi

    return float(np.sum(below(halfwidth - s) - below(-halfwidth - s)))


def check_certificate(rows, sidecar, px, py, delta, C, seed) -> list[str]:
    """Invariants of any correct certificate, with the ball and line
    witnesses recounted and every margin recomputed from its witness.
    `rows` are the CSV's (check, passed, margin); `sidecar` is the JSON."""
    errs = []
    m = px.size
    cert = sidecar.get("certificate", {})
    witnesses = {w.get("check"): w for w in cert.get("worst_witnesses", [])}
    for name, passed, margin in rows:
        if not (isinstance(margin, float) and margin >= 0
                and math.isfinite(margin)):
            errs.append(f"{name}: margin {margin!r} is not a finite >= 0")
        elif passed is not (margin <= 1.0):
            errs.append(f"{name}: passed={passed} but margin={margin}")
    if sidecar.get("passes") is not all(r[1] for r in rows):
        errs.append("passes disagrees with the per-check results")
    if cert.get("seed") != seed:
        errs.append(f"certificate seed {cert.get('seed')} != {seed}")
    kappa = cert.get("kappa_estimate")
    if not (isinstance(kappa, float) and 0.0 <= kappa <= 0.5):
        errs.append(f"kappa_estimate {kappa!r} outside [0, 0.5]")
    margins = {r[0]: r[2] for r in rows}

    w = witnesses.get("ball", {})
    cx, cy = w.get("center", (math.nan, math.nan))
    r = w.get("radius", math.nan)
    count = int(np.count_nonzero(np.hypot(px - cx, py - cy) <= r))
    if count != w.get("count"):
        errs.append(f"ball witness count {w.get('count')} != {count}")
    if not close(margins.get("ball", math.nan), count / (C * r * m)):
        errs.append("ball margin does not match its witness")

    w = witnesses.get("line", {})
    mass = strip_mass(px, py, delta, w.get("theta", math.nan),
                      w.get("offset", math.nan), 1.0 / C)
    if not close(w.get("mass", math.nan), mass):
        errs.append(f"line witness mass {w.get('mass')} != {mass}")
    if not close(margins.get("line", math.nan), mass / (m / 10)):
        errs.append("line margin does not match its witness")

    w = witnesses.get("rectangle", {})
    r1, r2 = w.get("r1", math.nan), w.get("r2", math.nan)
    if not r1 <= r2:
        errs.append(f"rectangle witness r1={r1} > r2={r2}")
    if not close(margins.get("rectangle", math.nan),
                 w.get("count", math.nan) / (C * m * r2)):
        errs.append("rectangle margin does not match its witness")
    return errs

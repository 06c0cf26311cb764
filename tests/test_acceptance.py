"""Acceptance gate: eleven end-to-end criteria, one printed verdict each.

Every expected value here was frozen from an independent derivation
(closed forms, Monte-Carlo oracles, or brute-force recomputation) before
being compared against the library output.
"""

import math

import numpy as np
import pytest

from favlab.geometry import Point2
from favlab.ifs import generate_generation, preset
from favlab.projections import (AngleGrid, favard_length, favard_lengths,
                                project_generation)
from favlab.set_analysis import (box_dimension_estimate,
                                 check_discrete_alpha_set,
                                 check_unrectifiable_one_set, riesz_energy)
from favlab.transforms import POLAR, apply_diffeo, polar_visibility_from_origin, \
    radial_vs_projection_bridge
from favlab.visibility import (build_line_family, cloud_from_generation,
                               l2_norm_f, vis_delta, visibility)


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} "
          f"({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. Favard lower-bound law
# ---------------------------------------------------------------------------

def test_criterion_01_favard_scaling(fourcorner, grid4096):
    favs = list(favard_lengths(fourcorner, 8, grid4096)[0][2:9])
    products = [n * f for n, f in zip(range(2, 9), favs)]
    c0 = 1.5
    ok = (min(products) >= c0
          and all(a > b for a, b in zip(favs, favs[1:])))
    verdict(1, "favard-scaling", ok,
            f"min n*Fav = {min(products):.4f} >= {c0}, strictly decreasing")


# ---------------------------------------------------------------------------
# 2. Polar Cantor visibility ratio
# ---------------------------------------------------------------------------

def test_criterion_02_polar_visibility(fourcorner):
    vis = [polar_visibility_from_origin(generate_generation(fourcorner, n))
           for n in range(1, 9)]
    ratios = [b / a for a, b in zip(vis, vis[1:])]
    slope = float(np.polyfit(np.arange(1, 9), np.log2(vis), 1)[0])
    ok = (all(abs(r - 0.5) <= 1e-9 for r in ratios)
          and abs(slope + 1.0) <= 1e-6)
    verdict(2, "polar-visibility", ok,
            f"ratios 0.5 within {max(abs(r - 0.5) for r in ratios):.1e}, "
            f"log2 slope {slope:.8f}")


# ---------------------------------------------------------------------------
# 3. Energy growth
# ---------------------------------------------------------------------------

def test_criterion_03_energy_growth(fourcorner):
    energies = []
    for n in range(3, 8):
        gen = generate_generation(fourcorner, n)
        energies.append(riesz_energy(cloud_from_generation(gen), 1.0))
    diffs = [b - a for a, b in zip(energies, energies[1:])]
    spread = (max(diffs) - min(diffs)) / (sum(diffs) / len(diffs))
    ok = spread <= 0.15
    verdict(3, "energy-growth", ok,
            f"increments {', '.join(f'{d:.5f}' for d in diffs)}; "
            f"relative spread {spread:.2%} <= 15%")


# ---------------------------------------------------------------------------
# 4. L2 bound on the richness function
# ---------------------------------------------------------------------------

def test_criterion_04_l2_richness(fourcorner):
    vals, logs = [], []
    for n in range(3, 7):
        delta = 4.0 ** -n
        gen = generate_generation(fourcorner, n)
        fam = build_line_family(delta, 2.0)
        vals.append(l2_norm_f(cloud_from_generation(gen), fam))
        logs.append(math.log(1 / delta))
    degree = float(np.polyfit(np.log(logs), np.log(vals), 1)[0])
    bounded = all(v <= 2.0 * lg ** 2 for v, lg in zip(vals, logs))
    ok = 0.0 <= degree <= 2.0 and bounded
    verdict(4, "l2-richness", ok,
            f"values {', '.join(f'{v:.1f}' for v in vals)}; "
            f"fitted polylog degree {degree:.3f} <= 2")


# ---------------------------------------------------------------------------
# 5. Certifier fixtures
# ---------------------------------------------------------------------------

def test_criterion_05_certifier_fixtures(fourcorner, segment_cloud):
    C = 256.0
    kappas = []
    all_pass = True
    for n in range(3, 7):
        A = cloud_from_generation(generate_generation(fourcorner, n))
        cert = check_unrectifiable_one_set(A, C, seed=0)
        all_pass &= cert.passed
        kappas.append(cert.kappa_estimate)
    uniform = len(set(kappas)) == 1 and kappas[0] > 0
    segment_fails = all(
        not check_discrete_alpha_set(segment_cloud, 1.0, c,
                                     seed=0).checks["line"].passed
        for c in (1.0, 10.0, 100.0, 1000.0))
    ok = all_pass and uniform and segment_fails
    verdict(5, "certifier-fixtures", ok,
            f"K_3..K_6 pass at C={C:g} with kappa={kappas[0]}; "
            f"segment fails line condition at every C <= 1e3")


# ---------------------------------------------------------------------------
# 6. Diffeomorphism preservation
# ---------------------------------------------------------------------------

def test_criterion_06_diffeo_preservation(fourcorner):
    A = cloud_from_generation(generate_generation(fourcorner, 4))
    base = check_unrectifiable_one_set(A, 256.0, seed=0)
    image = check_unrectifiable_one_set(apply_diffeo(POLAR, A), 256.0, seed=0)
    floor = base.kappa_estimate / 2 - 0.05
    ok = image.passed and image.kappa_estimate >= floor
    verdict(6, "diffeo-preservation", ok,
            f"kappa(phi(K4)) = {image.kappa_estimate} >= "
            f"kappa(K4)/2 - 0.05 = {floor}")


# ---------------------------------------------------------------------------
# 7. Projection dimension floor
# ---------------------------------------------------------------------------

def test_criterion_07_projection_dimension(fourcorner):
    gen = generate_generation(fourcorner, 6)
    scales = [2.0 ** -k for k in range(2, 13)]
    dims = [box_dimension_estimate(project_generation(gen, float(th)), scales)
            for th in AngleGrid(360).thetas]
    column = box_dimension_estimate(project_generation(gen, 0.0),
                                    [4.0 ** -1, 4.0 ** -2, 4.0 ** -3])
    ok = min(dims) >= 0.3 and abs(column - 0.5) <= 1e-9
    verdict(7, "projection-dimension", ok,
            f"min dim over 360 angles {min(dims):.3f} >= 0.3; "
            f"exact column slope {column:.9f}")


# ---------------------------------------------------------------------------
# 8. Discrete/continuous visibility bridge
# ---------------------------------------------------------------------------

def test_criterion_08_visibility_bridge(fourcorner):
    gen = generate_generation(fourcorner, 4)
    A = cloud_from_generation(gen)
    fam = build_line_family(A.delta, 3.0)
    rng = np.random.default_rng(42)
    vantages = []
    while len(vantages) < 20:
        ang = rng.uniform(0, 2 * math.pi)
        rad = rng.uniform(0.8, 1.6)
        x = 0.5 + rad * math.cos(ang)
        y = 0.5 + rad * math.sin(ang)
        if -0.2 <= x <= 1.2 and -0.2 <= y <= 1.2:
            continue
        vantages.append(Point2(x, y))
    ratios = [vd * A.delta / visibility(gen, a)
              for a, vd in zip(vantages, vis_delta(vantages, A, fam))]
    band = max(ratios) / min(ratios)
    ok = band <= 8.0
    verdict(8, "visibility-bridge", ok,
            f"vis_delta*delta/vis in [{min(ratios):.2f}, {max(ratios):.2f}], "
            f"band {band:.3f} <= 8")


# ---------------------------------------------------------------------------
# 9. Projective bridge
# ---------------------------------------------------------------------------

def test_criterion_09_projective_bridge():
    gen = generate_generation(preset("fourcorner-wide"), 4)
    A = cloud_from_generation(gen)
    fam = build_line_family(A.delta, 30.0)
    xs = [-9.5 + i for i in range(10)]
    ratios = [vd * A.delta / length
              for vd, length in radial_vs_projection_bridge(A, xs, fam)]
    band = max(ratios) / min(ratios)
    ok = band <= 8.0
    verdict(9, "projective-bridge", ok,
            f"ratio band over x in [-9.5, -0.5]: {band:.3f} <= 8")


# ---------------------------------------------------------------------------
# 10. Angle-comparability sampling
# ---------------------------------------------------------------------------

def _angle_constant(seed: int, n: int = 10_000) -> float:
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (n, 2))
    phi = rng.uniform(0, 2 * math.pi, (n, 2))
    rad = rng.uniform(0.5, 2.0, (n, 2))
    x = a + rad[:, :1] * np.stack([np.cos(phi[:, 0]), np.sin(phi[:, 0])], 1)
    y = a + rad[:, 1:] * np.stack([np.cos(phi[:, 1]), np.sin(phi[:, 1])], 1)
    gamma = np.abs(phi[:, 0] - phi[:, 1]) % (2 * math.pi)
    gamma = np.minimum(gamma, 2 * math.pi - gamma)
    seg = y - x
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cross = seg[:, 0] * (a[:, 1] - x[:, 1]) - seg[:, 1] * (a[:, 0] - x[:, 0])
    dist = np.abs(cross) / seg_len
    good = (seg_len > 1e-9) & (dist > 1e-9)
    return float(np.min(gamma[good] / (seg_len[good] * dist[good])))


def test_criterion_10_angle_comparability():
    consts = [_angle_constant(seed) for seed in (0, 1, 2)]
    spread = max(consts) / min(consts)
    ok = min(consts) > 0 and spread <= 1.2
    verdict(10, "angle-comparability", ok,
            f"c0 estimates {', '.join(f'{c:.4f}' for c in consts)}; "
            f"seed spread {spread:.4f} <= 1.2")


# ---------------------------------------------------------------------------
# 11. Oracle equivalence
# ---------------------------------------------------------------------------

def _favard_mc(gen, n_samples: int = 10_000_000, seed: int = 2024,
               chunk: int = 250_000) -> float:
    rng = np.random.default_rng(seed)
    x0, y0, side = gen.corner_x, gen.corner_y, float(gen.side)
    total = 0.0
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        th = rng.uniform(0, math.pi, m)
        c, s = np.cos(th), np.sin(th)
        shift = side * (np.minimum(c, 0.0) + np.minimum(s, 0.0))
        lo = x0[None, :] * c[:, None] + y0[None, :] * s[:, None] \
            + shift[:, None]
        hi = lo + side * (np.abs(c) + np.abs(s))[:, None]
        rmin = lo.min(axis=1)
        rmax = hi.max(axis=1)
        r = rng.uniform(rmin, rmax)
        hit = np.any((lo <= r[:, None]) & (r[:, None] <= hi), axis=1)
        total += float(np.sum((rmax - rmin) * hit))
        done += m
    return total / n_samples


def _radial_ray_oracle(gen, a: Point2, n_rays: int = 1_000_000) -> float:
    ang = (np.arange(n_rays) + 0.5) * (2 * math.pi / n_rays)
    dx, dy = np.cos(ang), np.sin(ang)
    hit = np.zeros(n_rays, dtype=bool)
    for x0, y0, side in zip(gen.corner_x, gen.corner_y, gen.sides):
        with np.errstate(divide="ignore", invalid="ignore"):
            tx1 = (x0 - a.x) / dx
            tx2 = (x0 + side - a.x) / dx
            ty1 = (y0 - a.y) / dy
            ty2 = (y0 + side - a.y) / dy
        tmin = np.maximum(np.minimum(tx1, tx2), np.minimum(ty1, ty2))
        tmax = np.minimum(np.maximum(tx1, tx2), np.maximum(ty1, ty2))
        hit |= (tmax >= tmin) & (tmax >= 0)
    return float(np.mean(hit)) * 2 * math.pi


def test_criterion_11_oracle_equivalence(fourcorner, grid4096):
    gen = generate_generation(fourcorner, 3)
    quad = favard_length(gen, grid4096)
    mc = _favard_mc(gen)
    fav_diff = abs(quad - mc)

    from favlab.visibility import radial_projection
    vantages = [Point2(-1.0, -1.0), Point2(2.0, 0.5), Point2(0.5, -3.0),
                Point2(-2.0, 2.0), Point2(3.0, 3.0)]
    ray_diffs = []
    for a in vantages:
        exact = radial_projection(gen, a).measure()
        ray_diffs.append(abs(exact - _radial_ray_oracle(gen, a)))
    ok = fav_diff <= 1e-3 and max(ray_diffs) <= 1e-3
    verdict(11, "oracle-equivalence", ok,
            f"Favard MC diff {fav_diff:.2e} <= 1e-3; "
            f"worst ray-oracle diff {max(ray_diffs):.2e} <= 1e-3")

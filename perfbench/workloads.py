"""The benchmark's workloads: favlab experiments run as a user runs them.

An operation is one `favlab.cli.main(argv)` call or one named library call.
The workload seed sets the vantage points and the certifier seed and
nothing else.  Vantages come from fixed regions left of the unit hull, and
the bridge always includes its farthest abscissa, so the cost of a pass does
not depend on the seed.  `--angles` is always passed explicitly.

Each op carries its output check: deterministic outputs are compared with
values frozen in expected.json; seed-dependent ones with an independent
recomputation from checks.py.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import favlab.geometry
import favlab.ifs
import favlab.visibility

import checks

WORKLOADS = ("projection", "lines", "certify")

#: vantage region (x0, x1, y0, y1): left of the unit square, inside the
#: radius of its farthest corner, so the line family never grows
VANTAGE_BOX = (-0.4, -0.1, 0.1, 0.9)
BRIDGE_X = (-9.5, -0.5)
#: distance from the origin to the farthest corner of the unit hull
HULL_RADIUS = math.hypot(1.0, 1.0)
C_MULT = 4.0
SELECT_K = 12

#: operation sizes; "tiny" is for the smoke test
SIZES = {
    "full": dict(favard="1..7", favard_angles=4096, box_n=6, box_angles=360,
                 stack_n=4, stack_angles=16, bad_n=6, bad_angles=2048,
                 vis_n=9, delta_n=5, scan_n=4, bridge_n=4, rich_n=5,
                 cert_n=6, energy="3..7"),
    "tiny": dict(favard="1..3", favard_angles=64, box_n=3, box_angles=8,
                 stack_n=2, stack_angles=4, bad_n=3, bad_angles=64,
                 vis_n=4, delta_n=3, scan_n=3, bridge_n=3, rich_n=3,
                 cert_n=3, energy="2..3"),
}

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


@dataclass
class Op:
    name: str                                   # metric stem
    check: Callable[[dict], list[str]]
    argv: list[str] | None = None               # CLI op, without --out
    call: Callable[[], dict] | None = None      # library op
    params: dict = field(default_factory=dict)  # recorded with the result


def _vantages(rng: random.Random, count: int) -> list[tuple[float, float]]:
    x0, x1, y0, y1 = VANTAGE_BOX
    return [(rng.uniform(x0, x1), rng.uniform(y0, y1)) for _ in range(count)]


def _vantage_args(vantages) -> list[str]:
    return [f"--vantage={x!r},{y!r}" for x, y in vantages]


def _frozen(size: str, name: str, keys=("rows",)):
    want = EXPECTED[size][name]

    def check(out: dict) -> list[str]:
        errs: list[str] = []
        for key in keys:
            errs += checks.compare_values(out.get(key), want[key],
                                          f"{name}.{key}")
        return errs
    return check


def build(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The workload's operations, with inputs drawn from `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    s = SIZES[size]
    if workload == "projection":
        return _projection(rng, s, size)
    if workload == "lines":
        return _lines(rng, s, size)
    return _certify(rng, s, size)


def _projection(rng, s, size) -> list[Op]:
    vantages = _vantages(rng, 4)
    n = s["vis_n"]

    def check_vis(out):
        errs = []
        for row, (vx, vy) in zip(out["rows"], vantages):
            want = _memo(("vis", n, vx, vy),
                         lambda: checks.square_visibility(n, vx, vy))
            if row[:2] != [vx, vy] or not checks.close(row[2], want):
                errs.append(f"visibility-point: row {row} != vis {want!r}")
        if len(out["rows"]) != len(vantages):
            errs.append(f"visibility-point: {len(out['rows'])} rows")
        return errs

    return [
        Op("favard_scaling", _frozen(size, "favard_scaling"),
           ["favard-scaling", "--n", s["favard"],
            "--angles", str(s["favard_angles"])]),
        Op("box_dim_sweep", _frozen(size, "box_dim_sweep"),
           ["box-dim-sweep", "--n", str(s["box_n"]),
            "--angles", str(s["box_angles"])]),
        Op("stacking", _frozen(size, "stacking"),
           ["stacking", "--n", str(s["stack_n"]),
            "--angles", str(s["stack_angles"])]),
        Op("bad_angles", _frozen(size, "bad_angles", ("rows", "K",
                                                      "bad_measure")),
           ["bad-angles", "--n", str(s["bad_n"]),
            "--angles", str(s["bad_angles"])]),
        Op("visibility_point", check_vis,
           ["visibility-point", "--n", str(n)] + _vantage_args(vantages)),
    ]


def _lines(rng, s, size) -> list[Op]:
    sweep_vantages = _vantages(rng, 2)
    bridge_xs = [BRIDGE_X[0]] + [rng.uniform(*BRIDGE_X) for _ in range(9)]
    rich_vantage = _vantages(rng, 1)[0]

    n = s["delta_n"]

    def check_sweep(out):
        px, py, delta = checks.four_corner_centers(n)
        d = max([HULL_RADIUS] + [math.hypot(*v) for v in sweep_vantages]) + 0.5
        errs = []
        for row, (vx, vy) in zip(out["rows"], sweep_vantages):
            vis = _memo(("ball", n, vx, vy),
                        lambda: checks.ball_visibility(n, delta, vx, vy))
            vd = _memo(("vd", n, vx, vy, d), lambda: checks.vis_delta(
                px, py, vx, vy, delta, d, C_MULT))
            if row[:2] != [vx, vy] or not checks.close(row[2], vis) \
                    or row[3] != vd:
                errs.append(f"vis-delta-sweep: row {row} != vis {vis!r}, "
                            f"vis_delta {vd}")
        if len(out["rows"]) != len(sweep_vantages):
            errs.append(f"vis-delta-sweep: {len(out['rows'])} rows")
        return errs

    nb = s["bridge_n"]

    def check_bridge(out):
        px, py, delta = checks.four_corner_centers(nb)
        d = max(HULL_RADIUS, max(abs(x) for x in bridge_xs)) + 0.5
        errs = []
        for row, x in zip(out["rows"], bridge_xs):
            vd = _memo(("vd", nb, x, 0.0, d), lambda: checks.vis_delta(
                px, py, x, 0.0, delta, d, C_MULT))
            length = _memo(("proj", nb, x), lambda: checks.projected_length(
                px, py, delta, x))
            ratio = vd * delta / length
            if row[0] != x or row[1] != vd or not checks.close(row[2], length) \
                    or not checks.close(row[3], ratio):
                errs.append(f"bridge: row {row} != vis_delta {vd}, "
                            f"length {length!r}")
        if len(out["rows"]) != len(bridge_xs):
            errs.append(f"bridge: {len(out['rows'])} rows")
        return errs

    nr = s["rich_n"]
    rich_want = EXPECTED[size]["richness"]

    def richness():
        sys_ = favlab.ifs.preset("fourcorner")
        gen = favlab.ifs.generate_generation(sys_, nr)
        A = favlab.visibility.cloud_from_generation(gen)
        fam = favlab.visibility.build_line_family(A.delta, HULL_RADIUS + 0.5)
        l2 = favlab.visibility.l2_norm_f(A, fam, C_MULT)
        hist = favlab.visibility.richness_histogram(A, fam, C_MULT)
        sel = favlab.visibility.select_intervals(
            favlab.geometry.Point2(*rich_vantage), A, fam, SELECT_K, C_MULT)
        return {
            "l2_norm_f": l2,
            "histogram": {str(k): v for k, v in sorted(hist.buckets.items())},
            "family_size": hist.family_size,
            "selection": None if sel is None else {
                "arc1": list(sel.arc1), "arc2": list(sel.arc2),
                "i1": sel.i1, "i2": sel.i2,
                "mass1": sel.mass1, "mass2": sel.mass2},
        }

    def check_richness(out):
        errs = []
        for key in ("l2_norm_f", "histogram", "family_size"):
            errs += checks.compare_values(out.get(key), rich_want[key],
                                          f"richness.{key}")
        px, py, delta = checks.four_corner_centers(nr)
        vx, vy = rich_vantage
        return errs + _memo(
            ("select", nr, vx, vy, repr(out.get("selection"))),
            lambda: checks.check_selection(
                out.get("selection"), px, py, vx, vy, delta,
                HULL_RADIUS + 0.5, C_MULT, SELECT_K))

    return [
        Op("vis_delta_sweep", check_sweep,
           ["vis-delta-sweep", "--n", str(n)] + _vantage_args(sweep_vantages)),
        Op("line_scan", _frozen(size, "line_scan"),
           ["line-scan", "--n", str(s["scan_n"])]),
        Op("bridge", check_bridge,
           ["bridge", "--n", str(nb)] + _vantage_args(
               [(x, 0.0) for x in bridge_xs])),
        Op("richness", check_richness, call=richness,
           params={"n": nr, "vantage": list(rich_vantage), "k": SELECT_K,
                   "c": C_MULT, "d": HULL_RADIUS + 0.5}),
    ]


def _certify(rng, s, size) -> list[Op]:
    cert_seed = rng.randrange(2 ** 31)
    n, C = s["cert_n"], 256.0
    frozen_rows = EXPECTED[size]["certify_set"]["rows"]

    def check_cert(out):
        px, py, delta = checks.four_corner_centers(n)
        rows = out["rows"]
        errs = checks.compare_values(
            [r for r in rows if r[0] in ("separation", "cardinality")],
            frozen_rows, "certify_set.rows")
        if [r[0] for r in rows] != ["separation", "cardinality", "ball",
                                    "line", "rectangle"]:
            errs.append(f"certify-set: checks {[r[0] for r in rows]}")
        return errs + checks.check_certificate(
            rows, out, px, py, delta, C, cert_seed)

    return [
        Op("certify_set", check_cert,
           ["certify-set", "--n", str(n), "--C", repr(C),
            "--seed", str(cert_seed)]),
        Op("energy", _frozen(size, "energy"), ["energy", "--n", s["energy"]]),
    ]


_MEMO: dict = {}


def _memo(key, compute):
    """Reference values are computed once per process: every pass of a
    workload repeats the same inputs."""
    if key not in _MEMO:
        _MEMO[key] = compute()
    return _MEMO[key]

"""Command-line experiment harness.

Each subcommand runs one experiment and writes a CSV data file plus a JSON
sidecar echoing the complete effective configuration.  Outputs are
deterministic for a fixed seed: reductions run in fixed index order and no
timestamps enter the data files.

Exit codes: 0 success, 2 validation error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import Line, Point2
from .ifs import (DEFAULT_NODE_BUDGET, IFSystem, ResourceBudgetError,
                  generate_generation, resolve_ifs, subword_census)
from .projections import (AngleGrid, bad_angle_measure, favard_length,
                          project_generation, stacked_census)
from .set_analysis import (box_dimension_estimate, check_discrete_alpha_set,
                           check_unrectifiable_one_set, difference_measure,
                           generation_energy)
from .transforms import radial_vs_projection_bridge
from .visibility import (DEFAULT_C, build_line_family, cloud_from_generation,
                         radial_projection_balls, scan_line_low_visibility,
                         vis_delta, visibility)

EXPERIMENTS = ("favard-scaling", "visibility-point", "vis-delta-sweep",
               "line-scan", "certify-set", "energy", "box-dim-sweep",
               "stacking", "bad-angles", "generic-census", "bridge")

#: angle count of each experiment that takes one, when --angles is unset
DEFAULT_ANGLES = {"favard-scaling": 4096, "bad-angles": 4096,
                  "box-dim-sweep": 360, "stacking": 16}


@dataclass
class ExperimentConfig:
    experiment: str
    ifs: str = "fourcorner"
    n_lo: int = 4
    n_hi: int = 4
    delta: float | None = None
    angles: int | None = None
    vantages: list[tuple[float, float]] = field(default_factory=list)
    lambdas: list[float] = field(default_factory=list)
    c: float = DEFAULT_C
    k: float = 12.0
    alpha: float = 1.0
    C: float = 256.0
    samples: int = 100_000
    seed: int = 0
    out: str = "out.csv"
    budget: int = DEFAULT_NODE_BUDGET


def validate(cfg: ExperimentConfig) -> list[str]:
    """Empty list iff the configuration is runnable."""
    errs = []
    if cfg.experiment not in EXPERIMENTS:
        errs.append(f"experiment: unknown value {cfg.experiment!r}; "
                    f"valid: {', '.join(EXPERIMENTS)}")
        return errs
    try:
        sys_ = resolve_ifs(cfg.ifs)
    except (ValueError, OSError) as exc:
        errs.append(f"ifs: {exc}")
        sys_ = None
    if cfg.n_lo < 0 or cfg.n_hi < cfg.n_lo:
        errs.append("n: need 0 <= lo <= hi")
    if sys_ is not None and sys_.s ** cfg.n_hi > cfg.budget:
        errs.append(f"n: depth {cfg.n_hi} exceeds node budget "
                    f"({sys_.s}^{cfg.n_hi} > {cfg.budget})")
    if cfg.delta is not None and not cfg.delta > 0:
        errs.append("delta: must be positive")
    if cfg.angles is not None and cfg.angles < 1:
        errs.append("angles: must be >= 1")
    if cfg.experiment == "line-scan":
        for lam in cfg.lambdas:
            if not (0 < lam <= 1):
                errs.append(f"lambda: {lam} outside (0, 1]")
    if cfg.experiment == "generic-census" and not (
            float(cfg.k).is_integer() and cfg.k >= 1):
        errs.append(f"k: subword length must be an integer >= 1, "
                    f"got {cfg.k}")
    if not cfg.c > 0:
        errs.append("c: must be positive")
    if not (math.isfinite(cfg.C) and cfg.C > 0):
        errs.append("C: must be positive and finite")
    if not (math.isfinite(cfg.alpha) and cfg.alpha > 0):
        errs.append("alpha: must be positive and finite")
    if cfg.samples < 1:
        errs.append("samples: must be >= 1")
    if cfg.seed < 0:
        errs.append("seed: must be >= 0")
    return errs


def _enclosing_radius(sys_: IFSystem, extra_pts=()) -> float:
    cs = sys_.hull.corners()
    r = float(np.hypot(cs[:, 0], cs[:, 1]).max())
    for x, y in extra_pts:
        r = max(r, math.hypot(x, y))
    return r + 0.5


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _default_delta(cfg, gen) -> float:
    return cfg.delta if cfg.delta is not None else float(gen.side)


def run(cfg: ExperimentConfig) -> int:
    violations = validate(cfg)
    if violations:
        for v in violations:
            print(f"error: {v}", file=sys.stderr)
        return 2
    if cfg.angles is None:
        cfg = replace(cfg, angles=DEFAULT_ANGLES.get(cfg.experiment))
    start = time.monotonic()
    try:
        rows, header, summary = _dispatch(cfg)
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:       # the library's input errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sidecar = Path(cfg.out).with_suffix(".json")
    if str(sidecar) == cfg.out:
        sidecar = Path(cfg.out + ".summary.json")
    try:
        _write_csv(cfg.out, header, rows)
        payload = {
            "config": asdict(cfg),
            "version": __version__,
            "wall_time_s": time.monotonic() - start,
            "csv": cfg.out,
            **summary,
        }
        sidecar.write_text(json.dumps(payload, indent=2))
    except OSError as exc:
        print(f"error: out: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {cfg.out} and {sidecar}")
    return 0


def _dispatch(cfg: ExperimentConfig):
    sys_ = resolve_ifs(cfg.ifs)
    ns = list(range(cfg.n_lo, cfg.n_hi + 1))
    if cfg.experiment == "favard-scaling":
        grid = AngleGrid(cfg.angles)
        rows = []
        for n in ns:
            gen = generate_generation(sys_, n, budget=cfg.budget)
            rows.append([n, cfg.angles, favard_length(gen, grid)])
        return rows, ["n", "theta_count", "favard"], {
            "favard": {str(r[0]): r[2] for r in rows}}

    if cfg.experiment == "visibility-point":
        gen = generate_generation(sys_, cfg.n_hi, budget=cfg.budget)
        vantages = cfg.vantages or [(-1.0, -1.0)]
        rows = [[vx, vy, visibility(gen, Point2(vx, vy))]
                for vx, vy in vantages]
        return rows, ["vantage_x", "vantage_y", "vis"], {
            "vis": [r[2] for r in rows]}

    if cfg.experiment == "vis-delta-sweep":
        gen = generate_generation(sys_, cfg.n_hi, budget=cfg.budget)
        A = cloud_from_generation(gen)
        delta = _default_delta(cfg, gen)
        vantages = cfg.vantages or [(-1.0, -1.0)]
        fam = build_line_family(delta, _enclosing_radius(sys_, vantages))
        points = [Point2(vx, vy) for vx, vy in vantages]
        rows = []
        for a, vd in zip(points, vis_delta(points, A, fam, cfg.c)):
            vis = radial_projection_balls(A, delta, a).measure() / (2 * math.pi)
            rows.append([a.x, a.y, vis, vd])
        return rows, ["vantage_x", "vantage_y", "vis", "vis_delta"], {}

    if cfg.experiment == "line-scan":
        gen = generate_generation(sys_, cfg.n_hi, budget=cfg.budget)
        A = cloud_from_generation(gen)
        delta = _default_delta(cfg, gen)
        fam = build_line_family(delta, _enclosing_radius(sys_))
        ell0 = Line(0.0, sys_.hull.corner.y - 0.5 * sys_.hull.side)
        lams = cfg.lambdas or [2.0 ** -j for j in range(1, 7)]
        lengths = scan_line_low_visibility(ell0, A, fam, lams, c=cfg.c)
        rows = [[lam, length] for lam, length in zip(lams, lengths)]
        return rows, ["lambda", "sublevel_length"], {}

    if cfg.experiment == "certify-set":
        gen = generate_generation(sys_, cfg.n_hi, budget=cfg.budget)
        A = cloud_from_generation(gen)
        if cfg.alpha == 1.0:
            cert = check_unrectifiable_one_set(A, cfg.C, seed=cfg.seed)
        else:
            cert = check_discrete_alpha_set(A, cfg.alpha, cfg.C,
                                            seed=cfg.seed)
        rows = [[name, res.passed, res.margin]
                for name, res in cert.checks.items()]
        return rows, ["check", "passed", "margin"], {
            "certificate": json.loads(cert.to_json()),
            "passes": cert.passed}

    if cfg.experiment == "energy":
        rows = []
        for n in ns:
            gen = generate_generation(sys_, n, budget=cfg.budget)
            rows.append([n, generation_energy(gen, 1.0)])
        energy = dict(rows)
        atoms = len(difference_measure(sys_)[0])
        return rows, ["n", "energy"], {
            "energy": {str(n): e for n, e in energy.items()},
            "increment": {str(n): e - energy[n - 1]
                          for n, e in energy.items() if n - 1 in energy},
            "atoms": {str(n): atoms ** n for n in ns}}

    if cfg.experiment == "box-dim-sweep":
        n = cfg.n_hi
        gen = generate_generation(sys_, n, budget=cfg.budget)
        kmax = max(6, 2 * n)
        scales = [2.0 ** -k for k in range(2, kmax + 1)]
        thetas = AngleGrid(cfg.angles).thetas
        rows = []
        for th in thetas:
            iv = project_generation(gen, float(th))
            rows.append([float(th), box_dimension_estimate(iv, scales)])
        dims = [r[1] for r in rows]
        return rows, ["theta", "box_dim"], {"min_box_dim": min(dims)}

    if cfg.experiment == "stacking":
        gen = generate_generation(sys_, cfg.n_hi, budget=cfg.budget)
        rows = []
        for th in AngleGrid(cfg.angles).thetas:
            rep = stacked_census(gen, float(th), cfg.k)
            rows.append([rep.n, rep.theta, rep.K, rep.stacked_fraction,
                         rep.support_measure])
        return rows, ["n", "theta", "K", "stacked_fraction", "support"], {}

    if cfg.experiment == "bad-angles":
        grid = AngleGrid(cfg.angles)
        report = bad_angle_measure(sys_, cfg.n_hi, grid, budget=cfg.budget)
        rows = [[float(th), sup, int(sup <= report.K)]
                for th, sup in zip(grid.thetas, report.sups)]
        return rows, ["theta", "sup_f", "bad"], {
            "K": report.K, "bad_measure": report.measure_estimate}

    if cfg.experiment == "generic-census":
        N = cfg.n_hi
        L = int(cfg.k)
        frac = subword_census(sys_, N, L, samples=cfg.samples, seed=cfg.seed)
        rows = [[N, L, cfg.samples, frac]]
        return rows, ["N", "L", "samples", "nongeneric_fraction"], {
            "nongeneric_fraction": frac}

    if cfg.experiment == "bridge":
        gen = generate_generation(sys_, cfg.n_hi, budget=cfg.budget)
        A = cloud_from_generation(gen)
        delta = _default_delta(cfg, gen)
        xs = ([v[0] for v in cfg.vantages]
              or [-9.5 + i for i in range(10)])
        fam = build_line_family(
            delta, _enclosing_radius(sys_, [(x, 0.0) for x in xs]))
        pairs = radial_vs_projection_bridge(A, xs, fam, cfg.c)
        rows = []
        for x, (vd, length) in zip(xs, pairs):
            ratio = vd * delta / length if length > 0 else float("nan")
            rows.append([x, vd, length, ratio])
        return (rows, ["x", "vis_delta", "projected_length", "ratio_delta"],
                {})

    raise AssertionError(f"unhandled experiment {cfg.experiment}")


def _parse_n(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    n = int(text)
    return n, n


def _parse_vantage(text: str) -> tuple[float, float]:
    x, y = text.split(",")
    return float(x), float(y)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="favlab",
        description="projection-geometry experiments for planar "
                    "self-similar sets")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                metavar="{" + ",".join(EXPERIMENTS) + "}")
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--ifs", default=None,
                       help="preset name or IFS JSON file")
        p.add_argument("--n", default=None,
                       help="generation depth, single or 'lo..hi'")
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--angles", type=int, default=None)
        p.add_argument("--vantage", action="append", default=None,
                       metavar="X,Y")
        p.add_argument("--lambda", action="append", type=float, default=None,
                       dest="lambdas")
        p.add_argument("--c", type=float, default=None)
        p.add_argument("--k", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--C", type=float, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None,
                       help="JSON config file; explicit flags override it")
    return parser


#: value type of each scalar field a JSON config file may set
_FIELD_TYPES = {"experiment": str, "ifs": str, "n_lo": int, "n_hi": int,
                "delta": float, "angles": int, "c": float, "k": float,
                "alpha": float, "C": float, "samples": int, "seed": int,
                "out": str, "budget": int}


def _typed(key: str, val, kind: type):
    """A config-file value checked against its field's type; ints are
    accepted where a float is expected."""
    allowed = (int, float) if kind is float else kind
    if isinstance(val, bool) or not isinstance(val, allowed):
        raise ValueError(f"config: {key} must be {kind.__name__}, "
                         f"got {val!r}")
    return float(val) if kind is float else val


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(experiment=args.experiment)
    if args.config:
        file_vals = json.loads(Path(args.config).read_text())
        if not isinstance(file_vals, dict):
            raise ValueError("config: the file must hold a JSON object")
        for key, val in file_vals.items():
            if key == "n":
                cfg.n_lo, cfg.n_hi = _parse_n(str(val))
            elif key in ("vantage", "vantages"):
                cfg.vantages = [(_typed(key, x, float), _typed(key, y, float))
                                for x, y in val]
            elif key == "lambdas":
                cfg.lambdas = [_typed(key, v, float) for v in val]
            elif key in _FIELD_TYPES:
                if not (val is None and key in ("delta", "angles")):
                    val = _typed(key, val, _FIELD_TYPES[key])
                setattr(cfg, key, val)
            else:
                raise ValueError(f"config: unknown key {key!r}")
    if args.ifs is not None:
        cfg.ifs = args.ifs
    if args.n is not None:
        cfg.n_lo, cfg.n_hi = _parse_n(args.n)
    if args.delta is not None:
        cfg.delta = args.delta
    if args.angles is not None:
        cfg.angles = args.angles
    if args.vantage is not None:
        cfg.vantages = [_parse_vantage(v) for v in args.vantage]
    if args.lambdas is not None:
        cfg.lambdas = args.lambdas
    for key in ("c", "k", "alpha", "C", "samples", "seed", "budget", "out"):
        val = getattr(args, key)
        if val is not None:
            setattr(cfg, key, val)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line experiment harness.

`favlab EXPERIMENT [flags]` runs one experiment and writes a CSV data file
plus a JSON sidecar whose `config` holds every option with each default
resolved (`DEFAULTS`), so `--config` on that `config` repeats the run.
Flags override a config file, whose `experiment` must name the subcommand.
Outputs are deterministic for a fixed seed: reductions run in fixed index
order and no timestamps enter the data files.

Exit codes: 0 success, 2 validation error, 3 resource cap exceeded or an
allocation refused.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time
from copy import copy
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import Line, Point2
from .ifs import (WORK_BUDGET, Generation, IFSystem, ResourceBudgetError,
                  check_budget, generate_generation, resolve_ifs,
                  subword_census)
from .projections import (AngleGrid, bad_angle_measure, favard_lengths,
                          project_generation, stacked_census)
from .set_analysis import (box_dimension_estimate, check_discrete_alpha_set,
                           check_unrectifiable_one_set, difference_measure,
                           generation_energy)
from .transforms import radial_vs_projection_bridge
from .visibility import (DEFAULT_C, build_line_family, cloud_from_generation,
                         radial_projection_balls, scan_line_low_visibility,
                         streamed_visibility, vis_delta)

EXPERIMENTS = ("favard-scaling", "visibility-point", "vis-delta-sweep",
               "line-scan", "certify-set", "energy", "box-dim-sweep",
               "stacking", "bad-angles", "generic-census", "bridge")

#: per experiment, the value each option it uses takes when unset; delta
#: is the side of the stage-n squares and generic-census's subword length
#: k the depth L = max(1, ceil(log_s N)) of fav_upper_pipeline, both
#: computed from (IFS, n)
DEFAULTS = {
    "favard-scaling": {"angles": 4096}, "bad-angles": {"angles": 4096},
    "box-dim-sweep": {"angles": 360}, "stacking": {"angles": 16, "k": 12.0},
    "generic-census": {"k": lambda sys_, n: float(max(1, sys_.log_depth(n)))},
    "visibility-point": {"vantages": [(-1.0, -1.0)]},
    "vis-delta-sweep": {"delta": IFSystem.stage_side,
                        "vantages": [(-1.0, -1.0)]},
    "line-scan": {"delta": IFSystem.stage_side,
                  "lambdas": [2.0 ** -j for j in range(1, 7)]},
    "bridge": {"delta": IFSystem.stage_side,
               "vantages": [(-9.5 + i, 0.0) for i in range(10)]}}


@dataclass
class ExperimentConfig:
    """Every option of a run; a None or empty option is unset, and `run`
    fills those the experiment uses from `DEFAULTS`."""

    experiment: str
    ifs: str = "fourcorner"
    n_lo: int = 4
    n_hi: int = 4
    delta: float | None = None
    angles: int | None = None
    vantages: list[tuple[float, float]] = field(default_factory=list)
    lambdas: list[float] = field(default_factory=list)
    c: float = DEFAULT_C
    k: float | None = None
    alpha: float = 1.0
    C: float = 256.0
    samples: int = 100_000
    seed: int = 0
    out: str = "out.csv"


def validate(cfg: ExperimentConfig) -> list[str]:
    """Empty list iff the configuration is runnable."""
    return _checked(cfg)[1]


def _checked(cfg: ExperimentConfig) -> tuple[IFSystem | None, list[str]]:
    """The configuration's IFS, None if it does not resolve, and the
    violations that `validate` reports."""
    errs = []
    if cfg.experiment not in EXPERIMENTS:
        errs.append(f"experiment: unknown value {cfg.experiment!r}; "
                    f"valid: {', '.join(EXPERIMENTS)}")
        return None, errs
    try:
        sys_ = resolve_ifs(cfg.ifs)
    except (ValueError, OSError) as exc:
        errs.append(f"ifs: {exc}")
        sys_ = None
    if cfg.n_lo < 0 or cfg.n_hi < cfg.n_lo:
        errs.append("n: need 0 <= lo <= hi")
    if cfg.delta is not None and not cfg.delta > 0:
        errs.append("delta: must be positive")
    if cfg.angles is not None and cfg.angles < 1:
        errs.append("angles: must be >= 1")
    if cfg.experiment == "bridge" and any(y != 0 for _, y in cfg.vantages):
        errs.append(f"vantage: bridge vantages must lie on y = 0, got "
                    f"{cfg.vantages}")
    if cfg.experiment == "line-scan":
        for lam in cfg.lambdas:
            if not (0 < lam <= 1):
                errs.append(f"lambda: {lam} outside (0, 1]")
    if cfg.experiment == "generic-census" and cfg.k is not None and not (
            float(cfg.k).is_integer() and cfg.k >= 1):
        errs.append(f"k: subword length must be an integer >= 1, "
                    f"got {cfg.k}")
    if not (math.isfinite(cfg.c) and cfg.c > 0):
        errs.append("c: must be positive and finite")
    if not (math.isfinite(cfg.C) and cfg.C > 0):
        errs.append("C: must be positive and finite")
    if not (math.isfinite(cfg.alpha) and cfg.alpha > 0):
        errs.append("alpha: must be positive and finite")
    if cfg.samples < 1:
        errs.append("samples: must be >= 1")
    if cfg.seed < 0:
        errs.append("seed: must be >= 0")
    return sys_, errs


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


def _resolved(cfg: ExperimentConfig, sys_: IFSystem) -> ExperimentConfig:
    """`cfg` with the experiment's default in each unset option it uses."""
    return replace(cfg, **{
        key: default(sys_, cfg.n_hi) if callable(default) else copy(default)
        for key, default in DEFAULTS.get(cfg.experiment, {}).items()
        if getattr(cfg, key) in (None, [])})


def run(cfg: ExperimentConfig) -> int:
    sys_, violations = _checked(cfg)
    if violations:
        for v in violations:
            print(f"error: {v}", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        cfg = _resolved(cfg, sys_)
        rows, header, summary = _dispatch(cfg, sys_)
    except (ResourceBudgetError, MemoryError, ValueError) as exc:
        # a cap or an allocation the host refuses exits 3, bad input 2
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3
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


#: steps of about 0.1 us (2-core host) that one angle's pass over one
#: square takes in the angle loops of `_dispatch`: a projection and its box
#: counts take 60-100 ns a square, a stacking census 10-25 us, as its
#: maximal function probes each square 9 times on each of log2(squares)
#: rungs
_ANGLE_SQUARE_STEPS = {"box-dim-sweep": 1, "stacking": 256}
#: steps an angle takes besides its squares: 0.12-0.23 ms of interpreter
#: work at n <= 1
_ANGLE_STEPS = 2048


def _check_angles(cfg: ExperimentConfig, gen: Generation) -> None:
    """Raise ResourceBudgetError, before the angle grid is allocated, past
    WORK_BUDGET >> 3 steps for the angle loop of box-dim-sweep or stacking
    over the generation's squares; the cap stops a run near 8-12 s."""
    per_angle = len(gen) * _ANGLE_SQUARE_STEPS[cfg.experiment] + _ANGLE_STEPS
    check_budget(f"{cfg.experiment} over {cfg.angles} angles",
                 cfg.angles * per_angle, "steps", WORK_BUDGET >> 3)


def _dispatch(cfg: ExperimentConfig, sys_: IFSystem):
    ns = range(cfg.n_lo, cfg.n_hi + 1)
    if cfg.experiment == "favard-scaling":
        favs, merged = favard_lengths(sys_, cfg.n_hi, AngleGrid(cfg.angles))
        rows = [[n, cfg.angles, float(favs[n])] for n in ns]
        return rows, ["n", "theta_count", "favard"], {
            "favard": {str(n): float(favs[n]) for n in ns},
            "merged": {str(n): float(merged[n]) for n in ns}}

    if cfg.experiment == "visibility-point":
        found = streamed_visibility(
            sys_, cfg.n_hi, [Point2(vx, vy) for vx, vy in cfg.vantages])
        rows = [[vx, vy, vis]
                for (vx, vy), (vis, _) in zip(cfg.vantages, found)]
        return rows, ["vantage_x", "vantage_y", "vis"], {
            "vis": [vis for vis, _ in found],
            "arcs": [arcs for _, arcs in found]}

    if cfg.experiment == "vis-delta-sweep":
        gen = generate_generation(sys_, cfg.n_hi)
        A = cloud_from_generation(gen)
        fam = build_line_family(cfg.delta,
                                _enclosing_radius(sys_, cfg.vantages))
        points = [Point2(vx, vy) for vx, vy in cfg.vantages]
        rows = []
        for a, vd in zip(points, vis_delta(points, A, fam, cfg.c)):
            vis = (radial_projection_balls(A, cfg.delta, a).measure()
                   / (2 * math.pi))
            rows.append([a.x, a.y, vis, vd])
        return rows, ["vantage_x", "vantage_y", "vis", "vis_delta"], {}

    if cfg.experiment == "line-scan":
        gen = generate_generation(sys_, cfg.n_hi)
        A = cloud_from_generation(gen)
        fam = build_line_family(cfg.delta, _enclosing_radius(sys_))
        ell0 = Line(0.0, sys_.hull.corner.y - 0.5 * sys_.hull.side)
        lengths = scan_line_low_visibility(ell0, A, fam, cfg.lambdas,
                                           c=cfg.c)
        rows = [[lam, length] for lam, length in zip(cfg.lambdas, lengths)]
        return rows, ["lambda", "sublevel_length"], {}

    if cfg.experiment == "certify-set":
        gen = generate_generation(sys_, cfg.n_hi)
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
        # deepest first, so that a refused depth costs none of the others
        found = {n: generation_energy(generate_generation(sys_, n), 1.0)
                 for n in reversed(ns)}
        energy = {n: found[n] for n in ns}
        rows = [[n, e] for n, e in energy.items()]
        atoms = len(difference_measure(sys_)[0])
        return rows, ["n", "energy"], {
            "energy": {str(n): e for n, e in energy.items()},
            "increment": {str(n): e - energy[n - 1]
                          for n, e in energy.items() if n - 1 in energy},
            "atoms": {str(n): atoms ** n for n in ns}}

    if cfg.experiment == "box-dim-sweep":
        n = cfg.n_hi
        gen = generate_generation(sys_, n)
        _check_angles(cfg, gen)
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
        gen = generate_generation(sys_, cfg.n_hi)
        _check_angles(cfg, gen)
        rows = []
        for th in AngleGrid(cfg.angles).thetas:
            rep = stacked_census(gen, float(th), cfg.k)
            rows.append([rep.n, rep.theta, rep.K, rep.stacked_fraction,
                         rep.support_measure])
        return rows, ["n", "theta", "K", "stacked_fraction", "support"], {}

    if cfg.experiment == "bad-angles":
        grid = AngleGrid(cfg.angles)
        report = bad_angle_measure(sys_, cfg.n_hi, grid)
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
        gen = generate_generation(sys_, cfg.n_hi)
        A = cloud_from_generation(gen)
        xs = [x for x, _ in cfg.vantages]
        fam = build_line_family(cfg.delta,
                                _enclosing_radius(sys_, cfg.vantages))
        pairs = radial_vs_projection_bridge(A, xs, fam, cfg.c)
        rows = []
        for x, (vd, length) in zip(xs, pairs):
            ratio = vd * cfg.delta / length if length > 0 else float("nan")
            rows.append([x, vd, length, ratio])
        return (rows, ["x", "vis_delta", "projected_length", "ratio_delta"],
                {})

    raise AssertionError(f"unhandled experiment {cfg.experiment}")


#: value type of each scalar option; each but the experiment and the depth
#: bounds is also a flag
_FIELD_TYPES = {"experiment": str, "ifs": str, "n_lo": int, "n_hi": int,
                "delta": float, "angles": int, "c": float, "k": float,
                "alpha": float, "C": float, "samples": int, "seed": int,
                "out": str}


class _Parser(argparse.ArgumentParser):
    """Raises its parse errors as ValueError, so that `main` reports them
    in one `error:` line, without the usage block, like any input error."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="favlab",
        description="projection-geometry experiments for planar "
                    "self-similar sets")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--ifs", help="preset name or IFS JSON file")
    # --n and --vantage stay strings: _set parses them, so a malformed
    # value exits 2 with one error line like every other bad input
    parser.add_argument("--n", help="generation depth, single or 'lo..hi'")
    parser.add_argument("--vantage", action="append", dest="vantages",
                        metavar="X,Y")
    parser.add_argument("--lambda", action="append", type=float,
                        dest="lambdas")
    for key, kind in _FIELD_TYPES.items():
        if key not in ("experiment", "ifs", "n_lo", "n_hi"):
            parser.add_argument(f"--{key}", type=kind)
    parser.add_argument("--config",
                        help="JSON config file; explicit flags override it")
    return parser


def _typed(key: str, val, kind: type):
    """A value checked against its option's type; ints are accepted where
    a float is expected."""
    allowed = (int, float) if kind is float else kind
    if isinstance(val, bool) or not isinstance(val, allowed):
        raise ValueError(f"config: {key} must be {kind.__name__}, "
                         f"got {val!r}")
    return float(val) if kind is float else val


def _parse_n(val) -> tuple[int, int]:
    """A depth, given as an int or a string 'N', or a range 'LO..HI'."""
    if isinstance(val, str):
        lo, sep, hi = val.partition("..")
        try:
            return int(lo), int(hi if sep else lo)
        except ValueError:
            pass
    elif isinstance(val, int) and not isinstance(val, bool):
        return val, val
    raise ValueError(f"n: expected N or LO..HI, got {val!r}")


def _parse_vantage(val) -> tuple[float, float]:
    """A vantage from a flag ('X,Y') or a config file ([x, y])."""
    xy = []
    if isinstance(val, list):
        xy = [_typed("vantage", t, float) for t in val]
    elif isinstance(val, str):
        with contextlib.suppress(ValueError):   # reported below
            xy = [float(t) for t in val.split(",")]
    if len(xy) != 2:
        raise ValueError(f"vantage: expected X,Y, got {val!r}")
    return xy[0], xy[1]


def _set(cfg: ExperimentConfig, key: str, val) -> None:
    """Set one option of `cfg` from a config-file or flag value.  A null
    delta, angle count or k stays unset, for `run` to resolve."""
    if key in ("vantage", "vantages", "lambdas") and not isinstance(val, list):
        raise ValueError(f"config: {key} must be a list, got {val!r}")
    elif key == "n":
        cfg.n_lo, cfg.n_hi = _parse_n(val)
    elif key in ("vantage", "vantages"):
        cfg.vantages = [_parse_vantage(v) for v in val]
    elif key == "lambdas":
        cfg.lambdas = [_typed(key, v, float) for v in val]
    elif key not in _FIELD_TYPES:
        raise ValueError(f"config: unknown key {key!r}")
    elif key == "experiment" and val != cfg.experiment:
        raise ValueError(f"config: experiment {val!r} differs from the "
                         f"subcommand {cfg.experiment!r}")
    elif val is None and key in ("delta", "angles", "k"):
        setattr(cfg, key, None)
    else:
        setattr(cfg, key, _typed(key, val, _FIELD_TYPES[key]))


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's options, then the flags given."""
    cfg = ExperimentConfig(experiment=args.experiment)
    file_vals = {}
    if args.config:
        file_vals = json.loads(Path(args.config).read_text())
        if not isinstance(file_vals, dict):
            raise ValueError("config: the file must hold a JSON object")
    flag_vals = {key: val for key, val in vars(args).items()
                 if val is not None and key != "config"}
    for key, val in [*file_vals.items(), *flag_vals.items()]:
        _set(cfg, key, val)
    return cfg


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = config_from_args(build_parser().parse_args(argv))
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())

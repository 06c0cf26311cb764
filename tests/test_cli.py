"""End-to-end harness runs, validation exit codes, and output determinism."""

import contextlib
import csv
import io
import json
import math
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import favlab.cli
import favlab.projections
from favlab.cli import (_ANGLE_SQUARE_STEPS, _ANGLE_STEPS, EXPERIMENTS,
                        ExperimentConfig, _FIELD_TYPES, build_parser,
                        config_from_args, main, validate)
from favlab.geometry import Point2
from favlab.ifs import (WORK_BUDGET, generate_generation, preset,
                        resolve_ifs)
from favlab.visibility import radial_projection, visibility


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestValidation:
    def test_unknown_experiment(self):
        errs = validate(ExperimentConfig(experiment="no-such"))
        assert len(errs) == 1 and "unknown" in errs[0]

    def test_depth_over_budget(self, tmp_path, capsys):
        """4096 angles times 4^12 squares: refused by favard_lengths' own
        cap before any depth is merged."""
        rc = main(["favard-scaling", "--n", "12",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: Favard lengths to generation 12 needs {4096 * 4 ** 12} "
            f"angle-squares; cap is {WORK_BUDGET << 2}\n")

    def test_nonpositive_delta(self, tmp_path):
        rc = main(["vis-delta-sweep", "--n", "2", "--delta", "-0.5",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_bad_lambda(self, tmp_path):
        rc = main(["line-scan", "--n", "2", "--lambda", "2.0",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_bad_ifs_name(self, tmp_path):
        rc = main(["favard-scaling", "--n", "1", "--ifs", "nonesuch",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_reversed_range(self):
        cfg = ExperimentConfig(experiment="favard-scaling", n_lo=3, n_hi=1)
        assert any(e.startswith("n:") for e in validate(cfg))

    def test_unset_angles_valid(self):
        cfg = ExperimentConfig(experiment="box-dim-sweep")
        assert cfg.angles is None
        assert validate(cfg) == []

    @pytest.mark.parametrize("C", ["0", "-1"])
    def test_nonpositive_C(self, tmp_path, capsys, C):
        rc = main(["certify-set", "--n", "2", "--C", C,
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "C: must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


def _config_argv(tmp_path, blob, experiment="favard-scaling"):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(blob))
    return [experiment, "--n", "1", "--config", str(cfg_file),
            "--out", str(tmp_path / "o.csv")]


#: contraction ratios 1/2 and 1/4: the squares have no common side
UNEQUAL_IFS = {"maps": [{"lambda": 0.5, "z": [0.0, 0.0]},
                        {"lambda": 0.25, "z": [0.75, 0.75]}],
               "hull": {"corner": [0.0, 0.0], "side": 1.0}}


def _unequal_ifs(tmp_path, experiment="vis-delta-sweep"):
    path = tmp_path / "unequal.json"
    path.write_text(json.dumps(UNEQUAL_IFS))
    return [experiment, "--ifs", str(path), "--n", "3",
            "--out", str(tmp_path / "o.csv")]


#: malformed IFS descriptions, each a change of UNEQUAL_IFS
BAD_IFS = {
    "map-without-z": {**UNEQUAL_IFS, "maps": [{"lambda": 0.5},
                                              UNEQUAL_IFS["maps"][1]]},
    "maps-not-list": {**UNEQUAL_IFS, "maps": 3},
    "top-level-list": [UNEQUAL_IFS],
    "z-not-number": {**UNEQUAL_IFS, "maps": [
        {"lambda": 0.5, "z": [0.5, "a"]}, UNEQUAL_IFS["maps"][1]]},
    "z-three-numbers": {**UNEQUAL_IFS, "maps": [
        {"lambda": 0.5, "z": [0.5, 0.5, 3]}, UNEQUAL_IFS["maps"][1]]},
    "z-nan": {**UNEQUAL_IFS, "maps": [{"lambda": 0.5, "z": [math.nan, 0.5]},
                                      UNEQUAL_IFS["maps"][1]]},
}

#: two half-size copies in a hull of side 1e-9: every square falls in one
#: box-counting cell at every scale
TINY_HULL_IFS = {"maps": [{"lambda": 0.5, "z": [0.0, 0.0]},
                          {"lambda": 0.5, "z": [5e-10, 5e-10]}],
                 "hull": {"corner": [0.0, 0.0], "side": 1e-9}}


def _ifs_argv(tmp_path, blob, *argv):
    """argv at n = 2 on the IFS that the JSON blob describes."""
    path = tmp_path / "ifs.json"
    path.write_text(json.dumps(blob))
    return [*argv, "--ifs", str(path), "--n", "2",
            "--out", str(tmp_path / "o.csv")]


@pytest.mark.parametrize("argv", [
    lambda tmp: ["bridge", "--n", "2", "--vantage=5,0",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["generic-census", "--n", "2", "--k", "3",
                 "--samples", "100", "--out", str(tmp / "o.csv")],
    lambda tmp: _config_argv(tmp, {"angles": "many"}),
    lambda tmp: ["favard-scaling", "--n", "1", "--angles", "8",
                 "--out", str(tmp / "no-such-dir" / "o.csv")],
    lambda tmp: _config_argv(tmp, {"angle": 8, "n": 1}),
    lambda tmp: ["generic-census", "--n", "4", "--k", "2.7",
                 "--samples", "100", "--out", str(tmp / "o.csv")],
    _unequal_ifs,
    lambda tmp: _config_argv(tmp, [["angles", 8]]),
    lambda tmp: ["certify-set", "--n", "2", "--alpha", "nan",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["certify-set", "--n", "2", "--alpha", "-1",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["generic-census", "--n", "7", "--k", "2", "--samples", "0",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["generic-census", "--n", "7", "--k", "2", "--samples", "-3",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["certify-set", "--n", "2", "--C", "inf",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: _unequal_ifs(tmp, "energy"),
    lambda tmp: _config_argv(tmp, {"experiment": "energy"}),
    lambda tmp: ["visibility-point", "--n", "2", "--vantage=1",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["favard-scaling", "--n", "1..x", "--angles", "8",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["bridge", "--n", "2", "--vantage=-2,5",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["favard-scaling", "--angles", "many",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["no-such-experiment", "--out", str(tmp / "o.csv")],
    lambda tmp: ["favard-scaling", "--out", str(tmp / "o.csv"), "--n"],
    lambda tmp: ["vis-delta-sweep", "--n", "2", "--c", "inf",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["vis-delta-sweep", "--n", "2", "--delta", "1e-320",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["line-scan", "--n", "2", "--delta", "1e-320",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["bridge", "--n", "2", "--delta", "1e-320",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["vis-delta-sweep", "--n", "2", "--vantage=1e308,0",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["visibility-point", "--n", "2", "--vantage=a,b",
                 "--out", str(tmp / "o.csv")],
    *[lambda tmp, blob=blob: _ifs_argv(tmp, blob, "favard-scaling")
      for blob in BAD_IFS.values()],
    lambda tmp: _ifs_argv(tmp, TINY_HULL_IFS, "box-dim-sweep", "--angles",
                          "4"),
], ids=["bridge-domain", "census-L-over-N", "config-type", "unwritable-out",
        "config-unknown-key", "census-fractional-k", "unequal-ratios",
        "config-not-object", "alpha-nan", "alpha-negative", "samples-zero",
        "samples-negative", "C-inf", "energy-unequal-ratios",
        "config-experiment-mismatch", "vantage-one-number", "n-malformed",
        "bridge-vantage-off-axis", "flag-type", "unknown-experiment",
        "flag-without-value", "c-inf", "sweep-delta-subnormal",
        "scan-delta-subnormal", "bridge-delta-subnormal",
        "sweep-vantage-huge", "vantage-not-numbers",
        *[f"ifs-{key}" for key in BAD_IFS], "box-dim-tiny-hull"])
def test_input_errors_exit_2_without_traceback(tmp_path, capsys, argv):
    rc = main(argv(tmp_path))
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("experiment, blob, message", [
    ("line-scan", {"lambdas": 5}, "config: lambdas must be a list, got 5"),
    ("visibility-point", {"vantages": 3},
     "config: vantages must be a list, got 3"),
    ("visibility-point", {"vantages": [3]}, "vantage: expected X,Y, got 3"),
    ("favard-scaling", {"n": [1, 2]}, "n: expected N or LO..HI, got [1, 2]"),
    ("favard-scaling", {"n": 2.5}, "n: expected N or LO..HI, got 2.5"),
    ("favard-scaling", {"n": True}, "n: expected N or LO..HI, got True"),
    ("favard-scaling", {"n": "2.5"}, "n: expected N or LO..HI, got '2.5'"),
    ("visibility-point", {"vantages": ["a,b"]},
     "vantage: expected X,Y, got 'a,b'"),
])
def test_config_list_errors_name_the_key(tmp_path, capsys, experiment, blob,
                                         message):
    assert main(_config_argv(tmp_path, blob, experiment)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_degenerate_threshold_exits_2(tmp_path, capsys, monkeypatch):
    """A vanished Favard estimate leaves bad-angles no threshold: one error
    line and exit 2, not a traceback."""
    monkeypatch.setattr(favlab.projections, "favard_lengths",
                        lambda sys_, n, grid: ([0.0] * (n + 1), None))
    assert main(["bad-angles", "--n", "1", "--angles", "8",
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: Favard estimate is zero; threshold undefined\n")


def test_ifs_resolved_once_per_run(tmp_path, monkeypatch):
    resolved = []

    def counting(spec):
        resolved.append(spec)
        return resolve_ifs(spec)

    monkeypatch.setattr(favlab.cli, "resolve_ifs", counting)
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps(DIAGONAL_IFS))
    assert main(["favard-scaling", "--ifs", str(path), "--n", "1",
                 "--angles", "8", "--out", str(tmp_path / "o.csv")]) == 0
    assert resolved == [str(path)]


class TestAngles:
    def run_box_dim(self, tmp_path, extra):
        out = tmp_path / "box.csv"
        assert main(["box-dim-sweep", "--n", "1", *extra,
                     "--out", str(out)]) == 0
        blob = json.loads((tmp_path / "box.json").read_text())
        return len(read_csv(out)) - 1, blob["config"]["angles"]

    def test_explicit_4096_is_honoured(self, tmp_path):
        assert self.run_box_dim(tmp_path, ["--angles", "4096"]) == (4096, 4096)

    def test_default_is_resolved_and_echoed(self, tmp_path):
        assert self.run_box_dim(tmp_path, []) == (360, 360)

    def test_stacking_default(self, tmp_path):
        out = tmp_path / "st.csv"
        assert main(["stacking", "--n", "1", "--out", str(out)]) == 0
        blob = json.loads((tmp_path / "st.json").read_text())
        assert blob["config"]["angles"] == 16
        assert len(read_csv(out)) - 1 == 16

    def test_config_file_null_angles(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"angles": None, "n": 1}))
        out = tmp_path / "o.csv"
        assert main(["favard-scaling", "--config", str(cfg_file),
                     "--out", str(out)]) == 0
        blob = json.loads((tmp_path / "o.json").read_text())
        assert blob["config"]["angles"] == 4096


#: stage-2 four-corner square side, the default delta at --n 2
SIDE_2 = 4.0 ** -2

#: the defaults each experiment resolves at --n 2 and echoes in its sidecar
RESOLVED = {
    "favard-scaling": {"angles": 4096},
    "bad-angles": {"angles": 4096},
    "box-dim-sweep": {"angles": 360},
    "stacking": {"angles": 16, "k": 12.0},
    # ceil(log_4 2) = 1
    "generic-census": {"k": 1.0},
    "visibility-point": {"vantages": [[-1.0, -1.0]]},
    "vis-delta-sweep": {"delta": SIDE_2, "vantages": [[-1.0, -1.0]]},
    "line-scan": {"delta": SIDE_2,
                  "lambdas": [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]},
    "bridge": {"delta": SIDE_2,
               "vantages": [[-9.5 + i, 0.0] for i in range(10)]},
}


class TestResolvedDefaults:
    @pytest.mark.parametrize("experiment", sorted(RESOLVED))
    def test_sidecar_echoes_resolved_defaults(self, tmp_path, monkeypatch,
                                              experiment):
        built = []

        def counting(sys_, n):
            built.append(n)
            return generate_generation(sys_, n)

        monkeypatch.setattr(favlab.cli, "generate_generation", counting)
        out = tmp_path / "o.csv"
        assert main([experiment, "--n", "2", "--out", str(out)]) == 0
        cfg = json.loads((tmp_path / "o.json").read_text())["config"]
        want = RESOLVED[experiment]
        for key in ("angles", "delta", "vantages", "lambdas", "k"):
            unset = [] if key in ("vantages", "lambdas") else None
            assert cfg[key] == want.get(key, unset), key
        if "delta" in want:
            gen = generate_generation(preset("fourcorner"), 2)
            assert cfg["delta"] == gen.side == float(gen.sides[0])
            assert built == [2]     # delta came without a second build
        rows = read_csv(out)[1:]
        if "vantages" in want:
            assert [float(r[0]) for r in rows] == [
                x for x, _ in want["vantages"]]
        if "lambdas" in want:
            assert [float(r[0]) for r in rows] == want["lambdas"]


#: one small invocation of every experiment
REPLAYS = {
    "favard-scaling": ["--n", "1..3"],
    "visibility-point": ["--n", "3", "--vantage=-0.5,0.25"],
    "vis-delta-sweep": ["--n", "3", "--c", "3"],
    "line-scan": ["--n", "3"],
    "certify-set": ["--n", "2", "--seed", "4"],
    "energy": ["--n", "1..3"],
    "box-dim-sweep": ["--n", "3", "--angles", "12"],
    "stacking": ["--n", "3", "--k", "3"],
    "bad-angles": ["--n", "3", "--angles", "64"],
    "generic-census": ["--n", "3", "--k", "2"],
    "bridge": ["--n", "2", "--vantage=-3,0"],
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_sidecar_config_replays_the_run(tmp_path, experiment):
    """A sidecar's config fed back through --config repeats the run."""
    first = tmp_path / "first.csv"
    assert main([experiment, *REPLAYS[experiment], "--out", str(first)]) == 0
    cfg = json.loads((tmp_path / "first.json").read_text())["config"]
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    again = tmp_path / "again.csv"
    assert main([experiment, "--config", str(cfg_file),
                 "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    replayed = json.loads((tmp_path / "again.json").read_text())["config"]
    assert replayed == {**cfg, "out": str(again)}


class TestRuns:
    def test_favard_scaling_monotone_and_deterministic(self, tmp_path):
        out = tmp_path / "fav.csv"
        args = ["favard-scaling", "--n", "1..4", "--angles", "64",
                "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        rows = read_csv(out)
        assert rows[0] == ["n", "theta_count", "favard"]
        favs = [float(r[2]) for r in rows[1:]]
        assert len(favs) == 4
        assert all(a > b for a, b in zip(favs, favs[1:]))
        # reruns are byte-identical
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_visibility_point_sidecar(self, tmp_path):
        out = tmp_path / "vis.csv"
        rc = main(["visibility-point", "--n", "3", "--vantage=-1,-1",
                   "--out", str(out)])
        assert rc == 0
        blob = json.loads((tmp_path / "vis.json").read_text())
        assert blob["config"]["experiment"] == "visibility-point"
        assert 0 < blob["vis"][0] < 1
        assert blob["csv"] == str(out)
        assert "wall_time_s" in blob

    def test_visibility_point_sub_ulp_squares(self, tmp_path):
        """Squares of side 1e-18 seen from (-0.25, 0.5) have corner
        directions that round together, and hull widths an ulp below 0;
        the union drops them, and the run exits 0 with a visibility of 0."""
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({
            "maps": [{"lambda": 1e-9, "z": [0.0, 0.0]},
                     {"lambda": 1e-9, "z": [0.5, 0.5]}],
            "hull": {"corner": [0.0, 0.0], "side": 1.0}}))
        out = tmp_path / "vis.csv"
        assert main(["visibility-point", "--ifs", str(path), "--n", "2",
                     "--vantage=-0.25,0.5", "--out", str(out)]) == 0
        assert json.loads((tmp_path / "vis.json").read_text())["vis"] == [0.0]

    def test_certify_set_passes(self, tmp_path):
        out = tmp_path / "cert.csv"
        rc = main(["certify-set", "--n", "3", "--C", "256",
                   "--out", str(out)])
        assert rc == 0
        blob = json.loads((tmp_path / "cert.json").read_text())
        assert blob["passes"] is True
        assert blob["certificate"]["kappa_estimate"] >= 0.0
        rows = read_csv(out)
        assert rows[0] == ["check", "passed", "margin"]
        assert {r[0] for r in rows[1:]} >= {"separation", "cardinality",
                                            "ball", "line", "rectangle"}

    def test_energy_sidecar(self, tmp_path):
        out = tmp_path / "en.csv"
        assert main(["energy", "--n", "2..4", "--out", str(out)]) == 0
        blob = json.loads((tmp_path / "en.json").read_text())
        energy = blob["energy"]
        assert read_csv(out) == [["n", "energy"]] + [
            [n, repr(energy[n])] for n in ("2", "3", "4")]
        assert blob["increment"] == {
            n: energy[n] - energy[str(int(n) - 1)] for n in ("3", "4")}
        assert blob["atoms"] == {"2": 81, "3": 729, "4": 6561}

    def test_favard_scaling_sidecar_merged_counts(self, tmp_path):
        out = tmp_path / "fav.csv"
        assert main(["favard-scaling", "--n", "0..2", "--angles", "4",
                     "--out", str(out)]) == 0
        blob = json.loads((tmp_path / "fav.json").read_text())
        assert set(blob["merged"]) == {"0", "1", "2"}
        assert blob["merged"]["0"] == 1.0
        # more merged intervals per angle than at depth 0, fewer than 4^n
        assert 1.0 < blob["merged"]["1"] <= 4.0
        assert blob["merged"]["1"] < blob["merged"]["2"] <= 16.0

    def test_generic_census_default_subword_length(self, tmp_path):
        """Without --k, L is ceil(log_s N) (at least 1): 1 at N = 4."""
        out = tmp_path / "cen.csv"
        assert main(["generic-census", "--n", "4", "--out", str(out)]) == 0
        cfg = json.loads((tmp_path / "cen.json").read_text())["config"]
        assert cfg["k"] == 1.0
        assert read_csv(out)[1][:2] == ["4", "1"]

    def test_generic_census_row(self, tmp_path):
        out = tmp_path / "cen.csv"
        rc = main(["generic-census", "--n", "8", "--k", "1",
                   "--samples", "2000", "--seed", "5", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["N", "L", "samples", "nongeneric_fraction"]
        n, ell, samples, frac = rows[1]
        assert (int(n), int(ell), int(samples)) == (8, 1, 2000)
        assert 0.0 <= float(frac) <= 1.0

    def test_budget_exit_code(self, tmp_path, capsys):
        # line-scan checks the cap before it builds its chord samples; the
        # sweep's 104720 directions x (16 points + 500 + 44205-offset span
        # + 1 vantage) are 4.7e9 steps
        for argv in (["vis-delta-sweep", "--n", "2", "--delta", "3e-5"],
                     ["line-scan", "--n", "2", "--delta", "1e-300"]):
            assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: line family needs ")
            assert err.endswith(f"cap is {WORK_BUDGET}\n")

    def test_bridge_reaches_n5(self, tmp_path):
        # its family reaches the vantage at x = -9.5: 9.6e6 steps
        out = tmp_path / "bridge.csv"
        assert main(["bridge", "--n", "5", "--out", str(out)]) == 0
        assert len(read_csv(out)) == 11

    def test_bridge_reaches_n6(self, tmp_path):
        # the family reaches x = -9.5, but each count row spans only the
        # cloud: 12868 directions x (4096 points + 500 + 5802-offset span
        # + 10 vantages) are 1.3e8 steps
        out = tmp_path / "bridge.csv"
        assert main(["bridge", "--n", "6", "--out", str(out)]) == 0
        assert len(read_csv(out)) == 11

    def test_energy_capped_on_atoms(self, tmp_path, capsys):
        # 4^10 squares are within the generation cap; 9^10 atoms are
        # over the energy's
        assert main(["energy", "--n", "10",
                     "--out", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err == (
            f"error: energy of generation 10 needs {9 ** 10} atoms; "
            f"cap is {WORK_BUDGET}\n")

    def test_refused_allocation_exit_code(self, tmp_path, capsys,
                                          monkeypatch):
        # the angle cap refuses this run first; without the cap, numpy
        # refuses the 80 TB angle grid before allocating it, and the
        # MemoryError exits 3 like a cap
        monkeypatch.setattr(favlab.cli, "_check_angles", lambda cfg, gen: None)
        assert main(["stacking", "--n", "1", "--angles", "10000000000000",
                     "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("experiment", ["box-dim-sweep", "stacking"])
    def test_angle_loops_capped_before_the_grid(self, tmp_path, capsys,
                                                experiment):
        """2 * 10^5 angles at n = 1 (25-50 s) are refused by the angle cap
        before their 1.6 MB grid is allocated."""
        angles = 2 * 10 ** 5
        tracemalloc.start()
        try:
            rc = main([experiment, "--n", "1", "--angles", str(angles),
                       "--out", str(tmp_path / "o.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        steps = 4 * _ANGLE_SQUARE_STEPS[experiment] + _ANGLE_STEPS
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {experiment} over {angles} angles needs "
            f"{angles * steps} steps; cap is {WORK_BUDGET >> 3}\n")
        assert peak < 2 ** 20

    @pytest.mark.parametrize("experiment, n, angles", [
        ("box-dim-sweep", 6, 360), ("stacking", 4, 16)])
    def test_angle_cap_leaves_the_benchmark_runs(self, experiment, n,
                                                 angles):
        """The benchmark's box-dim-sweep and stacking runs take under a
        tenth of the angle cap."""
        steps = angles * (4 ** n * _ANGLE_SQUARE_STEPS[experiment]
                          + _ANGLE_STEPS)
        assert steps < (WORK_BUDGET >> 3) / 10

    def test_census_capped_on_letters(self, tmp_path, capsys):
        """The census checks its letters before it draws a word."""
        assert main(["generic-census", "--n", "8",
                     "--samples", "10000000000000",
                     "--out", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err == (
            f"error: subword census of length 8 needs {8 * 10 ** 13} "
            f"letters; cap is {WORK_BUDGET >> 5}\n")

    def test_favard_and_census_past_depth_10(self, tmp_path):
        """Neither builds the 4^11 squares, so neither is refused at n=11;
        the rows up to n=10 are those of a run that stops there."""
        deep, shallow = tmp_path / "deep.csv", tmp_path / "shallow.csv"
        assert main(["favard-scaling", "--n", "1..11", "--angles", "4",
                     "--out", str(deep)]) == 0
        assert main(["favard-scaling", "--n", "1..10", "--angles", "4",
                     "--out", str(shallow)]) == 0
        assert read_csv(deep)[:-1] == read_csv(shallow)
        assert read_csv(deep)[-1][:2] == ["11", "4"]
        assert main(["favard-scaling", "--n", "11", "--angles", "4",
                     "--out", str(deep)]) == 0
        assert main(["generic-census", "--n", "11", "--samples", "1000",
                     "--out", str(tmp_path / "cen.csv")]) == 0

    @pytest.mark.parametrize("experiment", [
        e for e in EXPERIMENTS
        if e not in ("favard-scaling", "visibility-point", "generic-census")])
    def test_generation_refused_past_4_to_10(self, tmp_path, capsys,
                                             experiment):
        """Every experiment that builds a generation is refused at n=11,
        the first depth past 4^10 squares, by the generation's cap; energy
        meets its deepest depth first, before it sums the others."""
        assert main([experiment, "--n", "1..11",
                     "--out", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err == (
            f"error: generation 11 needs {4 ** 11} nodes; "
            f"cap is {WORK_BUDGET >> 10}\n")

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_huge_depth_refused_in_constant_memory(self, tmp_path, capsys,
                                                   experiment):
        """At n = 10^8 each experiment meets its cap before anything grows
        with n: no depth list, no power of n digits, no list of n ratios."""
        tracemalloc.start()
        try:
            rc = main([experiment, "--n", "100000000",
                       "--out", str(tmp_path / "o.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert rc == 3
        assert re.fullmatch(r"error: .+ needs \d+ \S+; cap is \d+\n", err)
        assert peak < 2 ** 20

    def test_visibility_point_streams_past_the_node_budget(self, tmp_path):
        """n = 10 equals the whole generation's visibility bit for bit, and
        the sidecar's arcs are its arc counts; n = 11 builds no generation
        and runs under the visibility's own cap on squares."""
        out = tmp_path / "vis.csv"
        vantages = [(-0.25, 0.5), (-0.3182, 0.1279)]
        assert main(["visibility-point", "--n", "10", "--out", str(out)]
                    + [f"--vantage={x!r},{y!r}" for x, y in vantages]) == 0
        gen = generate_generation(preset("fourcorner"), 10)
        points = [Point2(x, y) for x, y in vantages]
        assert read_csv(out)[1:] == [
            [repr(a.x), repr(a.y), repr(visibility(gen, a))] for a in points]
        blob = json.loads((tmp_path / "vis.json").read_text())
        assert blob["arcs"] == [len(radial_projection(gen, a))
                                for a in points]
        assert main(["visibility-point", "--n", "11",
                     "--out", str(tmp_path / "deep.csv")]) == 0

    @pytest.mark.parametrize("n", [13, 100_000_000])
    def test_visibility_point_capped_on_squares(self, tmp_path, capsys, n):
        """The squares of every vantage are checked once, so the refusal is
        quick; past the cap's bit length the power is capped."""
        cap = WORK_BUDGET >> 5
        start = time.monotonic()
        assert main(["visibility-point", "--n", str(n),
                     "--out", str(tmp_path / "o.csv")]) == 3
        assert time.monotonic() - start < 1.0
        need = 4 ** min(n, cap.bit_length())
        assert capsys.readouterr().err == (
            f"error: visibility of generation {n} needs {need} squares; "
            f"cap is {cap}\n")

    def test_line_scan_runs(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["line-scan", "--n", "3", "--lambda", "0.5",
                   "--lambda", "0.25", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert [r[0] for r in rows[1:]] == ["0.5", "0.25"]
        lengths = [float(r[1]) for r in rows[1:]]
        assert lengths[0] >= lengths[1]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"n": "1..2", "angles": 32, "seed": 11}))
        out = tmp_path / "o.csv"
        rc = main(["favard-scaling", "--config", str(cfg_file),
                   "--n", "1..3", "--out", str(out)])
        assert rc == 0
        blob = json.loads((tmp_path / "o.json").read_text())
        assert blob["config"]["n_hi"] == 3      # flag beats file
        assert blob["config"]["angles"] == 32   # file fills the rest
        assert blob["config"]["seed"] == 11


class TestParser:
    def test_all_experiments_registered(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name, "--n", "2"])
            cfg = config_from_args(args)
            assert cfg.experiment == name
            assert (cfg.n_lo, cfg.n_hi) == (2, 2)

    def test_vantage_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["visibility-point", "--vantage=-1,0.5",
                                  "--vantage", "2,3"])
        cfg = config_from_args(args)
        assert cfg.vantages == [(-1.0, 0.5), (2.0, 3.0)]

    def test_range_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["energy", "--n", "2..5"])
        cfg = config_from_args(args)
        assert (cfg.n_lo, cfg.n_hi) == (2, 5)


#: two quarter-maps on the diagonal of the unit square: a cloud sparse
#: enough that line-scan finds low visibility
DIAGONAL_IFS = {"maps": [{"lambda": 0.25, "z": [0.0, 0.0]},
                         {"lambda": 0.25, "z": [0.75, 0.75]}],
                "hull": {"corner": [0.0, 0.0], "side": 1.0}}


class TestFrozenRows:
    """CSV rows frozen from earlier implementations: the line-family rows
    from the one-table-per-vantage engine, the stacking rows from the
    per-square, per-probe maximal function.  The current engines must
    reproduce them exactly."""

    def rows(self, tmp_path, argv, ifs=None):
        if ifs is not None:
            path = tmp_path / "ifs.json"
            path.write_text(json.dumps(ifs))
            argv = argv + ["--ifs", str(path)]
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == 0
        return read_csv(out)

    def test_line_scan(self, tmp_path):
        rows = self.rows(tmp_path, ["line-scan", "--n", "3"])
        assert rows[1:] == [[repr(2.0 ** -j), "0.0"] for j in range(1, 7)]
        rows = self.rows(tmp_path, ["line-scan", "--n", "3", "--c", "1",
                                    "--lambda", "1", "--lambda", "0.5",
                                    "--lambda", "0.25"], DIAGONAL_IFS)
        assert rows == [["lambda", "sublevel_length"], ["1.0", "3.1015625"],
                        ["0.5", "1.5234375"], ["0.25", "0.1328125"]]

    def test_bridge(self, tmp_path):
        rows = self.rows(tmp_path, ["bridge", "--n", "3"])
        assert rows[0] == ["x", "vis_delta", "projected_length",
                           "ratio_delta"]
        assert [r[:2] for r in rows[1:]] == [
            [repr(-9.5 + i), vd] for i, vd in enumerate(
                ["27", "30", "30", "37", "43", "52", "67", "95", "156",
                 "320"])]
        assert {r[2] for r in rows[1:]} == {"1141.2960965259465"}
        assert rows[1][3] == "0.00036964552957306025"
        assert rows[10][3] == "0.004380984054199233"
        rows = self.rows(tmp_path, ["bridge", "--n", "3", "--vantage=-2,0",
                                    "--vantage=-0.25,0"], DIAGONAL_IFS)
        assert rows[1:] == [
            ["-2.0", "71", "726.9168194346447", "0.0015261374758982877"],
            ["-0.25", "236", "726.9168194346447", "0.0050727949903098014"]]

    def test_stacking(self, tmp_path):
        thetas = ["0.39269908169872414", "1.1780972450961724",
                  "1.9634954084936207", "2.748893571891069"]
        supports = ["0.954663019992712", "0.9546630199927117",
                    "0.9546630199927173", "0.9546630199927174"]
        rows = self.rows(tmp_path, ["stacking", "--n", "5", "--angles", "4"])
        assert rows == [["n", "theta", "K", "stacked_fraction", "support"]] + [
            ["5", th, "12.0", "0.0", sup] for th, sup in zip(thetas, supports)]
        rows = self.rows(tmp_path, ["stacking", "--n", "5", "--angles", "4",
                                    "--k", "3"])
        assert rows[1:] == [["5", th, "3.0", "0.01953125", sup]
                            for th, sup in zip(thetas, supports)]

    def test_vis_delta_sweep(self, tmp_path):
        rows = self.rows(tmp_path, ["vis-delta-sweep", "--n", "3",
                                    "--vantage=-0.25,0.5", "--vantage=-1,-1",
                                    "--vantage=0.5,0.5"])
        assert rows == [["vantage_x", "vantage_y", "vis", "vis_delta"],
                        ["-0.25", "0.5", "0.2642883144842309", "537"],
                        ["-1.0", "-1.0", "0.08650983828818204", "177"],
                        ["0.5", "0.5", "0.378055013822414", "455"]]
        rows = self.rows(tmp_path, ["vis-delta-sweep", "--n", "3", "--c", "1",
                                    "--vantage=-2,0", "--vantage=-0.25,0.5"],
                         DIAGONAL_IFS)
        assert rows[1:] == [["-2.0", "0.0", "0.015925441954489177", "28"],
                            ["-0.25", "0.5", "0.052748930006093125", "85"]]


#: zero, negative, NaN, fractional and ordinary values for the numeric flags
ODD_NUMBERS = [0.0, -1.0, math.nan, 0.5, 2.7, 1.0, 3.0]


@st.composite
def small_argv(draw):
    """A small random invocation of any experiment."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    lo = draw(st.integers(0, 3))
    hi = draw(st.integers(lo, 3))
    argv = [experiment, "--n", f"{lo}..{hi}" if lo < hi else str(lo),
            "--samples", str(draw(st.integers(-2, 200))),
            "--seed", str(draw(st.integers(0, 5)))]
    if draw(st.booleans()):
        argv += ["--angles", str(draw(st.integers(-1, 64)))]
    for flag, extra in (("--c", [4.0, math.inf]),
                        ("--C", [256.0, math.inf]), ("--k", [12.0]),
                        ("--delta", [0.05, 1e-4]), ("--alpha", [])):
        if draw(st.booleans()):
            argv += [flag, repr(draw(st.sampled_from(ODD_NUMBERS + extra)))]
    for lam in draw(st.lists(st.sampled_from(ODD_NUMBERS + [0.25]),
                             max_size=3)):
        argv += ["--lambda", repr(lam)]
    for x, y in draw(st.lists(st.sampled_from(
            [(-1.0, -1.0), (0.5, 0.5), (-0.3, 0.0), (5.0, 0.0)]),
            max_size=2)):
        argv.append(f"--vantage={x!r},{y!r}")
    extra_keys = draw(st.dictionaries(
        st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
        .filter(lambda key: key not in _FIELD_TYPES and key not in
                ("n", "vantage", "vantages", "lambdas")),
        st.integers(0, 9), max_size=2))
    return argv, extra_keys


@settings(max_examples=40, deadline=None)
@given(case=small_argv())
def test_main_fuzz_keeps_exit_contract(tmp_path_factory, case):
    """Random small configurations exit 0, 2 or 3 with no traceback; a
    dimension alpha or a constant c or C that is not positive and finite,
    or a sample count below 1, exits 2."""
    argv, extra_keys = case
    tmp = tmp_path_factory.mktemp("fuzz")
    if extra_keys:
        cfg_file = tmp / "cfg.json"
        cfg_file.write_text(json.dumps(extra_keys))
        argv = argv + ["--config", str(cfg_file)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv + ["--out", str(tmp / "o.csv")])
    assert rc in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if extra_keys:
        assert rc == 2 and "config: unknown key" in err.getvalue()
    if "--alpha" in argv:
        alpha = float(argv[argv.index("--alpha") + 1])
        if not (math.isfinite(alpha) and alpha > 0):
            assert rc == 2
            assert extra_keys or "alpha: must be positive" in err.getvalue()
    if "--c" in argv:
        c = float(argv[argv.index("--c") + 1])
        if not (math.isfinite(c) and c > 0):
            assert rc == 2
            assert extra_keys or "c: must be positive" in err.getvalue()
    if "--C" in argv:
        C = float(argv[argv.index("--C") + 1])
        if not (math.isfinite(C) and C > 0):
            assert rc == 2
            assert extra_keys or "C: must be positive" in err.getvalue()
    if int(argv[argv.index("--samples") + 1]) < 1:
        assert rc == 2
        assert extra_keys or "samples: must be >= 1" in err.getvalue()

"""End-to-end harness runs, validation exit codes, and output determinism."""

import csv
import json

import pytest

from favlab.cli import (EXPERIMENTS, ExperimentConfig, build_parser,
                        config_from_args, main, validate)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestValidation:
    def test_unknown_experiment(self):
        errs = validate(ExperimentConfig(experiment="no-such"))
        assert len(errs) == 1 and "unknown" in errs[0]

    def test_depth_over_budget(self, tmp_path):
        rc = main(["favard-scaling", "--n", "12",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2

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


def _bad_config(tmp_path):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"angles": "many"}))
    return ["favard-scaling", "--n", "1", "--config", str(cfg_file),
            "--out", str(tmp_path / "o.csv")]


@pytest.mark.parametrize("argv", [
    lambda tmp: ["bridge", "--n", "2", "--vantage=5,0",
                 "--out", str(tmp / "o.csv")],
    lambda tmp: ["generic-census", "--n", "2", "--k", "3",
                 "--samples", "100", "--out", str(tmp / "o.csv")],
    _bad_config,
    lambda tmp: ["favard-scaling", "--n", "1", "--angles", "8",
                 "--out", str(tmp / "no-such-dir" / "o.csv")],
], ids=["bridge-domain", "census-L-over-N", "config-type", "unwritable-out"])
def test_input_errors_exit_2_without_traceback(tmp_path, capsys, argv):
    rc = main(argv(tmp_path))
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


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

    def test_budget_exit_code(self, tmp_path):
        rc = main(["vis-delta-sweep", "--n", "2", "--delta", "1e-4",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 3

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

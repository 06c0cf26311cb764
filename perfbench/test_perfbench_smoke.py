"""Smoke test of the benchmark: every workload at a toy size, untraced and
traced, must pass its output checks and emit every metric BENCHMARK.json
names, with its unit."""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = _run(ROOT, workload, trace)
            assert res.returncode == 0, res.stderr
            out[workload, trace] = json.loads(res.stdout.splitlines()[-1])
    return out


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted(results, workload, trace, section):
    res = results[workload, trace]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for name, m in res["metrics"].items():
        assert math.isfinite(m["value"]), name
        if section == "end_to_end":
            assert m["value"] > 0, name


def test_names_and_units_well_formed():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOADS
    assert len(set(names)) == len(names)
    assert all(name.fullmatch(n) for n in names)
    assert all(unit.fullmatch(m["unit"]) for m in metrics)


def test_traced_run_sees_every_layer(results):
    """Each layer module has a wrapped function that some workload calls."""
    called = {name.split(".")[0]
              for (_, trace), res in results.items() if trace
              for name, m in res["metrics"].items()
              if name.endswith(".calls") and m["value"] > 0}
    assert called == {"ifs", "geometry", "kernels", "projections",
                      "visibility", "set_analysis", "transforms", "cli"}


def test_refuses_without_program(tmp_path):
    """With only the benchmark's own files present it fails, printing no
    result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _run(tmp_path, WORKLOADS[0], 0)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


def test_tracer_refuses_what_it_cannot_measure():
    """A failed probe or a named function that is gone is an error, not a
    metric that reads 0."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tracer import Tracer, instrument_errors
    tracer = Tracer()
    names = [m["name"] for m in SPEC["per_layer"]]
    assert instrument_errors(tracer, names) == []
    assert instrument_errors(tracer, ["visibility.no_such_fn.calls"]) == [
        "visibility.no_such_fn: no such public function in favlab"]
    tracer.probe_errors["kernels.line_counts_table"] = "KeyError('n_dir')"
    assert len(instrument_errors(tracer, names)) == 1

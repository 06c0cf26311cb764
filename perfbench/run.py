"""favlab benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload projection --seed 1 --seconds 40 \
        --trace 0

Run from the root of a favlab checkout; the package is imported from its
`src/` directory.  One process, a closed loop with one client: the
workload's operations run one after another, pass after pass, until the
next pass would overrun `--seconds`.  Every output is checked after its
pass.  The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it records the
environment and the exact inputs of every operation.

With `--trace 0` the metrics are BENCHMARK.json's `end_to_end` ones: set-up
time (median of this process's and of fresh processes timed between
passes), the median wall time of a pass and the process's peak RSS.  With
`--trace 1` passes alternate between untraced and traced (see tracer.py)
and the metrics are the `per_layer` ones.  Details, including every span
of the traced passes, are written to `.bench_out/` under the checkout root.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: share of the run spent timing set-up in fresh processes; the samples
#: are spread over the run, so drift in host speed averages out
SETUP_SHARE = 0.12
#: traced passes cost more than untraced ones; used until one is measured
TRACE_COST_GUESS = 1.5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs each op at a toy size (smoke test)")
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up alone and print it")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    spec_file = ROOT / "BENCHMARK.json"
    if not (src / "favlab" / "cli.py").is_file() or not spec_file.is_file():
        print(f"error: run from a favlab checkout: need {src}/favlab and "
              f"{spec_file}", file=sys.stderr)
        return 2

    # set-up: what a user waits for before the first experiment can start
    t0 = time.perf_counter()
    sys.path[:0] = [str(src), str(HERE)]
    import favlab.cli
    import workloads
    try:
        ops = workloads.build(args.workload, args.seed, args.size)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_own = time.perf_counter() - t0
    if args.setup_only:
        print(repr(setup_own))
        return 0
    if Path(favlab.__file__).resolve().parent != (src / "favlab").resolve():
        print(f"error: imported favlab from {favlab.__file__}, not {src}",
              file=sys.stderr)
        return 2

    spec = json.loads(spec_file.read_text())
    out_dir = ROOT / ".bench_out"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        passes, tracer, child_setup = _measure(args, ops, tmp)
    finally:
        for f in tmp.iterdir():
            f.unlink()
        tmp.rmdir()

    setup = [setup_own] + child_setup
    attempted = sum(len(p["ops"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed = len({(f["pass"], f["op"]) for f in failures})
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        values = _layer_metrics(passes, tracer, ops)
        wanted = spec["per_layer"]
        from tracer import instrument_errors
        errors = instrument_errors(tracer, [m["name"] for m in wanted])
        if errors:
            print("error: the tracer no longer fits favlab; update "
                  "perfbench/tracer.py and BENCHMARK.json together:",
                  *errors, sep="\n  ", file=sys.stderr)
            return 1
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "peak_rss_mb": _peak_rss_mb(),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}

    env = _environment(args, ops)
    record = {"env": env, "setup_s": setup, "passes": passes,
              "metrics": metrics, "failures": failures}
    if tracer is not None:
        record["spans"] = tracer.spans
    (out_dir / f"{args.workload}-{args.size}-trace{args.trace}.json"
     ).write_text(json.dumps(record, separators=(",", ":")))

    _summary(args, ops, untraced, setup, metrics, failures,
             failed / attempted)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _child_setup(args) -> float:
    """Set-up time of a fresh process: interpreter start is excluded,
    importing numpy, scipy and favlab is not."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size, "--setup-only"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True, cwd=ROOT)
    return float(res.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _measure(args, ops, tmp: Path):
    """Passes until the next would overrun --seconds.  Untraced runs also
    time set-up in fresh processes between passes, keeping that time at
    SETUP_SHARE of the run.  Returns (passes, tracer, set-up samples)."""
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    share = 0.0 if args.trace else SETUP_SHARE
    passes: list[dict] = []
    setup: list[float] = []
    setup_wall = 0.0
    cost = {False: None, True: None}    # last pass duration, by traced-ness
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t_pass = time.perf_counter()
        passes.append(_one_pass(len(passes), ops, tmp, tracer if traced
                                else None))
        cost[traced] = time.perf_counter() - t_pass
        while setup_wall < share * (time.perf_counter() - start):
            t_child = time.perf_counter()
            setup.append(_child_setup(args))
            setup_wall += time.perf_counter() - t_child
        nxt = bool(args.trace) and len(passes) % 2 == 1
        estimate = (1 + share) * (cost[nxt]
                                  or cost[not nxt] * TRACE_COST_GUESS)
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start + estimate > args.seconds:
            return passes, tracer, setup


def _one_pass(index: int, ops, tmp: Path, tracer) -> dict:
    gc.collect()
    outputs = {}
    times = {}
    failures = []
    first_span = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        for op in ops:
            if tracer:
                tracer.begin_op()
            times[op.name], outputs[op.name] = _run_op(op, tmp)
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer:
            tracer.uninstall()
    rss_ops = _peak_rss_mb()
    for op in ops:
        errs = outputs[op.name].get("errors") or _check(op, outputs[op.name])
        failures += [{"pass": index, "op": op.name, "error": e}
                     for e in errs]
    # the checks must not set the peak that peak_rss_mb reports
    return {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": {"after_ops": rss_ops,
                            "after_checks": _peak_rss_mb()},
            "ops": times, "failures": failures,
            "spans": [first_span, len(tracer.spans) if tracer else 0]}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _check(op, out) -> list[str]:
    try:
        return op.check(out)
    except Exception:   # a malformed output must count as a failed op
        return ["output check raised:\n" + traceback.format_exc()]


def _run_op(op, tmp: Path):
    """Time one operation; return (seconds, output).  An op that raises or
    exits non-zero gets an `errors` entry in its output."""
    csv_path = tmp / f"{op.name}.csv"
    sidecar = csv_path.with_suffix(".json")
    for f in (csv_path, sidecar):
        f.unlink(missing_ok=True)
    import favlab.cli
    t0 = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            if op.argv is not None:
                rc = favlab.cli.main(op.argv + ["--out", str(csv_path)])
            else:
                result = op.call()
    except SystemExit as exc:
        return time.perf_counter() - t0, {"errors": [f"exited {exc.code}"]}
    except Exception:
        return time.perf_counter() - t0, {
            "errors": ["raised:\n" + traceback.format_exc()]}
    elapsed = time.perf_counter() - t0
    if op.argv is None:
        return elapsed, result
    if rc != 0:
        return elapsed, {"errors": [f"exit code {rc}"]}
    try:
        out = json.loads(sidecar.read_text())
        out["rows"] = _read_rows(csv_path)
    except (OSError, ValueError) as exc:
        return elapsed, {"errors": [f"unreadable output: {exc!r}"]}
    return elapsed, out


def _read_rows(path: Path) -> list[list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[_cell(v) for v in row] for row in rows]


def _cell(text: str):
    if text in ("True", "False"):
        return text == "True"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


# ---------------------------------------------------------------------------
# metrics and records
# ---------------------------------------------------------------------------

def _layer_metrics(passes, tracer, ops) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    selfs, calls = {}, {}
    for p in traced:
        s, c = tracer.self_times(*p["spans"])
        for label in s:
            selfs.setdefault(label, []).append(s[label])
            calls.setdefault(label, []).append(c[label])
    from tracer import derived_counts
    out = derived_counts(tracer.counts, len(traced))
    for label in selfs:
        out[f"{label}.self_s"] = statistics.median(selfs[label])
        out[f"{label}.calls"] = statistics.median(calls[label])
    for op in ops:
        out[f"cli.{op.name}.s"] = statistics.median(
            p["ops"][op.name] for p in untraced)
    # CPU time of an untraced pass, to set beside its wall time
    out["process.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
    out["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    return out


def _environment(args, ops) -> dict:
    import numpy
    import scipy
    # identifies the code also where there is no git repository
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src" / "favlab").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "git_revision": _git_revision(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": {op.name: op.argv if op.argv is not None else op.params
                for op in ops},
    }


def _git_revision() -> str | None:
    """HEAD's commit, or None outside a git repository."""
    try:
        res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                              "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _summary(args, ops, untraced, setup, metrics, failures, fail_frac):
    """Human-readable report on stderr, including the per-op medians and
    fail_frac, which are not among the reported metrics."""
    err = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(untraced)} untraced  setup samples "
          f"{', '.join(f'{s:.3f}' for s in setup)} s", file=err)
    for op in ops:
        times = [p["ops"][op.name] for p in untraced]
        print(f"  {op.name + '_s':22s} {statistics.median(times):10.4f} s  "
              f"(passes: {', '.join(f'{t:.3f}' for t in times)})", file=err)
    print(f"  {'fail_frac':22s} {fail_frac:10.4f}", file=err)
    for name, m in metrics.items():
        print(f"  {name:22s} {m['value']:10.4f} {m['unit']}", file=err)
    for f in failures[:10]:
        print(f"FAILED pass {f['pass']} {f['op']}: {f['error']}", file=err)


if __name__ == "__main__":
    sys.exit(main())

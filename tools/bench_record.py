"""Record the benchmark of one favlab checkout and compare it with the last
record.

    python3 tools/bench_record.py                     # this checkout
    python3 tools/bench_record.py --checkout ../old   # another checkout

Runs the command that BENCHMARK.json declares (`perfbench/run.py`) with
`--trace 0` once per seed (1, 2 and 3) for every workload, at the declared
run length, and writes `bench/BENCH_<short-rev>.json` next to this script's
checkout. A record holds the revision, the environment, k (the number of
seeds) and, per workload and end-to-end metric, the median, min and max of the k runs
and the runs themselves: the host's speed drifts between runs, so the
spread is part of the result.

It then prints the difference from the newest earlier record in `bench/`
and flags every metric that is worse than its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
SEEDS = (1, 2, 3)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--checkout", type=Path, default=ROOT,
                   help="favlab checkout to measure (default: this one)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    runs: dict[str, list[dict]] = {}
    env = None
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            print(f"{workload} seed {seed} ...", file=sys.stderr, flush=True)
            try:
                run_env, result = run_once(spec, checkout, workload, seed)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            env = env or run_env
            runs.setdefault(workload, []).append(result)
    record = make_record(env, spec, runs)
    BENCH_DIR.mkdir(exist_ok=True)
    path = BENCH_DIR / f"BENCH_{record['rev']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    earlier = newest_earlier(BENCH_DIR, record)
    if earlier is None:
        print("no earlier record to compare with")
        return 0
    old = json.loads(earlier.read_text())
    print(f"against {earlier.name} (rev {old['rev']}):")
    limits = {m["name"]: (m["bound"], m["better"])
              for m in spec["end_to_end"]}
    print(format_diff(diff_records(old, record, limits)))
    return 0


def run_once(spec: dict, checkout: Path, workload: str, seed: int):
    """One untraced benchmark run: (environment, last-line result)."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}:\n"
                           f"{res.stderr[-2000:]}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def make_record(env: dict, spec: dict, runs: dict) -> dict:
    """The BENCH record of k runs per workload."""
    rev = env.get("git_revision") or env["source_sha256"]
    workloads = {}
    for workload, results in runs.items():
        metrics = {}
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {"unit": m["unit"], **summarise(values)}
        workloads[workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
    keep = ("git_revision", "source_sha256", "python", "numpy", "scipy",
            "nproc", "numba_importable")
    return {
        "rev": rev[:7],
        "recorded": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "k": len(SEEDS),
        "seeds": list(SEEDS),
        "seconds": spec["run_seconds"],
        "env": {**{key: env.get(key) for key in keep},
                "machine": platform.machine(), "cpu": _cpu_model()},
        "workloads": workloads,
    }


def summarise(values) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "runs": list(values)}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def newest_earlier(bench_dir: Path, record: dict) -> Path | None:
    """The most recently recorded BENCH file of another revision that was
    recorded no later than `record`."""
    best, best_time = None, ""
    for path in bench_dir.glob("BENCH_*.json"):
        other = json.loads(path.read_text())
        if other["rev"] == record["rev"]:
            continue
        if best_time < other["recorded"] <= record["recorded"]:
            best, best_time = path, other["recorded"]
    return best


def diff_records(old: dict, new: dict, limits: dict) -> list[dict]:
    """One row per workload and metric present in both records and in
    `limits` (metric name -> (bound, better)); `worse` is set when the new
    median is worse than the old one by more than the metric's bound,
    `failed` when a new run failed an output check."""
    rows = []
    for workload, w_new in new["workloads"].items():
        w_old = old["workloads"].get(workload)
        if w_old is None:
            continue
        for name, m_new in w_new["metrics"].items():
            if name not in w_old["metrics"] or name not in limits:
                continue
            bound, better = limits[name]
            before, after = w_old["metrics"][name]["median"], m_new["median"]
            if better == "lower":
                worse = after > before * (1 + bound)
            else:
                worse = after < before * (1 - bound)
            rows.append({"workload": workload, "metric": name,
                         "old": before, "new": after,
                         "ratio": after / before if before else None,
                         "bound": bound, "worse": worse,
                         "failed": not w_new["correct"]})
    return rows


def format_diff(rows: list[dict]) -> str:
    lines = [f"  {'workload':11s} {'metric':12s} {'old':>10s} {'new':>10s} "
             f"{'new/old':>8s}"]
    for r in rows:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        flag = f"  WORSE than bound {r['bound']:g}" if r["worse"] else ""
        flag += "  CHECKS FAILED" if r["failed"] else ""
        lines.append(f"  {r['workload']:11s} {r['metric']:12s} "
                     f"{r['old']:10.4f} {r['new']:10.4f} {ratio:>8s}{flag}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())

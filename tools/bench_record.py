"""Record the benchmark of one favlab checkout and compare it with the last
record.

    python3 tools/bench_record.py                     # this checkout
    python3 tools/bench_record.py --checkout ../old   # another checkout
    python3 tools/bench_record.py --checkout ../parent --pairs 10 \
        --workload projection --seed 4                # paired gain check

Runs the command that BENCHMARK.json declares (`perfbench/run.py`) with
`--trace 0` once per seed (1, 2 and 3) for every workload, at the declared
run length, and writes `bench/BENCH_<short-rev>.json` next to this script's
checkout. A record holds the revision, the environment, k (the number of
seeds) and, per workload and end-to-end metric, the median, min and max of the k runs
and the runs themselves: the host's speed drifts between runs, so the
spread is part of the result.

It then prints the difference from the newest earlier record in `bench/`.
That record was taken at another time, so a metric is flagged WORSE only
when every new run is worse than every old run by more than its bound in
BENCHMARK.json, and UNRESOLVED when only the medians are; `--pairs`
settles either.

With `--pairs P` it instead compares the `--checkout` (the parent) with
this checkout (the head) on one workload and seed: P pairs of runs, the
parent first in even pairs and the head first in odd ones, so drift in
the host's speed hits both sides alike.  Per end-to-end metric it prints
each side's median and quartiles and the pairs each side won (ties count
for neither), and whether a gain claim holds: the head wins at least 9 in
10 pairs, and its median beats the parent's by more than the parent's
inter-quartile spread.  It also prints each side's median of the per-op
medians that perfbench/run.py leaves in `.bench_out/`.  The runs and
verdicts go to `bench/PAIRS_<head-rev>_<workload>.json`.
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
#: least share of the pairs the head must win for a gain claim
WIN_SHARE = 0.9
MIN_PAIRS = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--checkout", type=Path, default=ROOT,
                   help="favlab checkout to measure (default: this one); "
                        "with --pairs, the parent to compare this one with")
    p.add_argument("--pairs", type=int,
                   help=f"paired mode: number of parent/head pairs "
                        f"(>= {MIN_PAIRS})")
    p.add_argument("--workload", help="paired mode: the workload to run")
    p.add_argument("--seed", type=int, help="paired mode: the seed of "
                   "every run")
    args = p.parse_args(argv)
    if args.pairs is not None:
        if args.pairs < MIN_PAIRS:
            p.error(f"--pairs must be >= {MIN_PAIRS}")
        if args.workload is None or args.seed is None:
            p.error("--pairs needs --workload and --seed")
        if args.checkout.resolve() == ROOT:
            p.error("--pairs needs --checkout of another checkout")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = args.checkout.resolve()
    if args.pairs is not None:
        return main_pairs(checkout, args.workload, args.seed, args.pairs)
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


def main_pairs(parent: Path, workload: str, seed: int, pairs: int) -> int:
    """Paired mode: alternate parent and head runs, print and record the
    comparison of each end-to-end metric."""
    specs = {side: json.loads((path / "BENCHMARK.json").read_text())
             for side, path in (("parent", parent), ("head", ROOT))}
    checkouts = {"parent": parent, "head": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "head": []}
    op_runs: dict[str, list[dict]] = {"parent": [], "head": []}
    revs = {}
    for i in range(pairs):
        for side in (("parent", "head") if i % 2 == 0 else
                     ("head", "parent")):
            print(f"pair {i + 1}/{pairs}: {side} ...", file=sys.stderr,
                  flush=True)
            try:
                env, result = run_once(specs[side], checkouts[side],
                                       workload, seed)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            revs[side] = (env.get("git_revision")
                          or env["source_sha256"])[:7]
            runs[side].append(result)
            op_runs[side].append(op_medians(checkouts[side], workload))
    rows = []
    for m in specs["head"]["end_to_end"]:
        name = m["name"]
        rows.append({"metric": name, "better": m["better"], **pair_summary(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["head"]],
            m["better"])})
    ops = {op: {side: statistics.median(r[op] for r in op_runs[side])
                for side in op_runs}
           for op in op_runs["head"][0]}
    record = {
        "parent": revs["parent"], "head": revs["head"],
        "recorded": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "workload": workload, "seed": seed, "pairs": pairs,
        "seconds": specs["head"]["run_seconds"],
        "correct": {side: all(r["correct"] for r in results)
                    for side, results in runs.items()},
        "metrics": rows,
        "op_medians": ops,
    }
    BENCH_DIR.mkdir(exist_ok=True)
    path = BENCH_DIR / f"PAIRS_{revs['head']}_{workload}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{workload}, seed {seed}: parent {revs['parent']} against head "
          f"{revs['head']}, {pairs} pairs")
    print(format_pairs(rows))
    for op, sides in ops.items():
        print(f"  {op + '_s':22s} parent {sides['parent']:8.3f}  head "
              f"{sides['head']:8.3f}")
    if not all(record["correct"].values()):
        print(f"CHECKS FAILED: {record['correct']}")
    print(f"wrote {path}")
    return 0


def op_medians(checkout: Path, workload: str) -> dict:
    """Per op of the last untraced run, its median time over the passes."""
    record = json.loads((checkout / ".bench_out" /
                         f"{workload}-full-trace0.json").read_text())
    passes = [p["ops"] for p in record["passes"] if not p["traced"]]
    return {op: statistics.median(p[op] for p in passes) for op in passes[0]}


def pair_summary(parent: list, head: list, better: str) -> dict:
    """Both sides' quartiles, the pairs each side won, and whether a gain
    claim holds: the head wins at least WIN_SHARE of the pairs and its
    median beats the parent's by more than the parent's inter-quartile
    spread.  parent[i] and head[i] form pair i."""
    sign = 1.0 if better == "lower" else -1.0
    # gain > 0 where the head did better
    gains = [sign * (p - h) for p, h in zip(parent, head, strict=True)]
    p1, p2, p3 = statistics.quantiles(parent, n=4)
    h1, h2, h3 = statistics.quantiles(head, n=4)
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    median_gain = sign * (p2 - h2)
    return {
        "parent": {"q1": p1, "median": p2, "q3": p3, "runs": list(parent)},
        "head": {"q1": h1, "median": h2, "q3": h3, "runs": list(head)},
        "wins": wins, "losses": losses, "ties": len(gains) - wins - losses,
        "median_gain": median_gain, "parent_iqr": p3 - p1,
        "claim_holds": (wins >= WIN_SHARE * len(gains)
                        and median_gain > p3 - p1),
    }


def format_pairs(rows: list[dict]) -> str:
    lines = [f"  {'metric':12s} {'parent q1/med/q3':>28s} "
             f"{'head q1/med/q3':>28s} {'won':>4s} {'lost':>4s} "
             f"{'tied':>4s}  claim"]
    for r in rows:
        sides = [" ".join(f"{r[side][k]:8.3f}" for k in ("q1", "median", "q3"))
                 for side in ("parent", "head")]
        verdict = ("holds" if r["claim_holds"] else "does not hold")
        lines.append(f"  {r['metric']:12s} {sides[0]:>28s} {sides[1]:>28s} "
                     f"{r['wins']:4d} {r['losses']:4d} {r['ties']:4d}  "
                     f"{verdict} (median gain {r['median_gain']:.3f}, parent "
                     f"IQR {r['parent_iqr']:.3f})")
    return "\n".join(lines)


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
    `limits` (metric name -> (bound, better)).  The two records were taken
    at different times, and the host's speed drifts between them, so
    `worse` is set only when every new run is worse than every old run by
    more than the metric's bound, and `unresolved` when only the medians
    are; `failed` is set when a new run failed an output check."""
    rows = []
    for workload, w_new in new["workloads"].items():
        w_old = old["workloads"].get(workload)
        if w_old is None:
            continue
        for name, m_new in w_new["metrics"].items():
            if name not in w_old["metrics"] or name not in limits:
                continue
            bound, better = limits[name]
            m_old = w_old["metrics"][name]
            before, after = m_old["median"], m_new["median"]
            if better == "lower":
                worse = m_new["min"] > m_old["max"] * (1 + bound)
                medians = after > before * (1 + bound)
            else:
                worse = m_new["max"] < m_old["min"] * (1 - bound)
                medians = after < before * (1 - bound)
            rows.append({"workload": workload, "metric": name,
                         "old": before, "new": after,
                         "ratio": after / before if before else None,
                         "bound": bound, "worse": worse,
                         "unresolved": medians and not worse,
                         "failed": not w_new["correct"]})
    return rows


def format_diff(rows: list[dict]) -> str:
    lines = ["  unpaired records, medians shown; a gain or a regression is "
             "settled by --pairs",
             f"  {'workload':11s} {'metric':12s} {'old':>10s} {'new':>10s} "
             f"{'new/old':>8s}"]
    for r in rows:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        flag = f"  WORSE than bound {r['bound']:g}" if r["worse"] else ""
        flag += (f"  UNRESOLVED: median past bound {r['bound']:g}, runs "
                 f"overlap" if r["unresolved"] else "")
        flag += "  CHECKS FAILED" if r["failed"] else ""
        lines.append(f"  {r['workload']:11s} {r['metric']:12s} "
                     f"{r['old']:10.4f} {r['new']:10.4f} {ratio:>8s}{flag}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())

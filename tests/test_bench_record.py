"""The BENCH record diff of tools/bench_record.py, on hand-made records."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

LIMITS = {"wall_s": (0.25, "lower"), "setup_s": (0.25, "lower"),
          "peak_rss_mb": (0.1, "lower"), "rate": (0.1, "higher")}


def record(rev, recorded, correct=True, **medians):
    """A record with one workload whose metrics have the given medians."""
    return {"rev": rev, "recorded": recorded, "workloads": {"certify": {
        "correct": correct,
        "metrics": {name: {"unit": "x", **bench_record.summarise([v])}
                    for name, v in medians.items()}}}}


def test_summarise_keeps_spread():
    assert bench_record.summarise([3.0, 1.0, 2.0, 10.0]) == {
        "median": 2.5, "min": 1.0, "max": 10.0, "runs": [3.0, 1.0, 2.0, 10.0]}


def test_diff_flags_only_metrics_past_their_bound():
    old = record("aaaaaaa", "2026-01-01T00:00:00+00:00", wall_s=10.0,
                 setup_s=0.5, peak_rss_mb=1500.0, rate=100.0, extra=1.0)
    new = record("bbbbbbb", "2026-01-02T00:00:00+00:00", wall_s=12.6,
                 setup_s=0.6, peak_rss_mb=185.0, rate=89.0, extra=9.0)
    rows = {r["metric"]: r for r in bench_record.diff_records(old, new,
                                                              LIMITS)}
    assert set(rows) == {"wall_s", "setup_s", "peak_rss_mb", "rate"}
    assert rows["wall_s"]["worse"]              # 1.26 > 1.25
    assert not rows["setup_s"]["worse"]         # 1.2 <= 1.25
    assert not rows["peak_rss_mb"]["worse"]     # better
    assert rows["rate"]["worse"]                # higher is better: 0.89 < 0.9
    assert rows["wall_s"]["ratio"] == pytest.approx(1.26)
    assert not any(r["failed"] for r in rows.values())
    text = bench_record.format_diff(list(rows.values()))
    assert text.count("WORSE than bound") == 2
    assert "CHECKS FAILED" not in text


def test_diff_leaves_overlapping_runs_unresolved():
    """Three runs a side: medians 1.3 times apart over overlapping runs
    read as unresolved, and runs that all lie past the bound as worse."""
    def runs(rev, day, values):
        rec = record(rev, f"2026-01-0{day}T00:00:00+00:00")
        rec["workloads"]["certify"]["metrics"]["wall_s"] = {
            "unit": "s", **bench_record.summarise(values)}
        return rec

    old = runs("aaaaaaa", 1, [1.0, 1.1, 1.5])
    (row,) = bench_record.diff_records(
        old, runs("bbbbbbb", 2, [1.2, 1.43, 1.6]), LIMITS)
    assert row["ratio"] == pytest.approx(1.3)
    assert row["unresolved"] and not row["worse"]
    text = bench_record.format_diff([row])
    assert "UNRESOLVED" in text and "WORSE" not in text
    assert "unpaired" in text and "--pairs" in text
    (row,) = bench_record.diff_records(
        old, runs("ccccccc", 3, [1.9, 2.0, 2.1]), LIMITS)
    assert row["worse"] and not row["unresolved"]
    assert "UNRESOLVED" not in bench_record.format_diff([row])


def test_diff_reports_failed_checks():
    old = record("aaaaaaa", "2026-01-01T00:00:00+00:00", wall_s=10.0)
    new = record("bbbbbbb", "2026-01-02T00:00:00+00:00", correct=False,
                 wall_s=5.0)
    (row,) = bench_record.diff_records(old, new, LIMITS)
    assert not row["worse"] and row["failed"]
    assert "CHECKS FAILED" in bench_record.format_diff([row])


def test_diff_skips_workloads_missing_from_the_old_record():
    old = record("aaaaaaa", "2026-01-01T00:00:00+00:00", wall_s=1.0)
    new = record("bbbbbbb", "2026-01-02T00:00:00+00:00", wall_s=9.0)
    new["workloads"] = {"lines": new["workloads"]["certify"]}
    assert bench_record.diff_records(old, new, LIMITS) == []


def test_newest_earlier_record(tmp_path):
    for rev, day in (("aaaaaaa", 1), ("bbbbbbb", 3), ("ccccccc", 5)):
        (tmp_path / f"BENCH_{rev}.json").write_text(json.dumps(
            record(rev, f"2026-01-0{day}T00:00:00+00:00")))
    new = record("ddddddd", "2026-01-04T00:00:00+00:00")
    assert bench_record.newest_earlier(tmp_path, new).name == \
        "BENCH_bbbbbbb.json"
    # a re-recorded revision is not compared with itself
    again = record("bbbbbbb", "2026-01-06T00:00:00+00:00")
    assert bench_record.newest_earlier(tmp_path, again).name == \
        "BENCH_ccccccc.json"
    first = record("eeeeeee", "2025-12-31T00:00:00+00:00")
    assert bench_record.newest_earlier(tmp_path, first) is None


PARENT = [5.0, 5.2, 4.9, 5.1, 5.3, 5.0, 4.8, 5.2, 5.1, 5.0]


def test_pair_claim_holds_on_a_clear_gain():
    head = [3.2, 3.3, 3.1, 3.2, 3.4, 3.2, 3.1, 3.3, 3.2, 3.3]
    got = bench_record.pair_summary(PARENT, head, "lower")
    assert (got["wins"], got["losses"], got["ties"]) == (10, 0, 0)
    assert got["parent"]["median"] == 5.05
    assert got["head"]["median"] == 3.2
    assert got["median_gain"] == pytest.approx(1.85)
    assert got["parent_iqr"] == pytest.approx(5.2 - 4.975)
    assert got["claim_holds"]
    assert "holds" in bench_record.format_pairs([{"metric": "wall_s", **got}])


def test_pair_claim_needs_nine_wins_in_ten():
    # eight wins, a tie in pair 5 and a loss in pair 8: ties count for
    # neither side
    head = [3.0, 3.0, 3.0, 3.0, 3.0, 5.0, 3.0, 3.0, 5.4, 3.0]
    got = bench_record.pair_summary(PARENT, head, "lower")
    assert (got["wins"], got["losses"], got["ties"]) == (8, 1, 1)
    assert not got["claim_holds"]
    head[5] = 4.99                  # the tie becomes a win: 9 of 10
    assert bench_record.pair_summary(PARENT, head, "lower")["claim_holds"]


def test_pair_claim_needs_a_gap_above_the_parent_spread():
    """Ten wins by a hair are no gain: the median gap (0.01) is inside the
    parent's inter-quartile spread."""
    head = [p - 0.01 for p in PARENT]
    got = bench_record.pair_summary(PARENT, head, "lower")
    assert got["wins"] == 10
    assert got["median_gain"] < got["parent_iqr"]
    assert not got["claim_holds"]
    assert "does not hold" in bench_record.format_pairs(
        [{"metric": "wall_s", **got}])


def test_pair_claim_reads_the_better_direction():
    rate = [100.0 + i for i in range(10)]
    faster = [150.0 + i for i in range(10)]
    assert bench_record.pair_summary(rate, faster, "higher")["claim_holds"]
    assert not bench_record.pair_summary(rate, faster, "lower")["claim_holds"]
    assert bench_record.pair_summary(rate, faster, "lower")["losses"] == 10


def test_pairs_mode_refuses_too_few_pairs(capsys):
    with pytest.raises(SystemExit):
        bench_record.parse_args(["--checkout", "/elsewhere", "--pairs", "9",
                                 "--workload", "projection", "--seed", "4"])
    assert "--pairs must be >= 10" in capsys.readouterr().err


def test_op_medians_read_the_untraced_passes(tmp_path):
    (tmp_path / ".bench_out").mkdir()
    passes = [{"traced": False, "ops": {"a": 1.0, "b": 5.0}},
              {"traced": True, "ops": {"a": 9.0, "b": 9.0}},
              {"traced": False, "ops": {"a": 3.0, "b": 6.0}},
              {"traced": False, "ops": {"a": 2.0, "b": 4.0}}]
    (tmp_path / ".bench_out" / "lines-full-trace0.json").write_text(
        json.dumps({"passes": passes}))
    assert bench_record.op_medians(tmp_path, "lines") == {"a": 2.0, "b": 5.0}

"""tools/benchpair.py: its verdicts and its record, on fixed inputs, with no benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "benchpair.py"
_SPEC = importlib.util.spec_from_file_location("benchpair", _PATH)
benchpair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpair)

PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
METRICS = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]


def test_spread_is_the_inclusive_median_and_quartiles():
    assert benchpair.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [1.0, 2.0, 3.0, 4.0, 5.0]}


def test_wins_count_strictly_better_pairs_in_the_metrics_direction():
    parent, change = [10.0, 10.0, 10.0], [11.0, 10.0, 9.0]
    assert benchpair.change_wins(parent, change, "higher") == 1
    assert benchpair.change_wins(parent, change, "lower") == 1


def test_a_gain_in_every_pair_well_past_the_parents_spread_holds():
    result = benchpair.judge_claim(PARENT, [1.05 * p for p in PARENT], "higher")
    assert result["met"] and result["change_wins"] == 10
    assert result["ratio_interval"] == pytest.approx([1.05, 1.05])
    assert result["median_delta_pct"] == pytest.approx(5.0)
    assert result["median_gap"] > result["parent_iqr"]


def test_a_claim_lost_in_two_pairs_is_not_met():
    change = [1.05 * p for p in PARENT]
    change[3] = change[7] = 90.0
    result = benchpair.judge_claim(PARENT, change, "higher")
    assert result["change_wins"] == 8 and not result["met"]


def test_a_claim_inside_the_parents_spread_is_not_met():
    # Every pair wins by 0.1 %, but the medians differ by less than the
    # parent's interquartile range, and the ratio interval is far from it.
    result = benchpair.judge_claim(PARENT, [1.001 * p for p in PARENT], "higher")
    assert result["change_wins"] == 10 and result["ratio_interval"][0] > 1.0
    assert result["median_gap"] < result["parent_iqr"] and not result["met"]


def test_a_claim_whose_ratio_interval_reaches_one_is_not_met(monkeypatch):
    # With the share of wins relaxed to 6 in 10, 4 pairs that lose by 10 %
    # put the bootstrap interval's low end below 1, and that alone refuses
    # the claim: the parent has no spread for the gap to clear.
    parent, change = [100.0] * 10, [110.0] * 6 + [90.0] * 4
    assert benchpair.ratio_interval(parent, change) == (0.9, 1.1)
    monkeypatch.setattr(benchpair, "WIN_SHARE", 0.6)
    result = benchpair.judge_claim(parent, change, "higher")
    assert result["change_wins"] == 6 and result["median_gap"] > result["parent_iqr"] and not result["met"]


def test_a_lower_is_better_claim_holds_on_a_fall():
    parent = [p / 1000 for p in PARENT]
    assert benchpair.judge_claim(parent, [0.9 * p for p in parent], "lower")["met"]
    assert not benchpair.judge_claim(parent, [1.1 * p for p in parent], "lower")["met"]


@pytest.mark.parametrize("change, better, verdict", [
    ([0.8 * p for p in PARENT], "higher", "worse beyond bound"),
    ([0.95 * p for p in PARENT], "higher", "within bound"),
    ([1.2 * p for p in PARENT], "lower", "worse beyond bound"),
    ([1.1 * p for p in PARENT], "lower", "within bound"),
])
def test_a_median_is_judged_against_the_bound(change, better, verdict):
    assert benchpair.judge_bound(PARENT, change, better, 0.15) == verdict


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    assert benchpair.judge_bound(wide, wide, "higher", 0.15) == "unresolved"
    assert benchpair.judge_bound(PARENT, wide, "higher", 0.15) == "unresolved"
    # unless every run of the change is better than every run of the parent
    assert benchpair.judge_bound(wide, [3 * w for w in wide], "higher", 0.15) == "within bound"


def _runs(workloads, scale):
    return {w: {m["name"]: {"parent": list(PARENT), "change": [scale * p for p in PARENT]} for m in METRICS}
            for w in workloads}


def test_summarize_gives_every_metric_of_every_workload_a_verdict():
    block, claim_result = benchpair.summarize(_runs(["shots", "single"], 1.1), METRICS, ("shots", "items_per_s"))
    assert list(block) == ["shots", "single"]
    assert [list(by_metric) for by_metric in block.values()] == [[m["name"] for m in METRICS]] * 2
    assert block["shots"]["items_per_s"]["verdict"] == "claim holds" and claim_result["met"]
    assert block["single"]["items_per_s"]["verdict"] == "within bound"
    # A 10 % rise is past peak_rss_mb's bound of 0.05 of the median.
    assert block["single"]["peak_rss_mb"]["verdict"] == "worse beyond bound"
    assert benchpair.summarize(_runs(["shots"], 1.0), METRICS, None)[1] is None


def test_table_rows_are_median_quartiles_delta_wins_and_verdict():
    block, _ = benchpair.summarize(_runs(["shots"], 1.05), METRICS[:1], None)
    assert benchpair.table(block, 10).splitlines() == [
        "| workload | metric | parent | change | Δ median | wins | verdict |",
        "|---|---|---|---|---|---|---|",
        "| shots | items_per_s | 100.00 (99.25–100.75) | 105.00 (104.21–105.79) | +5.0 % | 10/10 | within bound |",
    ]


def test_pairs_run_on_consecutive_seeds():
    assert benchpair.parse_args(["--parent", "HEAD", "--seeds", "7", "--pairs", "3"]).seeds == [7, 8, 9]


@pytest.mark.parametrize("argv", [
    ["--workloads", "shots,nope"],
    ["--seeds", "1,2"],
    ["--pairs", "1"],
    ["--claim", "items_per_s"],
    ["--workloads", "single", "--claim", "shots:items_per_s"],
])
def test_bad_arguments_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exit_:
        benchpair.parse_args(["--parent", "HEAD", "--seeds", "1", *argv])
    assert exit_.value.code == 2


def test_main_alternates_the_first_side_by_seed_parity_and_writes_the_record(monkeypatch, tmp_path, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        value = 105.0 if checkout.name == "change" else 100.0
        return {"failed": 0, "metrics": {m["name"]: {"value": value + seed % 2} for m in METRICS}}

    monkeypatch.setattr(benchpair, "checkouts", lambda parent, into: {s: into / s for s in benchpair.SIDES})
    monkeypatch.setattr(benchpair, "run_once", fake_run)
    monkeypatch.setattr(benchpair, "machine", lambda: {"cores": 2})
    monkeypatch.setattr(benchpair, "short_commit", lambda rev: "abc1234")
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD", "--pairs", "2", "--seeds", "7", "--workloads", "shots",
            "--seconds", "1", "--claim", "shots:items_per_s", "--change", "a test", "--out", str(out)]
    assert benchpair.main(argv) == 0
    assert calls == [("parent", "shots", 7), ("change", "shots", 7), ("change", "shots", 8), ("parent", "shots", 8)]
    record = json.loads(out.read_text())
    assert list(record) == ["change", "claim", "method", "machine", "workloads", "claim_result"]
    assert record["claim"] == {"workload": "shots", "metric": "items_per_s", "direction": "higher"}
    assert record["method"]["seeds"] == [7, 8] and record["method"]["failed_operations"] == {"parent": 0, "change": 0}
    assert record["workloads"]["shots"]["items_per_s"]["change"]["runs"] == [106.0, 105.0]
    assert "| shots | items_per_s |" in capsys.readouterr().out

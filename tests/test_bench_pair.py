"""tools/bench_pair.py: statistics and verdicts from recorded benchmark JSON lines."""

import json

import pytest

from helpers import ROOT, load_script

bench_pair = load_script(ROOT / "tools" / "bench_pair.py")
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _run(units_per_s, peak_rss_mib=30.0, attempted=12, **others):
    """One run's JSON lines as perfbench/run.py prints them: provenance, then the result."""
    values = {"setup_s": 0.09, "units_per_s": units_per_s, "cmd_s.p50": 0.2, "cmd_s.tail": 0.2,
              "cmd_cpu_s.p50": 0.2, "peak_rss_mib": peak_rss_mib, "ok_ratio": 1.0, **others}
    units = {"setup_s": "s", "units_per_s": "1/s", "peak_rss_mib": "MiB", "ok_ratio": "ratio"}
    result = {"correct": True, "attempted": attempted, "failed": 0,
              "metrics": {k: {"value": v, "unit": units.get(k, "s")} for k, v in values.items()}}
    return [json.dumps({"workload": "long-word", "provenance": {"seed": 0}}), json.dumps(result)]


def test_quartiles_inclusive():
    assert bench_pair.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pair.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_gain_in_nine_of_ten_pairs_is_better():
    parent = [_run(40.0 + 0.1 * i) for i in range(10)]
    change = [_run(48.0 + 0.1 * i) for i in range(9)] + [_run(39.0)]
    m = bench_pair.summarize(parent, change, END_TO_END)["units_per_s"]
    assert m["wins"] == 9 and m["pairs"] == 10
    assert m["parent"]["median"] == pytest.approx(40.45)
    assert m["ratio"] == pytest.approx(m["change"]["median"] / m["parent"]["median"])
    assert m["verdict"] == "better"
    # equal runs tie: no pair is won, and nothing moved
    assert bench_pair.summarize(parent, change, END_TO_END)["ok_ratio"]["verdict"] == "same"


def test_fewer_than_ten_pairs_claim_no_gain():
    m = bench_pair.summarize([_run(40.0)] * 9, [_run(60.0)] * 9, END_TO_END)["units_per_s"]
    assert m["wins"] == 9 and m["verdict"] == "same"


def test_a_lower_is_better_metric_past_its_bound_is_worse():
    parent = [_run(40.0, peak_rss_mib=30.0 + 0.01 * i) for i in range(10)]
    change = [_run(40.0, peak_rss_mib=33.5) for _ in range(10)]
    m = bench_pair.summarize(parent, change, END_TO_END)["peak_rss_mib"]
    assert m["bound"] == 0.1 and m["wins"] == 0
    assert m["verdict"] == "worse"


def test_a_parent_spread_over_the_bound_is_unresolved():
    # peak_rss_mib's bound is 10%: quartiles 25 and 35 around a median of 30 spread 33%
    parent = [_run(40.0, peak_rss_mib=v) for v in (20, 25, 25, 30, 30, 35, 35, 40)]
    change = [_run(40.0, peak_rss_mib=20.0) for _ in range(8)]
    m = bench_pair.summarize(parent, change, END_TO_END)["peak_rss_mib"]
    assert (m["parent"]["q1"], m["parent"]["q3"]) == (25.0, 35.0)
    assert m["verdict"] == "unresolved"


def test_unequal_sides_are_refused():
    with pytest.raises(ValueError, match="same positive number"):
        bench_pair.summarize([_run(40.0)], [], END_TO_END)


def test_only_a_named_workload_is_run(monkeypatch, capsys):
    # run.py's ``all`` keys its metrics by workload, which the summary cannot read; it is
    # refused before any worktree or run is made, so no run is lost
    def refuse(*args):
        raise AssertionError("nothing may run before the workload is checked")

    monkeypatch.setattr(bench_pair, "git", refuse)
    monkeypatch.setattr(bench_pair, "run_side", refuse)
    for workload in ("all", "no-such-workload"):
        with pytest.raises(SystemExit) as exc:
            bench_pair.main(["--workload", workload])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_the_commands_per_run_are_printed_and_stored(monkeypatch, tmp_path, capsys):
    # dense-grid's peak RSS is the driver's, which grows with the commands a run completes
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    attempted = {"parent": iter([54, 50, 52]), "change": iter([60, 62, 58])}

    def run_side(root, workload):
        return _run(40.0, attempted=next(attempted["change" if root == tmp_path else "parent"]))

    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair, "git", lambda *args: "")
    monkeypatch.setattr(bench_pair, "run_side", run_side)
    assert bench_pair.main(["--workload", "dense-grid", "--pairs", "3"]) == 0
    stored = json.loads((tmp_path / "BENCH_dense-grid.json").read_text())
    assert stored["commands"] == {"parent": {"median": 52, "runs": [54, 50, 52]},
                                  "change": {"median": 60, "runs": [60, 62, 58]}}
    (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("peak_rss_mib")]
    assert line.endswith("  commands parent 52  change 60")

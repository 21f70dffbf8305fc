import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "p1_samples_per_s", "unit": "samples/s", "better": "higher", "bound": 0.2},
    {"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.2},
]


def result(rate, seconds, correct=True):
    return {
        "correct": correct,
        "metrics": {
            "w.p1_samples_per_s": {"value": rate, "unit": "samples/s"},
            "w.pipeline_s": {"value": seconds, "unit": "s"},
        },
    }


def test_parse_seeds():
    assert bench_pairs.parse_seeds("601-603,610") == [601, 602, 603, 610]


def test_paired_summary_and_claim():
    parent = [result(100.0 + k, 2.0) for k in range(10)]
    change = [result(150.0 + k, 2.0 + 0.01 * k) for k in range(10)]
    change[3] = result(90.0, 2.0)  # one lost pair still meets the claim rule
    summary = bench_pairs.summarize(
        {"parent": parent, "change": change}, METRICS, "w.p1_samples_per_s"
    )
    rate = summary["end_to_end"]["w.p1_samples_per_s"]
    assert rate["change_wins"] == 9 and rate["ties"] == 0
    assert rate["parent_q1_median_q3"] == [102.25, 104.5, 106.75]
    assert rate["within_bound"]
    assert summary["claim"]["result"] == {
        "change_wins": 9, "median_gain": 50.0, "parent_iqr": 4.5, "met": True,
    }
    seconds = summary["end_to_end"]["w.pipeline_s"]
    assert seconds["change_wins"] == 0 and seconds["ties"] == 2
    assert seconds["within_bound"]
    assert summary["all_runs_correct"]["change"] == [True] * 10
    json.loads(bench_pairs.dumps(summary))


@pytest.mark.parametrize(
    "better, change, within",
    [("higher", 80.0, True), ("higher", 79.0, False), ("lower", 120.0, True), ("lower", 121.0, False)],
)
def test_bound_is_relative_to_the_parent_median(better, change, within):
    assert bench_pairs.compare([100.0] * 4, [change] * 4, better, 0.2)["within_bound"] is within


@pytest.mark.parametrize(
    "better, parent, change, unresolved",
    [
        # Parent IQR/median 0.6 > bound 0.2, and the runs overlap.
        ("higher", [50.0, 100.0, 150.0, 200.0], [60.0, 110.0, 160.0, 210.0], True),
        # Same spread, but every change run beats every parent run.
        ("higher", [50.0, 100.0, 150.0, 200.0], [201.0, 202.0, 203.0, 204.0], False),
        ("lower", [50.0, 100.0, 150.0, 200.0], [40.0, 45.0, 46.0, 49.0], False),
        ("lower", [50.0, 100.0, 150.0, 200.0], [40.0, 45.0, 46.0, 50.0], True),
        # Parent IQR/median 0.025 is inside the bound: resolved either way.
        ("higher", [98.0, 99.0, 101.0, 102.0], [60.0, 70.0, 130.0, 140.0], False),
    ],
)
def test_spread_wider_than_the_bound_is_unresolved(better, parent, change, unresolved):
    assert bench_pairs.compare(parent, change, better, 0.2)["unresolved"] is unresolved


def test_claim_needs_a_gain_above_the_parent_iqr():
    parent = [100.0, 110.0, 120.0, 130.0, 140.0]
    change = [p + 5.0 for p in parent]
    claim = bench_pairs.claim_result(parent, change, "higher")
    assert claim["change_wins"] == 5 and not claim["met"]


def finished(returncode, stdout, stderr=""):
    return bench_pairs.subprocess.CompletedProcess([], returncode, stdout, stderr)


def test_a_run_that_failed_a_check_is_kept():
    line = json.dumps({"correct": False, "metrics": {}})
    assert bench_pairs.parse_result(finished(1, f"# summary\n{line}\n"), "run") == {
        "correct": False, "metrics": {},
    }


@pytest.mark.parametrize(
    "returncode, stdout",
    [(1, "# quickstart: 12 runs\n"), (1, ""), (2, '{"correct": true}\n')],
)
def test_a_crash_raises_with_its_stderr(returncode, stdout):
    proc = finished(returncode, stdout, "Traceback ...\nValueError: boom\n")
    with pytest.raises(RuntimeError, match=rf"exited {returncode}\n(?s:.*)ValueError: boom"):
        bench_pairs.parse_result(proc, "run")


def test_claim_is_checked_before_any_run(monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a run started before the claim was checked")

    monkeypatch.setattr(bench_pairs, "export_tree", no_run)
    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    typo = "cifar_search.guided_train_sample_per_s"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--label", "x", "--seeds", "1-10", "--claim", typo])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert repr(typo) in err and "cifar_search.guided_train_samples_per_s" in err


def test_claimable_names_every_workload_metric():
    benchmark = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    names = bench_pairs.claimable(benchmark)
    assert len(names) == len(benchmark["workloads"]) * len(benchmark["end_to_end"])
    assert "cifar_search.guided_train_samples_per_s" in names
    assert "quickstart.pipeline_s" in names


def write_summary(tree, workload, seed, wall, probes):
    """A synthetic ``perfbench/run.py`` summary; ``probes`` is one
    ``(count, mean_s, problems)`` per run."""
    raw = [{"problems": problems, "probe": {"count": count, "mean_s": mean_s, "share": 0.03}}
           for count, mean_s, problems in probes]
    work = tree / ".perfbench_work"
    work.mkdir(exist_ok=True)
    path = work / f"{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps({"workload": workload, "wall": wall, "raw": raw}))


def test_as_measured_reads_each_wall_block_and_the_probe_median(tmp_path):
    wall = {"pipeline_s": 0.25, "setup_s": 0.1, "p1_s": 0.1, "p2_s": 0.02, "p34_s": 0.13,
            "probe_share": 0.03}
    # A failed run and a run the probe never reached do not count.
    write_summary(tmp_path, "a", 5, wall, [(3, 5e-4, []), (4, 7e-4, []), (2, 6e-4, []),
                                           (3, 9e-3, ["artifacts differ"]), (0, 0.0, [])])
    write_summary(tmp_path, "b", 5, {**wall, "p1_s": 0.3}, [(0, 0.0, [])])
    values = bench_pairs.as_measured(tmp_path, 5, ["a", "b"])
    assert {k: v for k, v in values.items() if k.startswith("a.wall.")} == {
        f"a.wall.{k}": v for k, v in wall.items()
    }
    assert values["b.wall.p1_s"] == 0.3
    assert values["a.probe.mean_s"] == 6e-4
    assert values["b.probe.mean_s"] is None


def measured(seconds, probe_s):
    """A result whose only as-measured window is ``p1_s``, on workloads w and v."""
    return {
        "correct": True,
        "metrics": {"w.pipeline_s": {"value": 1.0, "unit": "s"}},
        "as_measured": {"w.wall.p1_s": seconds, "w.wall.probe_share": 0.03,
                        "w.probe.mean_s": probe_s, "v.probe.mean_s": 1e-3},
    }


def test_as_measured_windows_take_their_metric_bound_and_skewed_probes_are_flagged():
    metrics = METRICS + [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    # The parent's probe on w spreads: IQR over median 0.1.
    parent = [measured(0.10, probe_s) for probe_s in [4.5e-4, 4.75e-4, 5e-4, 5.25e-4, 5.5e-4] * 2]
    change = [measured(0.121, 5.6e-4) for _ in range(10)]
    summary = bench_pairs.summarize({"parent": parent, "change": change}, metrics, None)
    window = summary["as_measured"]["w.wall.p1_s"]
    # p1_s takes p1_samples_per_s's 0.2 bound: +21% is outside it.
    assert window["bound"] == 0.2 and not window["within_bound"]
    assert window["change_wins"] == 0 and window["median_change"] == 0.21
    assert list(summary["as_measured"]) == ["w.wall.p1_s"]
    # +12% exceeds that spread; v's probe did not move, and does not spread.
    assert summary["probe"]["w"] == {"parent_median_s": 5e-4, "change_median_s": 5.6e-4,
                                     "median_change": 0.12, "parent_iqr_over_median": 0.1,
                                     "probe_skewed": True}
    assert summary["probe"]["v"]["probe_skewed"] is False
    # +6% lies within it: noise, not a skew.
    change = [measured(0.09, 5.3e-4) for _ in range(10)]
    summary = bench_pairs.summarize({"parent": parent, "change": change}, metrics, None)
    assert summary["as_measured"]["w.wall.p1_s"]["within_bound"]
    assert summary["probe"]["w"]["median_change"] == 0.06
    assert summary["probe"]["w"]["probe_skewed"] is False
    # A probe the parent reached once has no spread: any difference is flagged.
    parent = [measured(0.10, 5e-4)] + [measured(0.10, None) for _ in range(9)]
    summary = bench_pairs.summarize({"parent": parent, "change": change}, metrics, None)
    assert summary["probe"]["w"]["parent_iqr_over_median"] == 0.0
    assert summary["probe"]["w"]["probe_skewed"] is True
    json.loads(bench_pairs.dumps(summary))


def test_anchor_ratios_divide_each_side_median_by_the_anchor_median():
    results = {
        "anchor": [measured(0.20, 5e-4), measured(0.40, 5e-4), measured(0.30, 5e-4)],
        "parent": [measured(0.15, 5e-4), measured(0.45, 5e-4), measured(0.33, 5e-4)],
        "change": [measured(0.24, 5e-4), measured(0.27, 5e-4), measured(0.90, 5e-4)],
    }
    results["parent"][0]["metrics"]["w.pipeline_s"]["value"] = 3.0
    results["change"][2]["metrics"]["w.pipeline_s"]["value"] = 0.5
    ratios = bench_pairs.median_ratios(results)
    # Only end-to-end metrics and timed windows: no probe_share, no probe.
    assert list(ratios) == ["w.pipeline_s", "w.wall.p1_s"]
    assert ratios["w.pipeline_s"] == {"anchor_median": 1.0, "parent_over_anchor": 1.0,
                                      "change_over_anchor": 1.0}
    assert ratios["w.wall.p1_s"] == {"anchor_median": 0.3, "parent_over_anchor": 1.1,
                                     "change_over_anchor": 0.9}


def test_anchor_runs_as_a_third_side_in_alternating_order(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    calls, exported = [], {}

    def export_tree(sha, dest, name):
        exported[name] = sha
        return tmp_path / name

    def run_bench(tree, seed, workloads):
        calls.append((tree.name, seed))
        return measured({"anchor": 0.2, "parent": 0.1}.get(tree.name, 0.05), 5e-4)

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "export_tree", export_tree)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "environment", lambda tree, seed: {})
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda cmd, **kw: finished(0, f"sha-{cmd[-1]}\n"))
    bench_pairs.main(["--label", "x", "--seeds", "1-2", "--anchor", "7d747bf"])
    assert exported == {"anchor": "sha-7d747bf", "parent": "sha-HEAD"}
    change = tmp_path.name
    assert calls == [("anchor", 1), ("parent", 1), (change, 1),
                     (change, 2), ("parent", 2), ("anchor", 2)]
    report = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert report["anchor"] == "sha-7d747bf" and report["parent"] == "sha-HEAD"
    assert report["anchor_ratios"]["w.wall.p1_s"] == {
        "anchor_median": 0.2, "parent_over_anchor": 0.5, "change_over_anchor": 0.25,
    }
    assert report["all_runs_correct"] == {side: [True, True]
                                          for side in ("anchor", "parent", "change")}

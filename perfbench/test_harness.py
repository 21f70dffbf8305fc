"""Fast tests of the benchmark harness itself (not of patchmix)."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import signal

import spans
import speed
import workload

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_merged_clipped_children():
    #   root [0, 10]
    #     a [1, 4]         b [3, 6]  (overlaps a)      c [9, 12]  (reaches past root)
    #       a1 [2, 3]
    starts = [0.0, 1.0, 2.0, 3.0, 9.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    selfs = spans.self_times(starts, ends, parents)
    # root: children cover [1, 6] and [9, 10] -> 6 of 10 s
    assert selfs == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])
    assert min(selfs) >= 0.0


def test_span_errors_flag_a_child_outside_its_parent():
    names = ["root", "inside", "outside", "backwards"]
    starts = [0.0, 1.0, 9.0, 5.0]
    ends = [10.0, 2.0, 12.0, 4.0]
    errors = spans.span_errors(names, starts, ends, [-1, 0, 0, 0])
    assert len(errors) == 2
    assert "outside" in errors[0] and "backwards" in errors[1]
    assert spans.span_errors(names[:2], starts[:2], ends[:2], [-1, 0]) == []


def test_phase_of_uses_half_open_intervals():
    bounds = [0.0, 1.0, 2.0, 3.0, 4.0]
    assert [spans.phase_of(t, bounds) for t in (0.0, 0.5, 1.0, 3.9, 4.0, -1.0)] == [
        1, 1, 2, 4, 0, 0,
    ]


def _fake_package(root: Path, name: str) -> None:
    pkg = root / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import leaf\n")
    (pkg / "a.py").write_text(
        "def leaf(x):\n    return x + 1\n\n"
        "def _private():\n    return 0\n\n"
        "def gen():\n    yield 1\n"
    )
    (pkg / "b.py").write_text(
        "from .a import leaf\n\n"
        "def caller(x):\n    return leaf(x) * 2\n"
    )


def test_install_reaches_from_imported_aliases(tmp_path, monkeypatch):
    name = f"fakepkg_{time.monotonic_ns()}"
    _fake_package(tmp_path, name)
    monkeypatch.syspath_prepend(str(tmp_path))
    pkg = __import__(name)
    a = __import__(f"{name}.a", fromlist=["x"])
    b = __import__(f"{name}.b", fromlist=["x"])
    original = a.leaf

    assert set(spans.public_functions(a)) == {"leaf"}  # no private, no generator
    assert set(spans.public_functions(b)) == {"caller"}  # not the imported alias

    tracer = spans.Tracer()
    targets = {"a.leaf": a.leaf, "b.caller": b.caller}
    uninstall = spans.install(targets, name, tracer.wrap)
    try:
        assert b.caller(1) == 4
        assert pkg.leaf(5) == 6
        assert tracer.names == ["b.caller", "a.leaf", "a.leaf"]
        assert tracer.parents == [-1, 0, -1]
        assert spans.span_errors(tracer.names, tracer.starts, tracer.ends, tracer.parents) == []
    finally:
        uninstall()
    assert a.leaf is original and b.leaf is original and pkg.leaf is original


def test_install_rejects_a_target_nothing_binds(tmp_path, monkeypatch):
    name = f"fakepkg_{time.monotonic_ns()}"
    _fake_package(tmp_path, name)
    monkeypatch.syspath_prepend(str(tmp_path))
    a = __import__(f"{name}.a", fromlist=["x"])
    original = a.leaf

    def stray():
        return None

    with pytest.raises(spans.TargetMissing, match="a.stray"):
        spans.install({"a.leaf": a.leaf, "a.stray": stray}, name, spans.Tracer().wrap)
    assert a.leaf is original  # a failed install leaves nothing patched


def _probe_record(durations, gap=0.1):
    probe = speed.Probe()
    for k, d in enumerate(durations):
        probe.starts.append(gap * k)
        probe.ends.append(gap * k + d)
    return probe


def test_rescaled_subtracts_probes_and_scales_to_reference_speed():
    # nine probes at half reference speed and one preempted probe in [0, 1]
    slow = 2 * speed.REFERENCE_S
    probe = _probe_record([slow] * 9 + [0.05])
    assert speed.trimmed_mean(probe.durations(0.0, 1.0)) == pytest.approx(slow)
    inside = 9 * slow + 0.05
    assert probe.rescaled(0.0, 1.0) == pytest.approx((1.0 - inside) / 2)
    # a window with no probe inside takes the speed of the whole run
    assert probe.rescaled(5.0, 5.01) == pytest.approx(0.01 / 2)
    with pytest.raises(RuntimeError):
        speed.Probe().rescaled(0.0, 1.0)


def test_probe_runs_on_the_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.Probe(interval=0.01)
    probe.start()
    try:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    count = len(probe.starts)
    assert count >= 5
    assert all(e > s for s, e in zip(probe.starts, probe.ends))
    probe._busy = True  # a tick that arrives while a probe runs is dropped
    probe._handler(signal.SIGALRM, None)
    assert len(probe.starts) == count


def test_dense_probing_lasts_its_span(monkeypatch):
    monkeypatch.setattr(speed, "DENSE_SPAN_S", 0.1)
    probe = speed.Probe(interval=0.05)
    probe.start()
    try:
        probe.dense(True)
        assert signal.getitimer(signal.ITIMER_REAL)[1] == pytest.approx(speed.DENSE_INTERVAL_S)
        deadline = time.perf_counter() + 0.4
        while time.perf_counter() < deadline:
            pass
        # the first probe after the span set the timer back
        assert signal.getitimer(signal.ITIMER_REAL)[1] == pytest.approx(0.05)
    finally:
        probe.stop()


TINY = {
    "dataset": {"kind": "synth", "class_count": 2, "image_size": 16,
                "train_per_class": 10, "val_per_class": 6, "seed": 3},
    "train": {"epochs": 2, "batch_size": 8, "grid_size": 4, "hidden_dim": 8, "seed": 3},
    "search": {"population_size": 4, "generations": 2, "patience": 2,
               "pairs_per_combo": 2, "seed": 3},
}


def _workload_process(work: Path, *flags: str):
    """One workload process on the tiny config: (config, run dir, report)."""
    config = {**TINY, "output_dir": str(work / "run")}
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    report_path = work / "report.json"
    subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--config", str(config_path),
         "--report", str(report_path), "--t0", repr(time.perf_counter()), *flags],
        check=True, capture_output=True, timeout=120,
    )
    return config, Path(config["output_dir"]), json.loads(report_path.read_text())


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    return _workload_process(tmp_path_factory.mktemp("tiny"), "--trace")


def test_untraced_run_reports_rescaled_times(tmp_path):
    _, _, report = _workload_process(tmp_path)
    assert report["problems"] == []
    assert "layers" not in report
    rescaled = report["rescaled"]
    assert set(rescaled) == {"setup_s", "pipeline_s", "p1_s", "p2_s", "p34_s"}
    assert all(value > 0.0 for value in rescaled.values())
    assert report["probe"]["count"] >= 1 and 0.0 < report["probe"]["share"] < 1.0


def test_workload_process_reports_a_checked_traced_run(tiny_run):
    config, run_dir, report = tiny_run
    assert report["problems"] == []
    assert report["exit_code"] == 0
    layers = report["layers"]
    assert layers["losses.p4.patch_evals"] == 0
    assert layers["evolution.rescored_share"] <= 1.0
    assert layers["mixing.patchmix.p3.calls"] == workload.work_units(config)["train_size"]
    phases = sum(layers[f"phase{k}.s"] for k in range(1, 5))
    assert phases == pytest.approx(report["pipeline_s"])
    assert 0.0 < report["setup_s"] and 0.0 < report["pipeline_s"]
    assert set(report["digests"]) >= {"f_o_model.pmxm", "guided_set.txt", "config.json"}


def _recheck(config, run_dir, report):
    return workload.check_outputs(report["stdout"], 0, run_dir, config)[0]


def test_checker_rejects_a_truncated_manifest(tiny_run):
    config, run_dir, report = tiny_run
    manifest = run_dir / "guided_set.txt"
    text = manifest.read_text()
    try:
        manifest.write_text("\n".join(text.splitlines()[:-3]) + "\n")
        problems = _recheck(config, run_dir, report)
        assert any("guided_set.txt" in p for p in problems)
        # a consistent but short manifest fails the work count instead
        lines = text.splitlines()
        manifest.write_text("\n".join([f"count={len(lines) - 2}", *lines[1:-1]]) + "\n")
        assert any("len(train)" in p for p in _recheck(config, run_dir, report))
    finally:
        manifest.write_text(text)
    assert _recheck(config, run_dir, report) == []


def test_checker_rejects_a_corrupted_checkpoint(tiny_run):
    config, run_dir, report = tiny_run
    checkpoint = run_dir / "f_o_model.pmxm"
    raw = checkpoint.read_bytes()
    try:
        checkpoint.write_bytes(raw[:-8])
        assert any("f_o_model.pmxm" in p for p in _recheck(config, run_dir, report))
        checkpoint.write_bytes(b"XXXX" + raw[4:])
        assert any("magic" in p for p in _recheck(config, run_dir, report))
        nan = bytes.fromhex("000000000000f87f")  # little-endian float64 NaN
        checkpoint.write_bytes(raw[:-8] + nan)
        assert any("non-finite" in p for p in _recheck(config, run_dir, report))
    finally:
        checkpoint.write_bytes(raw)


def test_checker_rejects_bad_stdout_and_exit_code(tiny_run):
    config, run_dir, _ = tiny_run
    problems = workload.check_outputs("best_score,nan\n", 3, run_dir, config)[0]
    assert "exit code 3" in problems
    assert "stdout best_score is nan" in problems
    assert "stdout has no number for val_top1" in problems


def test_benchmark_json_names_every_metric_the_harness_reports(tiny_run):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run

    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    layer_names = [*tiny_run[2]["layers"], *run.TRACE_METRICS]
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(layer_names)

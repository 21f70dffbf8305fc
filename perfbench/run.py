"""patchmix benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Each pipeline run is its own workload process (``perfbench/workload.py``),
one at a time.  Runs start while the median run still fits in
``--seconds``; timings are medians over the runs.

``--trace 0`` reports the end-to-end metrics.  Its times are rescaled to
reference core speed by the speed probe (``perfbench/speed.py``), which
cancels the slowdowns of a shared host; the times as measured are printed
beside them and kept in the raw results.  ``--trace 1`` alternates traced
and untraced runs (at least two of each), without the probe, and reports
the per-layer metrics (medians over the traced runs) and the tracing
overhead (traced against untraced ``pipeline_s``, both as measured).

Every run's outputs are checked; a run that fails a check counts as failed
and its timings are discarded.  All runs of one invocation must write
byte-identical artifacts, and the traced runs must repeat their exact
counters.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import ROOT, WORKLOADS, make_config, work_units

HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
# One BLAS thread: on two cores OpenBLAS's second thread gives the same wall
# time (measured) but spins on the other core, which makes runs sensitive to
# anything else running there.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "p1_samples_per_s": "samples/s",
    "search_genomes_per_s": "genomes/s",
    "guided_train_samples_per_s": "samples/s",
    "peak_rss_mb": "MiB",
    "final_val_top1": "fraction",
    "ok_share": "fraction",
}

# Tracing overhead, reported with the per-layer metrics.
TRACE_METRICS = ("trace.pipeline_s", "trace.untraced_pipeline_s", "trace.overhead_share")


def per_layer_units(name: str) -> str:
    if name.endswith("_share"):
        return "fraction"
    if name.endswith((".s", "_s")):
        return "s"
    if name == "io.bytes_written":
        return "bytes"
    return "count"


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def run_once(config: dict, path: Path, trace: bool, budget_s: float) -> dict:
    """Start one workload process and return its report."""
    path.write_text(json.dumps(config))
    report_path = path.with_suffix(".report.json")
    log_path = path.with_suffix(".log")
    cmd = [sys.executable, str(HERE / "workload.py"), "--config", str(path),
           "--report", str(report_path)]
    if trace:
        cmd.append("--trace")
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env={**os.environ, **BLAS_ENV})
        try:
            code = proc.wait(timeout=max(budget_s, 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code is None:
        return {"exit_code": None, "problems": [f"timed out after {budget_s:.0f} s"]}
    if code == 2 or code == 3:
        raise BenchmarkError(log_path.read_text().strip().splitlines()[-1])
    if code != 0 or not report_path.exists():
        return {"exit_code": None, "problems": [f"workload process exited {code}"]}
    return json.loads(report_path.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Pipeline runs for ``seconds``; returns the summary."""
    started = time.perf_counter()
    work = WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runs: list[dict] = []

    def one(kind: str) -> dict:
        index = len(runs)
        run_dir = work / f"run{index}"
        config = make_config(name, seed, str(run_dir))
        budget = DEADLINE_S - (time.perf_counter() - started)
        report = run_once(config, work / f"run{index}.json", kind == "traced", budget)
        report["kind"] = kind
        shutil.rmtree(run_dir, ignore_errors=True)
        runs.append(report)
        return report

    kinds = ["traced", "untraced"] if trace else ["untraced"]
    durations: list[float] = []
    rounds = 0
    while True:
        for kind in kinds:
            t = time.perf_counter()
            one(kind)
            durations.append(time.perf_counter() - t)
        rounds += 1
        elapsed = time.perf_counter() - started
        step = statistics.median(durations) * len(kinds)
        # Traced runs come at least twice, so their exact counters are compared.
        if (elapsed + step > seconds and rounds >= 1 + trace) or elapsed + step > DEADLINE_S:
            break
    return summarize(name, seed, trace, runs)


def summarize(name: str, seed: int, trace: bool, runs: list[dict]) -> dict:
    config = make_config(name, seed, ".")
    units = work_units(config)
    problems: list[str] = []
    reference = next((r["digests"] for r in runs if r.get("digests")), None)
    for index, r in enumerate(runs):
        if r.get("digests") is not None and r["digests"] != reference:
            r["problems"].append("artifacts differ from the first run of this seed")
        for p in r["problems"]:
            problems.append(f"run {index} ({r['kind']}): {p}")
    good = [r for r in runs if not r["problems"]]
    failed = len(runs) - len(good)
    untraced = [r for r in good if r["kind"] == "untraced"]
    traced = [r for r in good if r["kind"] == "traced"]
    if not untraced or (trace and not traced):
        raise BenchmarkError(
            f"{name}: no successful timed run\n" + "\n".join(problems[-5:])
        )

    def med(key, rows=untraced):
        return statistics.median(r[key] for r in rows)

    def rescaled(key):
        return statistics.median(r["rescaled"][key] for r in untraced)

    wall = {}

    if trace:
        exact = [r["exact"] for r in good if "exact" in r]
        if any(e != exact[0] for e in exact):
            problems.append("exact counters differ between traced runs")
        metrics = {
            key: statistics.median(r["layers"][key] for r in traced)
            for key in traced[0]["layers"]
        }
        traced_s, untraced_s = med("pipeline_s", traced), med("pipeline_s")
        metrics.update(zip(TRACE_METRICS, (traced_s, untraced_s, traced_s / untraced_s - 1.0)))
        metrics = {key: (value, per_layer_units(key)) for key, value in metrics.items()}
    else:
        values = {
            "pipeline_s": rescaled("pipeline_s"),
            "setup_s": rescaled("setup_s"),
            "p1_samples_per_s": units["p1_samples"] / rescaled("p1_s"),
            "search_genomes_per_s": units["search_slots"] / rescaled("p2_s"),
            "guided_train_samples_per_s": units["p4_samples"] / rescaled("p34_s"),
            "peak_rss_mb": med("peak_rss_mb"),
            "final_val_top1": med("val_top1"),
            "ok_share": len(good) / len(runs),
        }
        metrics = {key: (values[key], unit) for key, unit in END_TO_END.items()}
        wall = {key: med(key) for key in ("pipeline_s", "setup_s", "p1_s", "p2_s", "p34_s")}
        wall["probe_share"] = statistics.median(r["probe"]["share"] for r in untraced)
    env = next((r["environment"] for r in runs if "environment" in r), {})
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "runs": {"attempted": len(runs), "failed": failed},
        "environment": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            **env,
        },
        "problems": problems,
        "metrics": metrics,
        "wall": wall,
        "raw": [{k: v for k, v in r.items() if k not in ("functions", "stdout")} for r in runs],
        "functions": next((r["functions"] for r in traced), None),
    }


def print_summary(summary: dict) -> None:
    env = summary["environment"]
    runs = summary["runs"]
    print(
        f"# workload={summary['workload']} seed={summary['seed']} trace={summary['trace']} "
        f"runs={runs['attempted']} failed={runs['failed']} "
        f"python={env['python']} numpy={env.get('numpy')} nproc={env['nproc']} "
        f"blas={env.get('blas')} blas_threads={env.get('blas_threads')}"
    )
    for key, (value, unit) in summary["metrics"].items():
        print(f"{summary['workload']:>14}  {key:<40} {value:>14.6g} {unit}")
    if summary["wall"]:
        print("# as measured: " + " ".join(f"{k}={v:.4g}" for k, v in summary["wall"].items()))
    for problem in summary["problems"]:
        print(f"# FAIL {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="patchmix benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "patchmix" / "__init__.py").is_file():
        print(f"error: no patchmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
            (WORK_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(summary, indent=1)
            )
            print_summary(summary)
            summaries.append(summary)
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    correct = not any(s["problems"] for s in summaries)
    prefix = len(names) > 1
    result = {
        "correct": correct,
        "attempted": sum(s["runs"]["attempted"] for s in summaries),
        "failed": sum(s["runs"]["failed"] for s in summaries),
        "metrics": {
            (f"{s['workload']}.{key}" if prefix else key): {"value": value, "unit": unit}
            for s in summaries
            for key, (value, unit) in s["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Paired benchmark runs of a parent commit against the working tree.

    python3 scripts/bench_pairs.py --label NAME --seeds 601-610 \
        [--parent HEAD] [--claim quickstart.p1_samples_per_s] \
        [--change "what the change does"] [--anchor REF] [--tmp-dir DIR]

For every seed S, runs

    python3 perfbench/run.py --workload all --seed S --trace 0

once in an export of the parent commit and once in the working tree, one
invocation at a time.  Odd seeds run the parent first and even seeds the
change first, so a slow stretch of the host does not always land on the
same side.  The run length is ``perfbench/run.py``'s own default,
``--seconds 40``, which the report's ``command`` names.  Each invocation's
last stdout line is its JSON result; exit code 1 with that line (a run
that failed a check) is kept.

Writes ``BENCH_<label>.json`` at the repository root: for every end-to-end
metric of ``BENCHMARK.json`` and every workload, both sides' quartiles, the
pairs the change wins and ties, the median change, each side's IQR over
median, and whether the change's median stays within the metric's bound.
A metric is ``unresolved`` when the parent's IQR over median exceeds the
bound and not every change run beats every parent run: its runs spread
too widely for the bound to tell a regression from noise.

It also records each side's times as measured, which the speed probe has
not rescaled: the ``wall`` block of every workload's summary,
``.perfbench_work/<workload>-seed<S>-trace0.json`` in the tree that ran.
Each timed window (``pipeline_s``, ``setup_s``, ``p1_s``, ``p2_s``,
``p34_s``) is compared as above, against the bound of the end-to-end
metric it feeds.  The probe's own median call time (``mean_s``) is
compared per workload; a workload whose two sides' probe medians differ by
more than the parent probe's IQR over its median, the spread ``unresolved``
reads, is flagged ``probe_skewed``, since its rescaled times then move with
the probe and not only with the program.
With ``--anchor REF`` a third side, the fixed commit ``REF``, is exported
like the parent and runs at every seed in the same alternating order
(odd seeds anchor, parent, change; even seeds the reverse).  Every
end-to-end metric and as-measured window then also gets the anchor's
median and the parent/anchor and change/anchor median ratios, so reports
made at different times, on a host whose speed drifts, can be chained
through the one anchor.
With ``--claim`` it also applies the claim rule: the change wins at least
nine in ten pairs and its median gain exceeds the parent's IQR.  A claim
that names no workload's end-to-end metric is refused before any run.

The parent, and the anchor if given, are exported with ``git archive``
into a temporary directory (under ``--tmp-dir`` if given), so the
repository gains no worktree entry and the working tree may hold
uncommitted changes.  Nothing under
``perfbench/`` and no ``BENCHMARK.json`` is written.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_SHARE = 0.9
# Each as-measured window and the end-to-end metric whose bound it takes.
WINDOW_METRICS = {
    "pipeline_s": "pipeline_s",
    "setup_s": "setup_s",
    "p1_s": "p1_samples_per_s",
    "p2_s": "search_genomes_per_s",
    "p34_s": "guided_train_samples_per_s",
}


def parse_seeds(text: str) -> list[int]:
    """``"601-603,610"`` -> ``[601, 602, 603, 610]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def export_tree(ref: str, dest: Path, name: str) -> Path:
    """The files of commit ``ref`` under ``dest / name``."""
    archive = dest / f"{name}.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--output", str(archive), ref], check=True)
    tree = dest / name
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return tree


def run_bench(tree: Path, seed: int, workloads: list[str]) -> dict:
    """One ``perfbench/run.py --workload all`` invocation in ``tree``, with
    its as-measured times under ``"as_measured"``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
           "--trace", "0"]
    result = parse_result(subprocess.run(cmd, cwd=tree, capture_output=True, text=True),
                          f"{tree}: seed {seed}")
    result["as_measured"] = as_measured(tree, seed, workloads)
    return result


def as_measured(tree: Path, seed: int, workloads: list[str]) -> dict:
    """``{"<workload>.wall.<key>": median}`` for every key of each workload's
    ``wall`` block, and ``"<workload>.probe.mean_s"``: the median over its
    passing runs of the probe's mean call time (None if no run was probed)."""
    values = {}
    for name in workloads:
        summary = json.loads(
            (tree / ".perfbench_work" / f"{name}-seed{seed}-trace0.json").read_text()
        )
        values.update({f"{name}.wall.{k}": v for k, v in summary["wall"].items()})
        probes = [r["probe"]["mean_s"] for r in summary["raw"]
                  if not r["problems"] and r.get("probe", {}).get("count")]
        values[f"{name}.probe.mean_s"] = statistics.median(probes) if probes else None
    return values


def parse_result(proc: subprocess.CompletedProcess, what: str) -> dict:
    """The JSON result on the last stdout line of a finished invocation.

    A crash (exit 2, or no JSON last line, as after an uncaught exception)
    raises with the exit code and the tail of stderr.
    """
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 2 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    raise RuntimeError(f"{what} exited {proc.returncode}\n{proc.stderr[-2000:]}")


def quartiles(values: list[float]) -> list[float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Paired comparison of one metric; ``parent[k]`` and ``change[k]`` share a seed."""
    sign = 1.0 if better == "higher" else -1.0
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    base = pq[1]
    limit = base * (1.0 - sign * bound)
    spread = (pq[2] - pq[0]) / base if base else 0.0
    beats_every_parent_run = min(sign * c for c in change) > max(sign * p for p in parent)
    return {
        "parent_q1_median_q3": [round(v, 6) for v in pq],
        "change_q1_median_q3": [round(v, 6) for v in cq],
        "change_wins": wins,
        "ties": ties,
        "median_change": round((cq[1] - base) / base, 4) if base else 0.0,
        "parent_iqr_over_median": round(spread, 4),
        "change_iqr_over_median": round((cq[2] - cq[0]) / cq[1], 4) if cq[1] else 0.0,
        "bound": bound,
        "within_bound": sign * (cq[1] - limit) >= 0,
        "unresolved": spread > bound and not beats_every_parent_run,
    }


def claim_result(parent: list[float], change: list[float], better: str) -> dict:
    """Wins in at least nine of ten pairs, and a median gain above the parent's IQR."""
    sign = 1.0 if better == "higher" else -1.0
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (cq[1] - pq[1])
    iqr = pq[2] - pq[0]
    return {
        "change_wins": wins,
        "median_gain": round(gain, 6),
        "parent_iqr": round(iqr, 6),
        "met": wins >= CLAIM_SHARE * len(parent) and gain > iqr,
    }


def claimable(benchmark: dict) -> list[str]:
    """Every ``<workload>.<metric>`` a claim may name: each workload's
    end-to-end metrics in ``BENCHMARK.json``."""
    return [f"{w['name']}.{m['name']}" for w in benchmark["workloads"]
            for m in benchmark["end_to_end"]]


def summarize(results: dict, metrics: list[dict], claim: str | None) -> dict:
    """``results[side]`` is the list of JSON results, one per seed, in seed order."""
    end_to_end = {}
    for name in results["parent"][0]["metrics"]:
        spec = next(m for m in metrics if name.endswith("." + m["name"]))
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        end_to_end[name] = {"unit": spec["unit"], "better": spec["better"],
                            **compare(parent, change, spec["better"], spec["bound"])}
    summary = {"end_to_end": end_to_end}
    if claim:
        better = end_to_end[claim]["better"]
        values = [[r["metrics"][claim]["value"] for r in results[side]]
                  for side in ("parent", "change")]
        summary["claim"] = {
            "metric": claim,
            "rule": "change wins >= 9 of 10 pairs and the median gain exceeds the parent's IQR",
            "result": claim_result(*values, better),
        }
    if "as_measured" in results["parent"][0]:
        summary.update(summarize_as_measured(results, metrics))
    summary["all_runs_correct"] = {
        side: [r["correct"] for r in runs] for side, runs in results.items()
    }
    return summary


def summarize_as_measured(results: dict, metrics: list[dict]) -> dict:
    """The paired comparison of every as-measured window, and each
    workload's probe medians with their ``probe_skewed`` flag."""
    bounds = {m["name"]: m["bound"] for m in metrics}
    names = results["parent"][0]["as_measured"]
    windows, probe = {}, {}
    for name in names:
        workload, kind, key = name.split(".")
        parent, change = ([r["as_measured"][name] for r in results[side]]
                          for side in ("parent", "change"))
        if kind == "wall" and key in WINDOW_METRICS:
            windows[name] = {"unit": "s", "better": "lower",
                             **compare(parent, change, "lower", bounds[WINDOW_METRICS[key]])}
        elif kind == "probe":
            parent = [v for v in parent if v is not None]
            change = [v for v in change if v is not None]
            if not parent or not change:
                probe[workload] = {"probe_skewed": None}
                continue
            pq = quartiles(parent) if len(parent) > 1 else parent * 3  # one run: no spread
            p, c = pq[1], statistics.median(change)
            spread = (pq[2] - pq[0]) / p
            probe[workload] = {
                "parent_median_s": round(p, 9),
                "change_median_s": round(c, 9),
                "median_change": round(c / p - 1.0, 4),
                "parent_iqr_over_median": round(spread, 4),
                "probe_skewed": abs(c / p - 1.0) > spread,
            }
    return {"as_measured": windows, "probe": probe}


def flat(result: dict) -> dict:
    """One invocation's end-to-end values and as-measured medians, by name."""
    return {**{k: v["value"] for k, v in result["metrics"].items()},
            **result.get("as_measured", {})}


def median_ratios(results: dict) -> dict:
    """For every end-to-end metric and as-measured window, the anchor's
    median and the parent/anchor and change/anchor median ratios."""
    runs = {side: [flat(r) for r in rs] for side, rs in results.items()}
    first = results["anchor"][0]
    names = [*first["metrics"], *(n for n in first.get("as_measured", {})
                                  if n.split(".")[1] == "wall"
                                  and n.split(".")[2] in WINDOW_METRICS)]
    ratios = {}
    for name in names:
        anchor, parent, change = (statistics.median(r[name] for r in runs[side])
                                  for side in ("anchor", "parent", "change"))
        ratios[name] = {
            "anchor_median": round(anchor, 6),
            "parent_over_anchor": round(parent / anchor, 4) if anchor else None,
            "change_over_anchor": round(change / anchor, 4) if anchor else None,
        }
    return ratios


def environment(tree: Path, seed: int) -> dict:
    """Host and numpy facts, from the working tree's raw benchmark output."""
    raw = json.loads((tree / ".perfbench_work" / f"quickstart-seed{seed}-trace0.json").read_text())
    env = raw["environment"]
    return {"nproc": env["nproc"], "python": platform.python_version(),
            **{k: env[k] for k in ("numpy", "blas", "blas_threads") if k in env}}


def dumps(report: dict) -> str:
    """JSON with one line per metric, like the earlier ``BENCH_*.json`` files."""
    lines = []
    for key, value in report.items():
        if key in ("end_to_end", "as_measured", "probe", "anchor_ratios", "raw"):
            inner = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            lines.append(f" {json.dumps(key)}: {{\n{inner}\n }}")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 601-610")
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent (default HEAD)")
    parser.add_argument("--claim", help="claimed metric, e.g. quickstart.p1_samples_per_s")
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--anchor", help="git ref of a fixed third side, e.g. 7d747bf")
    parser.add_argument("--tmp-dir", type=Path, help="directory for the parent export")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.claim and args.claim not in claimable(benchmark):
        parser.error(f"--claim {args.claim!r} is not <workload>.<metric> of BENCHMARK.json; "
                     f"choose one of: {', '.join(claimable(benchmark))}")
    metrics = benchmark["end_to_end"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    refs = {"anchor": args.anchor} if args.anchor else {}
    refs["parent"] = args.parent
    shas = {side: subprocess.run(["git", "-C", str(ROOT), "rev-parse", ref], check=True,
                                 capture_output=True, text=True).stdout.strip()
            for side, ref in refs.items()}
    results: dict[str, list[dict]] = {side: [] for side in (*shas, "change")}
    with tempfile.TemporaryDirectory(dir=args.tmp_dir) as tmp:
        trees = {side: export_tree(sha, Path(tmp), side) for side, sha in shas.items()}
        trees["change"] = ROOT
        for seed in args.seeds:
            order = list(results) if seed % 2 else list(results)[::-1]
            for side in order:
                result = run_bench(trees[side], seed, workloads)
                results[side].append(result)
                print(f"seed {seed} {side}: correct={result['correct']}", file=sys.stderr,
                      flush=True)
    report = {
        "change": args.change,
        **shas,
        "command": "python3 perfbench/run.py --workload all --seed S --seconds 40 --trace 0",
        "pairs": f"seeds {','.join(map(str, args.seeds))}, one invocation per side "
                 f"({', '.join(results)}) and seed; odd seeds ran them in that order, "
                 "even seeds in reverse (scripts/bench_pairs.py)",
        "environment": environment(ROOT, args.seeds[-1]),
        **summarize(results, metrics, args.claim),
        **({"anchor_ratios": median_ratios(results)} if args.anchor else {}),
        "raw": {side: [flat(r) for r in rs] for side, rs in results.items()},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(dumps(report))
    print(out)
    failed = [side for side, rs in results.items() if not all(r["correct"] for r in rs)]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

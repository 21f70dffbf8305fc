"""Benchmark workloads and the workload process that runs one of them.

Each workload is a patchmix run config whose work is fixed by the config
alone: ``search.patience`` equals ``search.generations`` (early stop
depends on fitness values, which move whenever the draw order changes),
and ``threads`` is left unset.

Run as a script, this module is one workload process.  It reads the
config the orchestrator wrote, calls the real ``patchmix pipeline``
entry point (``cli.main``) in-process, checks every output and writes a
JSON report.  The pipeline's stdout is captured and checked; logging
goes to stderr.

    python3 perfbench/workload.py --config CFG --report OUT --t0 T [--trace]

``--t0`` is the orchestrator's ``time.perf_counter()`` just before it
started this process (CLOCK_MONOTONIC, shared by all processes), so
``setup_s`` covers interpreter start, imports, config parse and
``build_datasets``.

Untraced runs run the speed probe (``speed.py``) from the start of
``main`` to the end of the checks, and report their timings both as
measured and rescaled to reference core speed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "patchmix"
LAYERS = ("data", "masks", "mixing", "losses", "model", "evolution", "workflow", "cli")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    why: str
    dataset: dict
    train: dict
    search: dict


WORKLOADS = {
    "quickstart": Workload(
        why="README config; phases 1 and 4 dominate, half of phase 1 is per-sample "
        "composition (sample_random_mask, patchmix); search is about 5%",
        dataset={"class_count": 3, "image_size": 16, "train_per_class": 200,
                 "val_per_class": 50},
        train={"epochs": 30, "batch_size": 100, "grid_size": 4, "hidden_dim": 64},
        search={"population_size": 40, "generations": 15, "patience": 15,
                "pairs_per_combo": 8},
    ),
    "cifar_search": Workload(
        why="CIFAR-shaped workload M; phase 2 is about 70% (forward_batch and "
        "composite assembly in evaluate_fitness), composition work is small",
        dataset={"class_count": 10, "image_size": 32, "train_per_class": 100,
                 "val_per_class": 40},
        train={"epochs": 5, "batch_size": 100, "grid_size": 4, "hidden_dim": 64},
        search={"population_size": 100, "generations": 10, "patience": 10,
                "pairs_per_combo": 16},
    ),
    "guided_scale": Workload(
        why="4000 training images; the materialized float64 guided set sets peak "
        "memory, dataset generation sets setup time, search is negligible",
        dataset={"class_count": 10, "image_size": 32, "train_per_class": 400,
                 "val_per_class": 20},
        train={"epochs": 3, "batch_size": 100, "grid_size": 4, "hidden_dim": 64},
        # crossover_prob 1 re-scores every slot, so the search work does not
        # swing with the seed the way it does at population 10 (IQR ~16%).
        search={"population_size": 10, "generations": 2, "patience": 2,
                "pairs_per_combo": 32, "crossover_prob": 1.0},
    ),
}

# Functions the per-layer metrics name.  Losing one is a benchmark error.
REQUIRED = (
    "masks.sample_random_mask",
    "mixing.patchmix",
    "model.train_random_patchmix",
    "model.backward",
    "model.sgd_nesterov_step",
    "model.evaluate_model",
    "model.forward_batch",
    "evolution.evaluate_fitness",
    "evolution.run_search",
    "workflow.draw_guided_recipe",
    "workflow.materialize_guided",
    "workflow.train_final",
    "workflow.run_guided_pipeline",
    "data.synth_shapes",
    "cli.build_datasets",
    "cli.main",
    "losses.loss_eval_count",
)
PIPELINE = "workflow.run_guided_pipeline"
PHASE1 = "model.train_random_patchmix"
SEARCH = "evolution.run_search"
FINAL = "workflow.train_final"


def make_config(name: str, seed: int, output_dir: str) -> dict:
    """The run config of workload ``name``; the seed sets every seed in it."""
    w = WORKLOADS[name]
    seed = seed % 2**31
    return {
        "dataset": {"kind": "synth", **w.dataset, "seed": seed},
        "train": {**w.train, "seed": seed},
        "search": {**w.search, "seed": seed},
        "output_dir": output_dir,
    }


def work_units(config: dict) -> dict:
    """Units of work a run of ``config`` does, from the config alone."""
    d, t, s = config["dataset"], config["train"], config["search"]
    train_size = d["class_count"] * d["train_per_class"]
    batch = t["batch_size"]
    return {
        "train_size": train_size,
        "epochs": t["epochs"],
        "generations": s["generations"],
        "p1_samples": train_size * t["epochs"],
        "search_slots": s["population_size"] * (s["generations"] + 1),
        "p4_samples": math.ceil(train_size / batch) * batch * t["epochs"],
    }


# --- output checks ------------------------------------------------------------


def parse_stdout(text: str) -> dict[str, str]:
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(",")
        if sep:
            values[key.strip()] = value.strip()
    return values


def check_outputs(stdout: str, exit_code, run_dir, config: dict) -> tuple[list[str], dict]:
    """Problems with one pipeline run, and the values read from stdout.

    Every artifact must reload through its public loader and hold the
    amount of work the config asks for.
    """
    import numpy as np
    from patchmix.errors import FormatError
    from patchmix.evolution import load_individual
    from patchmix.model import load_metrics, load_model
    from patchmix.workflow import load_guided_manifest

    problems: list[str] = []
    values: dict[str, float] = {}
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    printed = parse_stdout(stdout)
    for key in ("best_score", "val_top1"):
        try:
            value = float(printed[key])
        except (KeyError, ValueError):
            problems.append(f"stdout has no number for {key}")
            continue
        if not math.isfinite(value):
            problems.append(f"stdout {key} is {value}")
        values[key] = value

    run_dir = Path(run_dir)
    units = work_units(config)
    t = config["train"]
    try:
        for name in ("f_t_model.pmxm", "f_o_model.pmxm"):
            model = load_model(run_dir / name)
            dims = (model.grid_size, model.class_count, model.hidden_dim)
            want = (t["grid_size"], config["dataset"]["class_count"], t["hidden_dim"])
            if dims != want:
                problems.append(f"{name}: dims {dims}, config asks {want}")
            if not all(np.isfinite(p).all() for p in model.params().values()):
                problems.append(f"{name}: non-finite parameters")
        for name in ("f_t_metrics.csv", "f_o_metrics.csv"):
            rows = load_metrics(run_dir / name)
            if len(rows) != units["epochs"]:
                problems.append(f"{name}: {len(rows)} rows, epochs = {units['epochs']}")
            elif name == "f_o_metrics.csv" and values.get("val_top1") != rows[-1].val_top1:
                problems.append("stdout val_top1 differs from the final metrics row")
        history = (run_dir / "search_history.csv").read_text().splitlines()
        if len(history) != units["generations"] + 1:
            problems.append(
                f"search_history.csv: {len(history)} rows, "
                f"generations + 1 = {units['generations'] + 1}"
            )
        best, _ = load_individual(run_dir / "best_individual.txt")
        if len(best.active_slots()) == 0:
            problems.append("best_individual.txt: no active pairs")
        recipe = load_guided_manifest(run_dir / "guided_set.txt")
        if len(recipe) != units["train_size"]:
            problems.append(
                f"guided_set.txt: count {len(recipe)}, len(train) = {units['train_size']}"
            )
        json.loads((run_dir / "config.json").read_text())
    except (FormatError, ValueError, OSError) as err:
        problems.append(f"artifact does not reload: {err}")
    return problems, values


def digests(run_dir) -> dict[str, str]:
    run_dir = Path(run_dir)
    return {
        str(path.relative_to(run_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


# --- phase probes and per-layer metrics ---------------------------------------


def phase_marks(events) -> dict[str, tuple]:
    """``{name: (start event, end event)}``; each phase function runs once."""
    marks = {}
    for name in (PIPELINE, PHASE1, SEARCH, FINAL):
        starts = [e for e in events if e[0] == name and e[1] == "start"]
        ends = [e for e in events if e[0] == name and e[1] == "end"]
        if len(starts) != 1 or len(ends) != 1:
            raise RuntimeError(f"{name} ran {len(starts)} times, expected once")
        marks[name] = (starts[0], ends[0])
    return marks


def phase_bounds(marks) -> list:
    """Events at the phase boundaries: pipeline start, search start, search
    end, final-train start, pipeline end.  Phase k is [bound k-1, bound k)."""
    return [marks[PIPELINE][0], marks[SEARCH][0], marks[SEARCH][1],
            marks[FINAL][0], marks[PIPELINE][1]]


def layer_metrics(tracer: spans.Tracer, bounds: list, units: dict, run_dir):
    """Per-layer metrics of one traced run, the exact counters in them, and
    ``{name: [calls, inclusive s, self s]}`` for every traced function."""
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    selfs = spans.self_times(starts, ends, parents)
    times = [b[2] for b in bounds]
    calls: Counter = Counter()
    incl: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    mix_calls: Counter = Counter()
    mix_incl: defaultdict = defaultdict(float)
    mix_self: defaultdict = defaultdict(float)
    io_save = 0.0
    for k, name in enumerate(names):
        calls[name] += 1
        incl[name] += ends[k] - starts[k]
        self_s[name] += selfs[k]
        if name == "mixing.patchmix":
            phase = spans.phase_of(starts[k], times)
            mix_calls[phase] += 1
            mix_incl[phase] += ends[k] - starts[k]
            mix_self[phase] += selfs[k]
        if _is_save(name) and not _has_save_ancestor(k, names, parents):
            io_save += ends[k] - starts[k]

    m = {
        "masks.sample_random_mask.calls": calls["masks.sample_random_mask"],
        "masks.sample_random_mask.self_s": self_s["masks.sample_random_mask"],
    }
    for phase in (1, 3, 4):
        m[f"mixing.patchmix.p{phase}.calls"] = mix_calls[phase]
        m[f"mixing.patchmix.p{phase}.s"] = mix_incl[phase]
        m[f"mixing.patchmix.p{phase}.self_s"] = mix_self[phase]
    fitness_calls = calls["evolution.evaluate_fitness"]
    m.update({
        "model.train_random_patchmix.self_s": self_s["model.train_random_patchmix"],
        "model.backward.calls": calls["model.backward"],
        "model.backward.s": incl["model.backward"],
        "model.backward.self_s": self_s["model.backward"],
        "model.sgd_nesterov_step.self_s": self_s["model.sgd_nesterov_step"],
        "model.evaluate_model.s": incl["model.evaluate_model"],
        "model.forward_batch.calls": calls["model.forward_batch"],
        "model.forward_batch.images": tracer.counters.get("model.forward_batch", 0),
        "model.forward_batch.self_s": self_s["model.forward_batch"],
        "evolution.evaluate_fitness.calls": fitness_calls,
        "evolution.evaluate_fitness.self_s": self_s["evolution.evaluate_fitness"],
        "evolution.run_search.self_s": self_s["evolution.run_search"],
        "evolution.rescored_share": fitness_calls / units["search_slots"],
        "workflow.draw_guided_recipe.s": incl["workflow.draw_guided_recipe"],
        "workflow.materialize_guided.s": incl["workflow.materialize_guided"],
        "workflow.train_final.self_s": self_s["workflow.train_final"],
    })
    for phase in range(1, 5):
        lo, hi = bounds[phase - 1], bounds[phase]
        m[f"losses.p{phase}.image_evals"] = hi[3] - lo[3]
        m[f"losses.p{phase}.patch_evals"] = hi[4] - lo[4]
        m[f"phase{phase}.s"] = hi[2] - lo[2]
    m.update({
        "data.synth_shapes.s": incl["data.synth_shapes"],
        "cli.build_datasets.s": incl["cli.build_datasets"],
        "io.save.s": io_save,
        "io.bytes_written": sum(p.stat().st_size for p in Path(run_dir).rglob("*") if p.is_file()),
    })
    exact = {
        "calls": dict(sorted(calls.items())),
        "patchmix_calls_by_phase": {str(k): v for k, v in sorted(mix_calls.items())},
        **{key: value for key, value in m.items()
           if key.endswith((".calls", ".images", "_evals", "rescored_share"))},
    }
    table = {name: [calls[name], incl[name], self_s[name]] for name in sorted(calls)}
    return m, exact, table


def _is_save(name: str) -> bool:
    return name.rpartition(".")[2].startswith("save_")


def _has_save_ancestor(k: int, names, parents) -> bool:
    parent = parents[k]
    while parent >= 0:
        if _is_save(names[parent]):
            return True
        parent = parents[parent]
    return False


# --- the workload process -----------------------------------------------------


def _layer_modules() -> dict:
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def _public_targets(modules: dict) -> dict:
    targets = {
        f"{layer}.{attr}": fn
        for layer, module in modules.items()
        for attr, fn in spans.public_functions(module).items()
    }
    missing = sorted(set(REQUIRED) - targets.keys())
    if missing:
        raise spans.TargetMissing(f"measured functions no longer exist: {missing}")
    return targets


def _forward_images(args, kwargs) -> int:
    return len(args[1] if len(args) > 1 else kwargs["images"])


def run(config_path: Path, t0: float, trace: bool, speed_probe: speed.Probe | None = None) -> dict:
    """Run the pipeline once and return the report (see module docstring).

    With a running ``speed_probe`` the report also holds the timings
    rescaled to reference core speed; the probe samples densely at the
    start of the search, the shortest phase of most workloads.
    """
    config = json.loads(config_path.read_text())
    modules = _layer_modules()
    targets = _public_targets(modules)
    loss_eval_count = targets["losses.loss_eval_count"]
    events: list[tuple] = []

    def probe(name, fn):
        def probed(*args, **kwargs):
            events.append((name, "start", spans.CLOCK(), loss_eval_count("image"),
                           loss_eval_count("patch"), time.process_time()))
            if speed_probe and name == SEARCH:
                speed_probe.dense(True)
            try:
                return fn(*args, **kwargs)
            finally:
                if speed_probe and name == SEARCH:
                    speed_probe.dense(False)
                events.append((name, "end", spans.CLOCK(), loss_eval_count("image"),
                               loss_eval_count("patch"), time.process_time()))
        return probed

    tracer = spans.Tracer()
    restore = []
    try:
        if trace:
            counts = {"model.forward_batch": _forward_images}
            restore.append(spans.install(
                targets, PACKAGE, lambda name, fn: tracer.wrap(name, fn, counts.get(name))
            ))
        # Probes go outside any tracer wrapper: bind to what the modules hold now.
        phase_fns = {
            name: getattr(modules[name.partition(".")[0]], name.partition(".")[2])
            for name in (PIPELINE, PHASE1, SEARCH, FINAL)
        }
        restore.append(spans.install(phase_fns, PACKAGE, probe))
        out = StringIO()
        with redirect_stdout(out):
            exit_code = modules["cli"].main(["pipeline", "--config", str(config_path)])
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        for undo in reversed(restore):
            undo()

    stdout = out.getvalue()
    run_dir = Path(config["output_dir"])
    problems, values = check_outputs(stdout, exit_code, run_dir, config)
    report = {"stdout": stdout, "exit_code": exit_code, "problems": problems, **values}
    if exit_code != 0:
        return report
    marks = phase_marks(events)
    bounds = phase_bounds(marks)
    pipeline_s = bounds[4][2] - bounds[0][2]
    report.update({
        "digests": digests(run_dir),
        "setup_s": bounds[0][2] - t0,
        "pipeline_s": pipeline_s,
        "pipeline_cpu_s": bounds[4][5] - bounds[0][5],
        "p1_s": marks[PHASE1][1][2] - marks[PHASE1][0][2],
        "p2_s": bounds[2][2] - bounds[1][2],
        "p34_s": bounds[4][2] - bounds[2][2],
        "peak_rss_mb": peak_kib / 1024.0,
        "p4_patch_evals": bounds[4][4] - bounds[3][4],
    })
    if speed_probe:
        windows = {
            "setup_s": (t0, bounds[0][2]),
            "pipeline_s": (bounds[0][2], bounds[4][2]),
            "p1_s": (marks[PHASE1][0][2], marks[PHASE1][1][2]),
            "p2_s": (bounds[1][2], bounds[2][2]),
            "p34_s": (bounds[2][2], bounds[4][2]),
        }
        report["rescaled"] = {key: speed_probe.rescaled(*w) for key, w in windows.items()}
        in_pipeline = speed_probe.durations(*windows["pipeline_s"])
        report["probe"] = {
            "count": len(in_pipeline),
            "mean_s": sum(in_pipeline) / max(1, len(in_pipeline)),
            "share": sum(in_pipeline) / pipeline_s,
        }
    if report["p4_patch_evals"] != 0:
        problems.append(f"phase 4 evaluated {report['p4_patch_evals']} patch losses")
    if trace:
        problems.extend(spans.span_errors(tracer.names, tracer.starts, tracer.ends, tracer.parents))
        layers, exact, table = layer_metrics(tracer, bounds, work_units(config), run_dir)
        phase_sum = sum(layers[f"phase{k}.s"] for k in range(1, 5))
        if phase_sum > pipeline_s * (1 + 1e-9):
            problems.append(f"phase spans {phase_sum} s exceed pipeline {pipeline_s} s")
        report.update({"layers": layers, "exact": exact, "functions": table})
    return report


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {name: os.environ.get(name, "unset") for name in BLAS_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--report", required=True, type=Path)
    parser.add_argument("--t0", required=True, type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    speed_probe = None if args.trace else speed.Probe()
    try:
        if speed_probe:
            speed_probe.start()
        report = run(args.config, args.t0, args.trace, speed_probe)
    except spans.TargetMissing as err:
        print(err, file=sys.stderr)
        return 3
    except Exception:  # a crash of the program under test is a failed run
        report = {"exit_code": None, "problems": [traceback.format_exc()]}
    finally:
        if speed_probe:
            speed_probe.stop()
    report["environment"] = environment()
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

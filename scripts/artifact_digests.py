"""sha256 digests of pipeline runs, to check that a change keeps every artifact.

    python3 scripts/artifact_digests.py --out FILE [--root DIR]
    python3 scripts/artifact_digests.py --compare A B

The first form runs ``patchmix pipeline`` (``cli.main``) in-process once per
workload of ``WORKLOADS``, seed of ``SEEDS`` and search objective of
``OBJECTIVES``, each into a fresh run directory.  A run's config is
``perfbench/workload.make_config(workload, seed, run_dir)`` with
``search.objective`` set.  It also runs the five ``boundary-demo`` rasters
at the settings of acceptance criterion 10 (``none`` at the defaults; the
other methods at 60 samples per class and 80 epochs).  For every run it
records the exit code, the stdout and the sha256 of every file the run
wrote, and writes them all to one JSON file, together with the environment
the bytes depend on (:func:`environment`).  For a pipeline run it also
records the sha256 of the guided set's patches, image labels and patch
labels, rebuilt with ``workflow.materialize_guided`` from the run's genome,
manifest and training set (:func:`guided_set_digests`).  Last, it records
the sha256 of ``workflow.ablation_csv_lines`` at the settings of acceptance
criterion 8, once per batch size of ``ABLATION_BATCH_SIZES``
(:func:`digest_ablation`): phase-1 training under all three loss modes on
grids 2, 4 and 8, which no pipeline run covers.

``--root`` names the tree whose ``src/`` and ``perfbench/`` are imported
(default: this repository), so an export of another commit is digested by
this script without a copy of it.  BLAS runs one thread, as in the
benchmark, so the digests do not depend on the host's core count.

The second form lists every entry that differs between two such files, or
that only one of them has, and exits 1 if there is any, else 0.  A run
that only one file has is one line.  The environments are not compared.
Each file keeps a list of the environments its digests were verified in
(a fresh one lists its own); when there is no difference, the
environments of B that A lacks are added to A's list, and A is rewritten.

``tests/artifact_digests.json`` holds the digests of the current code, and
``tests/test_artifact_digests.py`` compares a fresh run with it in every
environment that it lists.  A host in another environment is added by
running the first form into a scratch file and then the second form with
``tests/artifact_digests.json`` as A; the digests stay as they are.  A
change that means to move artifacts regenerates the file with
``python3 scripts/artifact_digests.py --out tests/artifact_digests.json``,
which lists only the environment it ran in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("quickstart", "cifar_search", "guided_scale")
SEEDS = (7, 8)
OBJECTIVES = ("min_patch_acc", "max_lp")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Criterion 8's batch size, one batch per epoch; and one that leaves a short last batch.
ABLATION_BATCH_SIZES = (60, 25)
DEMO_RUNS = {  # method: extra boundary-demo arguments, as in criterion 10
    "none": [],
    **{m: ["--samples-per-class", "60", "--epochs", "80"]
       for m in ("mixup", "cutmix", "patchmix", "guided")},
}


def load_tree(root: Path):
    """``(cli.main, workload.make_config, workload.environment)`` of the tree
    at ``root``."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from patchmix import cli
    import workload

    return cli.main, workload.make_config, workload.environment


def environment(perfbench_environment) -> dict:
    """What the bytes depend on besides the code: Python, the machine and the
    SIMD extensions numpy found, and perfbench's record of numpy, its BLAS
    build and the BLAS thread settings."""
    import numpy as np

    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (TypeError, KeyError):
        simd = "unknown"
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "simd": simd,
        **perfbench_environment(),
    }


def file_digests(run_dir: Path) -> dict[str, str]:
    """sha256 of every file of ``run_dir``, by file name."""
    paths = sorted(run_dir.iterdir()) if run_dir.is_dir() else []
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def guided_set_digests(run_dir: Path) -> dict[str, str]:
    """sha256 of the guided set that ``run_dir``'s ``best_individual.txt``
    and ``guided_set.txt`` compose from the training set of its
    ``config.json``, one entry per array; none if the run wrote no manifest."""
    from patchmix.cli import build_dataset, load_run_config
    from patchmix.evolution import load_individual
    from patchmix.workflow import load_guided_manifest, materialize_guided

    if not (run_dir / "guided_set.txt").exists():
        return {}
    train = build_dataset(load_run_config(run_dir / "config.json").dataset, val=False)
    best, _ = load_individual(run_dir / "best_individual.txt")
    guided = materialize_guided(best, train, load_guided_manifest(run_dir / "guided_set.txt"))
    arrays = ("patches", "image_labels", "patch_labels")
    return {name: hashlib.sha256(getattr(guided, name).tobytes()).hexdigest() for name in arrays}


def run_command(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def digest_pipeline(main, config: dict, run_dir: Path) -> dict:
    """Run ``pipeline`` on ``config`` into ``run_dir``; its exit code, stdout,
    file digests and guided-set digests."""
    config_path = run_dir.parent / f"{run_dir.name}.json"
    config_path.write_text(json.dumps({**config, "output_dir": str(run_dir)}))
    code, stdout = run_command(main, ["pipeline", "--config", str(config_path)])
    return {
        "exit_code": code,
        "stdout": stdout,
        "files": file_digests(run_dir),
        "guided_set": guided_set_digests(run_dir),
    }


def digest_demo(main, method: str, out: Path) -> dict:
    code, stdout = run_command(
        main, ["boundary-demo", "--method", method, "--out", str(out), *DEMO_RUNS[method]]
    )
    return {"exit_code": code, "stdout": stdout, "files": file_digests(out.parent)}


def digest_ablation(batch_size: int) -> dict:
    """sha256 of the ablation CSV lines (grids 2, 4 and 8 under every loss
    mode) at acceptance criterion 8's settings with ``batch_size``."""
    from patchmix.data import synth_shapes
    from patchmix.model import TrainConfig
    from patchmix.workflow import ablation_csv_lines, ablation_grid

    train, val = synth_shapes(3, 16, 20, 31), synth_shapes(3, 16, 8, 32)
    cfg = TrainConfig(epochs=3, batch_size=batch_size, hidden_dim=16, seed=7)
    lines = "\n".join(ablation_csv_lines(ablation_grid(train, val, cfg))) + "\n"
    return {"csv": hashlib.sha256(lines.encode()).hexdigest()}


def entries(run: dict) -> dict:
    """A run's digests as flat ``name: value`` pairs, a nested one as
    ``group/name``."""
    flat = {}
    for key, value in run.items():
        if isinstance(value, dict):
            flat.update({f"{key}/{name}": v for name, v in value.items()})
        else:
            flat[key] = value
    return flat


def differences(a: dict, b: dict) -> list[str]:
    """One line per entry of two digest files that differs or that only one
    has, and one per run that only one has."""
    lines = []
    for name in sorted(a["runs"].keys() | b["runs"].keys()):
        if name not in a["runs"] or name not in b["runs"]:
            lines.append(f"{name}: only in {'A' if name in a['runs'] else 'B'}")
            continue
        ra, rb = entries(a["runs"][name]), entries(b["runs"][name])
        for key in sorted(ra.keys() | rb.keys()):
            va, vb = ra.get(key, "missing"), rb.get(key, "missing")
            if va != vb:
                lines.append(f"{name} {key}: {va!r} != {vb!r}")
    return lines


def write_record(record: dict, path: Path) -> None:
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--root", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        lines = differences(a, b)
        print("\n".join(lines) if lines else "no differences")
        if lines:
            return 1
        verified = a.get("environments", [])
        added = [env for env in b.get("environments", []) if env not in verified]
        if added:
            a["environments"] = verified + added
            write_record(a, args.compare[0])
            print(f"{args.compare[0]}: added {len(added)} verified environment(s)")
        return 0
    if args.out is None:
        parser.error("--out or --compare is required")
    os.environ.update(BLAS_ENV)  # before numpy loads
    cli_main, make_config, perfbench_environment = load_tree(args.root.resolve())
    runs = {}
    with tempfile.TemporaryDirectory(prefix="pmx-digests-") as tmp:
        for workload in WORKLOADS:
            for seed in SEEDS:
                for objective in OBJECTIVES:
                    name = f"{workload}/seed{seed}/{objective}"
                    config = make_config(workload, seed, "")
                    config["search"]["objective"] = objective
                    run_dir = Path(tmp) / name.replace("/", "-")
                    runs[name] = digest_pipeline(cli_main, config, run_dir)
        for method in DEMO_RUNS:
            out = Path(tmp) / f"demo-{method}" / "raster.csv"
            runs[f"boundary-demo/{method}"] = digest_demo(cli_main, method, out)
    for batch_size in ABLATION_BATCH_SIZES:
        runs[f"ablation/batch{batch_size}"] = digest_ablation(batch_size)
    write_record({"environments": [environment(perfbench_environment)], "runs": runs}, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

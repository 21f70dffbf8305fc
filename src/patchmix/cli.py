"""Command line interface.

Commands: train-random, search, generate, train-guided, pipeline, eval,
boundary-demo.  Exit codes: 0 success, 2 configuration/format error,
3 numeric failure.

Runs are driven by a JSON config with three sections — ``dataset``,
``train``, ``search`` — plus the top-level key ``output_dir``.
Unknown keys are rejected by name.  The config snapshot written into the
run directory normalizes ``output_dir`` to "." so that two runs of the
same config into different directories stay byte-identical.

The CLI alone reads and writes a run directory.  :data:`PHASE_FILES`
lists the artifacts each phase command writes there, and one rule holds:
the directory's ``config.json`` records the settings that made every
artifact in it.  So a phase command checks each artifact there that it
will not rewrite, its inputs first, and refuses (exit 2) those other
settings made or one with no ``config.json`` (:func:`_prepare`); then it
loads its inputs and datasets, runs its phase and hands the results to
the recorder :func:`_prepare` returned.  The recorder's first call removes
the artifacts the command will rewrite and writes ``config.json``; each
call then writes its phase's artifacts.  So a command that refuses, fails
or is stopped before its first phase ends leaves the directory as it
was, and one stopped later leaves no artifact ``config.json`` omits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    _write_atomic,
    sniff_and_load,
    synth_shapes,
    toy_2d_three_class,
)
from .errors import ConfigError, FormatError, NumericError
from .evolution import SearchConfig, load_individual, save_history, save_individual
from .mixing import cutmix, mixup
from .model import (
    TrainConfig,
    _check_epsilon,
    _shuffled_pairs,
    _train_loop,
    adversarial_accuracy,
    evaluate_model,
    forward_batch,
    load_model,
    save_metrics,
    save_model,
    train_random_patchmix,
)
from .workflow import (
    guided_recipe,
    load_guided_manifest,
    run_fitness_search,
    run_guided_pipeline,
    save_guided_manifest,
    train_guided_model,
)

log = logging.getLogger("patchmix.cli")

DATASET_KINDS = ("synth", "cifar", "toy")
DEMO_METHODS = ("none", "mixup", "cutmix", "patchmix", "guided")
GRID_RESOLUTION = 200
# The demo's mixup blend weight is Beta(MIXUP_BETA, MIXUP_BETA), i.e. uniform.
MIXUP_BETA = 1.0
CONFIG_SNAPSHOT_FILE = "config.json"
FITNESS_MODEL_FILE = "f_t_model.pmxm"
FITNESS_METRICS_FILE = "f_t_metrics.csv"
SEARCH_HISTORY_FILE = "search_history.csv"
BEST_INDIVIDUAL_FILE = "best_individual.txt"
GUIDED_MANIFEST_FILE = "guided_set.txt"
FINAL_MODEL_FILE = "f_o_model.pmxm"
FINAL_METRICS_FILE = "f_o_metrics.csv"
# The run directory besides config.json: each phase command and the
# artifacts it writes, in phase order (see _made_by and _recorder).
PHASE_FILES = {
    "train-random": (FITNESS_MODEL_FILE, FITNESS_METRICS_FILE),
    "search": (SEARCH_HISTORY_FILE, BEST_INDIVIDUAL_FILE),
    "generate": (GUIDED_MANIFEST_FILE,),
    "train-guided": (FINAL_MODEL_FILE, FINAL_METRICS_FILE),
}


@dataclass
class DatasetConfig:
    kind: str = "synth"
    class_count: int = 3
    image_size: int = 16
    train_per_class: int = 200
    val_per_class: int = 50
    seed: int = 1
    val_seed: int | None = None  # defaults to seed + 1
    train_path: str | None = None
    val_path: str | None = None

    def validate(self) -> None:
        if self.kind not in DATASET_KINDS:
            raise ConfigError(f"dataset.kind must be one of {DATASET_KINDS}, got {self.kind!r}")
        if self.kind == "cifar":
            if not self.train_path:
                raise ConfigError("missing config key dataset.train_path (required for cifar)")
            if not self.val_path:
                raise ConfigError("missing config key dataset.val_path (required for cifar)")
        else:
            for key in ("train_path", "val_path"):
                if getattr(self, key) is not None:
                    raise ConfigError(
                        f"config key dataset.{key} is read only for kind 'cifar', "
                        f"got kind {self.kind!r}"
                    )
        if self.kind == "toy" and self.class_count != 3:
            raise ConfigError(
                f"dataset.class_count must be 3 for kind 'toy', got {self.class_count}"
            )


@dataclass
class RunConfig:
    dataset: DatasetConfig
    train: TrainConfig
    search: SearchConfig
    output_dir: str = "runs/out"

    def validate(self) -> None:
        self.dataset.validate()
        self.train.validate()
        self.search.validate()


_SECTION_TYPES = {"dataset": DatasetConfig, "train": TrainConfig, "search": SearchConfig}


# The JSON value types that fit a config field of each type, and their name.
_JSON_TYPES = {
    bool: ((bool,), "a boolean"), int: ((int,), "an integer"), float: ((int, float), "a number"),
    str: ((str,), "a string"), type(None): ((type(None),), "null"),
}


def _check_json_type(name: str, value, hint) -> None:
    """Reject ``value`` unless its JSON type fits the field type ``hint``: an
    integer fits a float field, a boolean fits no number field, and the
    ``NaN`` and ``Infinity`` that Python's ``json`` reads fit none."""
    kinds = typing.get_args(hint) or (hint,)
    if not any(type(value) in _JSON_TYPES[kind][0] for kind in kinds):
        expected = " or ".join(_JSON_TYPES[kind][1] for kind in kinds)
        raise ConfigError(f"config key {name} must be {expected}, got {json.dumps(value)}")
    if type(value) is float and not math.isfinite(value):
        raise ConfigError(f"config key {name} must be a finite number, got {json.dumps(value)}")


def _build_section(cls, data: dict, section: str):
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        if key not in hints:
            raise ConfigError(f"unknown config key {section}.{key}")
        _check_json_type(f"{section}.{key}", value, hints[key])
    return cls(**data)


def run_config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    allowed = {f.name for f in dataclasses.fields(RunConfig)}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key}")
    sections = {}
    for name, cls in _SECTION_TYPES.items():
        raw = data.get(name, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"config section {name} must be an object")
        sections[name] = _build_section(cls, raw, name)
    output_dir = data.get("output_dir", RunConfig.output_dir)
    _check_json_type("output_dir", output_dir, str)
    cfg = RunConfig(sections["dataset"], sections["train"], sections["search"], output_dir)
    cfg.validate()
    return cfg


def run_config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_run_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: invalid JSON ({err})") from err
    return run_config_from_dict(data)


def save_config_snapshot(cfg: RunConfig, run_dir: Path) -> None:
    snapshot = run_config_to_dict(cfg)
    snapshot["output_dir"] = "."
    _write_atomic(
        run_dir / CONFIG_SNAPSHOT_FILE, [json.dumps(snapshot, indent=2, sort_keys=True) + "\n"]
    )


def build_dataset(dc: DatasetConfig, val: bool) -> Dataset:
    """The validation set of ``dc`` if ``val``, else its training set."""
    dc.validate()
    per_class, seed, path = dc.train_per_class, dc.seed, dc.train_path
    if val:
        per_class, path = dc.val_per_class, dc.val_path
        seed = dc.val_seed if dc.val_seed is not None else dc.seed + 1
    if dc.kind == "synth":
        return synth_shapes(dc.class_count, dc.image_size, per_class, seed)
    if dc.kind == "toy":
        return toy_2d_three_class(per_class, seed)
    return sniff_and_load(path)  # a CIFAR binary batch or a .pmxd dataset file


def build_datasets(dc: DatasetConfig) -> tuple[Dataset, Dataset]:
    return build_dataset(dc, val=False), build_dataset(dc, val=True)


def _made_by(name: str) -> tuple[str, tuple[str, ...]]:
    """The phase command that writes artifact ``name`` and the config sections
    that make it: ``dataset`` and ``train`` for phase 1's, all three after."""
    command = next(command for command, files in PHASE_FILES.items() if name in files)
    if command == "train-random":
        return command, ("dataset", "train")
    return command, ("dataset", "train", "search")


def _prepare(args, command: str, *reads: str) -> tuple[RunConfig, Path, typing.Callable]:
    """The run config of ``args`` (``--seed`` applied), its run directory and
    the :func:`_recorder` of the artifacts ``command`` will write there,
    once every artifact there that it will not rewrite is found to come
    from these settings.

    ``reads`` are the artifacts the command needs; a missing one is refused,
    naming the command that writes it.  ``pipeline`` needs none: it reuses a
    phase-1 checkpoint it finds and rewrites everything else.  The artifacts
    are taken ``reads`` first, then in :data:`PHASE_FILES` order.  Each
    section that made one must be in ``config.json`` as in the config, or
    its first differing key is named, and every artifact the section made;
    one with no ``config.json`` is refused too.  Nothing is written here."""
    cfg = load_run_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.train = dataclasses.replace(cfg.train, seed=args.seed)
        cfg.search = dataclasses.replace(cfg.search, seed=args.seed)
        cfg.validate()
    run_dir = Path(cfg.output_dir)
    artifacts = tuple(name for files in PHASE_FILES.values() for name in files)
    writes = PHASE_FILES.get(command, artifacts)
    if command == "pipeline" and (run_dir / FITNESS_MODEL_FILE).exists():  # phase 1 is skipped
        writes = tuple(name for name in artifacts if name not in PHASE_FILES["train-random"])
    for name in reads:
        if not (run_dir / name).exists():
            raise ConfigError(f"missing {run_dir / name}; run {_made_by(name)[0]} first")
    kept = [
        run_dir / name for name in dict.fromkeys((*reads, *artifacts))
        if name not in writes and (run_dir / name).exists()
    ]
    record = _recorder(cfg, run_dir, writes)
    if not kept:
        return cfg, run_dir, record
    snapshot_path = run_dir / CONFIG_SNAPSHOT_FILE
    advice = "remove it or choose another output_dir"
    if not snapshot_path.exists():
        raise ConfigError(f"{kept[0]} has no record of the settings that made it; {advice}")
    try:
        saved = json.loads(snapshot_path.read_text())
    except json.JSONDecodeError as err:
        raise FormatError(f"{snapshot_path}: invalid JSON ({err})") from err
    wanted = run_config_to_dict(cfg)
    for section in _SECTION_TYPES:
        made = [artifact for artifact in kept if section in _made_by(artifact.name)[1]]
        if not made:
            continue
        old, new = saved.get(section) if isinstance(saved, dict) else None, wanted[section]
        if not isinstance(old, dict):
            raise FormatError(f"{snapshot_path}: config section {section} is not an object")
        for key in {**new, **old}:  # the config's keys, then those only the snapshot has
            found, asked = (json.dumps(d[key]) if key in d else "unset" for d in (old, new))
            if found != asked:
                names = ", ".join(artifact.name for artifact in made)
                raise ConfigError(
                    f"{made[0]} was made with {section}.{key} = {found} ({snapshot_path}), but "
                    f"the config asks for {asked}; remove {names} or choose another output_dir"
                )
    return cfg, run_dir, record


def _recorder(cfg: RunConfig, run_dir: Path, writes: tuple[str, ...]) -> typing.Callable:
    """The ``record(phase, *results)`` that writes each phase's results into
    ``run_dir`` as its artifacts in :data:`PHASE_FILES`.  Its first call
    makes the run directory, removes the artifacts ``writes`` names and
    records the settings, so that ``config.json`` describes every artifact
    there even if a later phase fails or is interrupted."""
    begun = False

    def record(phase: int, *results) -> None:
        nonlocal begun
        if not begun:
            run_dir.mkdir(parents=True, exist_ok=True)
            for name in writes:
                (run_dir / name).unlink(missing_ok=True)
            save_config_snapshot(cfg, run_dir)
            begun = True
        paths = [run_dir / name for name in list(PHASE_FILES.values())[phase - 1]]
        if phase == 2:
            best, history = results
            save_history(history, paths[0])
            save_individual(best, cfg.search.resolve_max_active(best.class_count), paths[1])
        elif phase == 3:
            save_guided_manifest(results[0], paths[0])
        else:  # phases 1 and 4: a model and its metrics
            save_model(results[0], paths[0])
            save_metrics(results[1], paths[1])
        log.info("phase %d saved: %s", phase, ", ".join(str(path) for path in paths))

    return record


def cmd_train_random(args) -> int:
    cfg, _, record = _prepare(args, "train-random")
    train, val = build_datasets(cfg.dataset)
    model, metrics = train_random_patchmix(train, val, cfg.train)
    record(1, model, metrics)
    last = metrics[-1]
    print(f"val_top1,{last.val_top1!r}")
    print(f"val_patch_acc,{last.val_patch_acc!r}")
    return 0


def cmd_search(args) -> int:
    cfg, run_dir, record = _prepare(args, "search", FITNESS_MODEL_FILE)
    model = load_model(run_dir / FITNESS_MODEL_FILE)
    val = build_dataset(cfg.dataset, val=True)
    best, history = run_fitness_search(model, val, cfg.search)
    record(2, best, history)
    print(f"best_score,{best.fitness!r}")
    print(f"generations,{history[-1].generation}")
    return 0


def cmd_generate(args) -> int:
    cfg, run_dir, record = _prepare(args, "generate", BEST_INDIVIDUAL_FILE)
    best, _ = load_individual(run_dir / BEST_INDIVIDUAL_FILE)
    train = build_dataset(cfg.dataset, val=False)
    recipe = guided_recipe(best, train, cfg.train)
    record(3, recipe)
    print(f"guided_samples,{len(recipe)}")
    return 0


def cmd_train_guided(args) -> int:
    cfg, run_dir, record = _prepare(
        args, "train-guided", BEST_INDIVIDUAL_FILE, GUIDED_MANIFEST_FILE
    )
    best, _ = load_individual(run_dir / BEST_INDIVIDUAL_FILE)
    recipe = load_guided_manifest(run_dir / GUIDED_MANIFEST_FILE)
    train, val = build_datasets(cfg.dataset)
    model, metrics = train_guided_model(best, recipe, train, val, cfg.train)
    record(4, model, metrics)
    print(f"val_top1,{metrics[-1].val_top1!r}")
    return 0


def cmd_pipeline(args) -> int:
    cfg, run_dir, record = _prepare(args, "pipeline")
    checkpoint = run_dir / FITNESS_MODEL_FILE
    fitness_model = load_model(checkpoint) if checkpoint.exists() else None
    train, val = build_datasets(cfg.dataset)
    result = run_guided_pipeline(train, val, cfg.train, cfg.search, fitness_model, record)
    last = result.final_metrics[-1]
    print(f"best_score,{result.best_individual.fitness!r}")
    print(f"val_top1,{last.val_top1!r}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    dataset = sniff_and_load(args.dataset)
    # "fgsm" is the one attack; a bad epsilon is refused before any output
    epsilons = (args.epsilon or [0.1, 0.2, 0.3]) if args.attack else []
    for eps in epsilons:
        _check_epsilon(eps)
    top1, patch_acc = evaluate_model(model, dataset)
    print(f"clean_top1,{top1!r}")
    print(f"clean_patch_acc,{patch_acc!r}")
    if epsilons:
        print("epsilon,adversarial_top1")
        for eps in epsilons:
            print(f"{eps!r},{adversarial_accuracy(model, dataset, eps)!r}")
    return 0


# --- boundary demo ----------------------------------------------------------
#
# The three-cluster toy stores each 2-feature point as a 1x2x1 image, and
# the demo model uses grid size 1: the single patch covers both features,
# so the encoder is an ordinary two-layer network over the point.  Grid
# masks at this size have exactly two choices (keep or swap the whole
# point); the rectangle-transplant baseline moves a 1x1 region, i.e. one
# feature.  A finer grid is no better here: single-pixel patches through
# the shared encoder cannot tell the two features apart.


def _demo_train(method: str, train: Dataset, val: Dataset, cfg: TrainConfig):
    if method == "none":
        plain = dataclasses.replace(cfg, mix_probability=0.0)
        model, _ = train_random_patchmix(train, val, plain)
        return model
    if method == "patchmix":
        model, _ = train_random_patchmix(train, val, cfg)
        return model
    if method in ("mixup", "cutmix"):
        image_cfg = dataclasses.replace(cfg, loss_mode="image_only")
        p = image_cfg.grid_size

        def batches(rng: np.random.Generator, patches: np.ndarray):
            for idx, partner in _shuffled_pairs(len(train), image_cfg.batch_size, rng):
                sources = (train.images, idx, partner, train.labels[idx], train.labels[partner])
                out = patches[: len(idx)]
                if method == "mixup":
                    lam = rng.beta(MIXUP_BETA, MIXUP_BETA, size=len(idx))
                    yield mixup(*sources, lam, train.class_count, p, out=out)
                else:
                    yield cutmix(*sources, rng, 1, 1, train.class_count, p, out=out)

        return _train_loop(train, val, image_cfg, batches, "rand-train")[0]
    if method == "guided":
        search_cfg = SearchConfig(
            population_size=60,
            generations=15,
            pairs_per_combo=16,
            patience=15,
            seed=cfg.seed,
        )
        return run_guided_pipeline(train, val, cfg, search_cfg).final_model
    raise ConfigError(f"unknown method {method!r}")


def cmd_boundary_demo(args) -> int:
    out_path = Path(args.out)
    rows = run_boundary_demo(
        args.method,
        seed=args.seed,
        samples_per_class=args.samples_per_class,
        epochs=args.epochs,
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_path, ["\n".join(rows) + "\n"])
    print(f"grid_rows,{len(rows) - 1}")
    return 0


def run_boundary_demo(
    method: str,
    seed: int = 0,
    samples_per_class: int = 100,
    epochs: int = 200,
) -> list[str]:
    """Train on the three-cluster toy and rasterize the decision regions.

    Returns CSV lines ("x,y,class" header plus 200x200 grid rows over the
    data bounding box).
    """
    if method not in DEMO_METHODS:
        raise ConfigError(f"method must be one of {DEMO_METHODS}, got {method!r}")
    train = toy_2d_three_class(samples_per_class, seed)
    val = toy_2d_three_class(max(20, samples_per_class // 4), seed + 1)
    cfg = TrainConfig(epochs=epochs, grid_size=1, hidden_dim=32, seed=seed)
    model = _demo_train(method, train, val, cfg)

    feats = train.images.reshape(len(train), 2).astype(np.float64)
    xs = np.linspace(feats[:, 0].min(), feats[:, 0].max(), GRID_RESOLUTION)
    ys = np.linspace(feats[:, 1].min(), feats[:, 1].max(), GRID_RESOLUTION)
    lines = ["x,y,class"]
    for y in ys:
        grid = np.stack([xs, np.full_like(xs, y)], axis=1)
        points = grid.astype(np.float32).reshape(-1, 1, 2, 1)
        _, image_logits = forward_batch(model, points)
        preds = np.argmax(image_logits, axis=1)
        lines.extend(f"{float(x)!r},{float(y)!r},{int(p)}" for x, p in zip(xs, preds))
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchmix",
        description="Grid-mask pairwise interpolation with patch supervision and guided mask search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON run config")
        cmd.add_argument("--seed", type=int, default=None, help="override train/search seeds")
        cmd.set_defaults(func=func)
        return cmd

    add_config_command("train-random", cmd_train_random, "phase 1: train on randomly mixed batches")
    add_config_command("search", cmd_search, "phase 2: genetic mask/pair search")
    add_config_command("generate", cmd_generate, "phase 3: write the guided set manifest")
    add_config_command("train-guided", cmd_train_guided, "phase 4: train the final model")
    add_config_command("pipeline", cmd_pipeline, "all four phases")

    ev = sub.add_parser("eval", help="evaluate a model checkpoint on a dataset file")
    ev.add_argument("--model", required=True)
    ev.add_argument("--dataset", required=True, help="dataset checkpoint or CIFAR binary batch")
    ev.add_argument("--attack", default=None, choices=["fgsm"])
    ev.add_argument(
        "--epsilon", type=float, action="append", default=None,
        help="attack strength; repeat for several values (default 0.1 0.2 0.3)",
    )
    ev.set_defaults(func=cmd_eval)

    demo = sub.add_parser("boundary-demo", help="decision-region raster on the 2-D toy data")
    demo.add_argument("--method", required=True, choices=DEMO_METHODS)
    demo.add_argument("--out", required=True, help="output CSV path")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--samples-per-class", type=int, default=100)
    demo.add_argument("--epochs", type=int, default=200)
    demo.set_defaults(func=cmd_boundary_demo)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

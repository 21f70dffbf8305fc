"""Command line interface.

Commands: train-random, search, generate, train-guided, pipeline, eval,
boundary-demo.  Exit codes: 0 success, 2 configuration/format error,
3 numeric failure.

Runs are driven by a JSON config with three sections — ``dataset``,
``train``, ``search`` — plus the top-level key ``output_dir``.
Unknown keys are rejected by name.  The config snapshot written into the
run directory normalizes ``output_dir`` to "." so that two runs of the
same config into different directories stay byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import tempfile
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
from .evolution import SearchConfig, load_individual
from .mixing import MixedBatch, cutmix, mixup
from .model import (
    TrainConfig,
    _shuffled_pairs,
    _train_loop,
    adversarial_accuracy,
    evaluate_model,
    forward_batch,
    load_model,
    patchify,
    train_random_patchmix,
)
from .workflow import (
    BEST_INDIVIDUAL_FILE,
    FITNESS_MODEL_FILE,
    GUIDED_MANIFEST_FILE,
    load_guided_manifest,
    run_fitness_search,
    run_guided_pipeline,
    train_fitness_model,
    train_guided_model,
    write_guided_manifest,
)

log = logging.getLogger("patchmix.cli")

DATASET_KINDS = ("synth", "cifar", "toy")
DEMO_METHODS = ("none", "mixup", "cutmix", "patchmix", "guided")
GRID_RESOLUTION = 200
# The demo's mixup blend weight is Beta(MIXUP_BETA, MIXUP_BETA), i.e. uniform.
MIXUP_BETA = 1.0
CONFIG_SNAPSHOT_FILE = "config.json"


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


def _build_section(cls, data: dict, section: str):
    allowed = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown config key {section}.{key}")
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
    cfg = RunConfig(
        dataset=sections["dataset"],
        train=sections["train"],
        search=sections["search"],
        output_dir=data.get("output_dir", RunConfig.output_dir),
    )
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


def build_datasets(dc: DatasetConfig) -> tuple[Dataset, Dataset]:
    dc.validate()
    val_seed = dc.val_seed if dc.val_seed is not None else dc.seed + 1
    if dc.kind == "synth":
        train = synth_shapes(dc.class_count, dc.image_size, dc.train_per_class, dc.seed)
        val = synth_shapes(dc.class_count, dc.image_size, dc.val_per_class, val_seed)
    elif dc.kind == "toy":
        train = toy_2d_three_class(dc.train_per_class, dc.seed)
        val = toy_2d_three_class(dc.val_per_class, val_seed)
    else:  # a CIFAR binary batch or a .pmxd dataset file, each path on its own
        train = sniff_and_load(dc.train_path)
        val = sniff_and_load(dc.val_path)
    return train, val


def _prepare(args) -> tuple[RunConfig, Path]:
    cfg = load_run_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.train = dataclasses.replace(cfg.train, seed=args.seed)
        cfg.search = dataclasses.replace(cfg.search, seed=args.seed)
    run_dir = Path(cfg.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    return cfg, run_dir


def _existing(path: Path, step: str) -> Path:
    if not path.exists():
        raise ConfigError(f"missing {path}; run {step} first")
    return path


def cmd_train_random(args) -> int:
    cfg, run_dir = _prepare(args)
    train, val = build_datasets(cfg.dataset)
    _, metrics = train_fitness_model(train, val, cfg.train, run_dir)
    save_config_snapshot(cfg, run_dir)
    last = metrics[-1]
    print(f"val_top1,{last.val_top1!r}")
    print(f"val_patch_acc,{last.val_patch_acc!r}")
    return 0


def cmd_search(args) -> int:
    cfg, run_dir = _prepare(args)
    model = load_model(_existing(run_dir / FITNESS_MODEL_FILE, "train-random"))
    _, val = build_datasets(cfg.dataset)
    best, history = run_fitness_search(model, val, cfg.search, run_dir)
    save_config_snapshot(cfg, run_dir)
    print(f"best_score,{best.fitness!r}")
    print(f"generations,{history[-1].generation}")
    return 0


def cmd_generate(args) -> int:
    cfg, run_dir = _prepare(args)
    best, _ = load_individual(_existing(run_dir / BEST_INDIVIDUAL_FILE, "search"))
    train, _ = build_datasets(cfg.dataset)
    recipe = write_guided_manifest(best, train, cfg.train, run_dir)
    save_config_snapshot(cfg, run_dir)
    print(f"guided_samples,{len(recipe)}")
    return 0


def cmd_train_guided(args) -> int:
    cfg, run_dir = _prepare(args)
    best, _ = load_individual(_existing(run_dir / BEST_INDIVIDUAL_FILE, "search"))
    recipe = load_guided_manifest(_existing(run_dir / GUIDED_MANIFEST_FILE, "generate"))
    train, val = build_datasets(cfg.dataset)
    _, metrics = train_guided_model(best, recipe, train, val, cfg.train, run_dir)
    save_config_snapshot(cfg, run_dir)
    print(f"val_top1,{metrics[-1].val_top1!r}")
    return 0


def cmd_pipeline(args) -> int:
    cfg, run_dir = _prepare(args)
    train, val = build_datasets(cfg.dataset)
    result = run_guided_pipeline(train, val, cfg.train, cfg.search, run_dir)
    save_config_snapshot(cfg, run_dir)
    last = result.final_metrics[-1]
    print(f"best_score,{result.best_individual.fitness!r}")
    print(f"val_top1,{last.val_top1!r}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    dataset = sniff_and_load(args.dataset)
    top1, patch_acc = evaluate_model(model, dataset)
    print(f"clean_top1,{top1!r}")
    print(f"clean_patch_acc,{patch_acc!r}")
    if args.attack is not None:
        if args.attack != "fgsm":
            raise ConfigError(f"unknown attack {args.attack!r}")
        epsilons = args.epsilon if args.epsilon else [0.1, 0.2, 0.3]
        print("epsilon,adversarial_top1")
        for eps in epsilons:
            adv = adversarial_accuracy(model, dataset, eps)
            print(f"{eps!r},{adv!r}")
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

        def batches(epoch: int, rng: np.random.Generator):
            for idx, partner in _shuffled_pairs(len(train), image_cfg.batch_size, rng):
                samples = []
                for i, j in zip(idx, partner):
                    xi, yi = train.images[i], int(train.labels[i])
                    xj, yj = train.images[j], int(train.labels[j])
                    if method == "mixup":
                        lam = float(rng.beta(MIXUP_BETA, MIXUP_BETA))
                        samples.append(mixup(xi, yi, xj, yj, lam, train.class_count))
                    else:
                        samples.append(cutmix(xi, yi, xj, yj, rng, 1, 1, train.class_count))
                yield MixedBatch(
                    patchify(np.stack([s.image for s in samples]), image_cfg.grid_size),
                    np.stack([s.image_label for s in samples]),
                    None,
                )

        return _train_loop(train, val, image_cfg, batches, "rand-train")[0]
    if method == "guided":
        search_cfg = SearchConfig(
            population_size=60,
            generations=15,
            pairs_per_combo=16,
            patience=15,
            seed=cfg.seed,
        )
        with tempfile.TemporaryDirectory(prefix="pmx-demo-") as tmp:
            result = run_guided_pipeline(train, val, cfg, search_cfg, Path(tmp))
        return result.final_model
    raise ConfigError(f"unknown method {method!r}")


def cmd_boundary_demo(args) -> int:
    if args.method not in DEMO_METHODS:
        raise ConfigError(f"method must be one of {DEMO_METHODS}, got {args.method!r}")
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
    except (ConfigError, FormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

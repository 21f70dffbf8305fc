"""Four-phase guided training pipeline.

Each phase is one function that writes its artifacts into the run
directory; the CLI phase commands and :func:`run_guided_pipeline` call the
same four.

1. :func:`train_fitness_model` trains a fitness model on randomly
   grid-mixed batches (full combined objective).
2. :func:`run_fitness_search` searches mask/pair genomes against the
   frozen fitness model, scored from one forward pass of a seeded fraction
   of the validation set.
3. :func:`write_guided_manifest` draws the guided recipe from the best
   genome (one entry per training image: uniform active slot, one training
   image per class side; each of the three is drawn for all entries at
   once).  The genome must have the dataset's class count.
4. :func:`train_guided_model` composes the recipe's guided set, stored as
   float32 patch matrices (every entry must name an active slot and
   training images of that slot's classes), and trains the final model on
   batches composed of original, randomly mixed, and guided samples —
   minimizing only the image-level loss (:func:`train_final`).  Each batch
   is one patch matrix: the original and random rows composed in one call,
   the guided rows cast into its tail.

Re-running the pipeline with an existing phase-1 checkpoint skips phase 1
and produces identical downstream results for the same seeds.  A
checkpoint whose model shape differs from the one the config would train
is refused, not reused.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset, _write_atomic
from .errors import ConfigError, FormatError
from .evolution import (
    FitnessTable,
    Individual,
    SearchConfig,
    evaluate_fitness,
    index_to_pair,
    run_search,
    save_history,
    save_individual,
)
from .masks import PatchMask, sample_mask_bits
from .mixing import MixedBatch, patchmix, patchmix_batch
from .model import (
    EpochMetrics,
    ReferenceModel,
    TrainConfig,
    _check_train_inputs,
    _model_dims,
    _train_loop,
    load_model,
    patchify,
    save_metrics,
    save_model,
    train_random_patchmix,
)
from .rng import RngKey

log = logging.getLogger("patchmix.workflow")

FITNESS_MODEL_FILE = "f_t_model.pmxm"
FITNESS_METRICS_FILE = "f_t_metrics.csv"
SEARCH_HISTORY_FILE = "search_history.csv"
BEST_INDIVIDUAL_FILE = "best_individual.txt"
GUIDED_MANIFEST_FILE = "guided_set.txt"
FINAL_MODEL_FILE = "f_o_model.pmxm"
FINAL_METRICS_FILE = "f_o_metrics.csv"

DEFAULT_BATCH_RATIO = (1, 1, 1)


@dataclass
class PipelineResult:
    fitness_model: ReferenceModel
    fitness_metrics: list[EpochMetrics] | None
    best_individual: Individual
    history: list
    final_model: ReferenceModel
    final_metrics: list[EpochMetrics]
    run_dir: Path


def _check_genome_classes(individual: Individual, train: Dataset) -> None:
    """Reject a genome whose slots name class pairs of another class count."""
    if individual.class_count != train.class_count:
        raise ConfigError(
            f"genome has {individual.class_count} classes, but the training set "
            f"has {train.class_count}"
        )


def draw_guided_recipe(
    individual: Individual, train: Dataset, count: int, rng: np.random.Generator
) -> list[tuple[int, int, int]]:
    """(slot, image index for the mask-1 class, image index for the other).

    Each entry picks an active slot uniformly, then one training image per
    class side uniformly (:meth:`Dataset.draw_of_class`).  The slots of all
    entries are drawn first, then every mask-1 image, then every other image.
    """
    _check_genome_classes(individual, train)
    active = individual.active_slots()
    if len(active) == 0:
        raise ConfigError("individual has no active pairs")
    if count < 0:
        raise ConfigError("count must be non-negative")
    pairs = np.array([index_to_pair(int(slot), train.class_count) for slot in active])
    pick = rng.integers(len(active), size=count)
    i = train.draw_of_class(pairs[pick, 0], rng, "training set")
    j = train.draw_of_class(pairs[pick, 1], rng, "training set")
    return list(zip(active[pick].tolist(), i.tolist(), j.tolist()))


def _check_recipe(individual: Individual, train: Dataset, recipe: np.ndarray) -> None:
    """Reject the first entry whose slot is inactive, whose image index lies
    outside the training set, or whose image is not of its side's class."""
    slot, i, j = recipe.T
    bad_slot = ~np.isin(slot, individual.active_slots())
    bad_image = (np.minimum(i, j) < 0) | (np.maximum(i, j) >= len(train))
    ok = ~(bad_slot | bad_image)
    pairs = np.array([index_to_pair(s, train.class_count) for s in range(individual.n_pairs)])
    side = pairs[slot[ok]]
    bad_class = np.zeros(len(recipe), dtype=bool)
    bad_class[ok] = (train.labels[i[ok]] != side[:, 0]) | (train.labels[j[ok]] != side[:, 1])
    problems = np.stack([bad_slot, bad_image, bad_class])
    if problems.any():
        k = int(np.argmax(problems.any(axis=0)))
        what = (
            "its slot is not active in the genome",
            f"an image index lies outside [0, {len(train)})",
            "an image is not of its side's class in the slot's pair",
        )[int(np.argmax(problems[:, k]))]
        entry = ",".join(str(v) for v in recipe[k])
        raise ConfigError(f"guided set entry {k} ({entry}): {what}")


def materialize_guided(
    individual: Individual, train: Dataset, recipe: Sequence[tuple[int, int, int]]
) -> MixedBatch:
    """The guided set of a recipe as patch matrices, one row per
    ``(slot, i, j)`` entry, each composed by one :func:`patchmix` call.

    The entries are checked against the genome and the training set first.
    Patches keep the dataset's float32 storage type: a composition only
    selects source pixels, so this is lossless and halves the set.
    """
    _check_genome_classes(individual, train)
    entries = np.asarray(recipe, dtype=np.int64).reshape(len(recipe), 3)
    _check_recipe(individual, train, entries)
    n, c, p = len(entries), train.class_count, individual.grid_size
    height, width, channels = train.images.shape[1:]
    guided = MixedBatch(
        np.empty((n, p * p, (height // p) * (width // p) * channels), dtype=train.images.dtype),
        np.empty((n, c)),
        np.empty((n, p * p), dtype=np.int64),
    )
    slots = {
        slot: (PatchMask(individual.masks[slot]), index_to_pair(slot, c))
        for slot in np.unique(entries[:, 0]).tolist()
    }
    for row, (slot, i, j) in enumerate(entries.tolist()):
        mask, (ci, cj) = slots[slot]
        sample = patchmix(train.images[i], ci, train.images[j], cj, mask, c)
        patchify(sample.image[None], p, guided.patches[row : row + 1])
        guided.image_labels[row] = sample.image_label
        guided.patch_labels[row] = sample.patch_labels
    return guided


def save_guided_manifest(recipe: Sequence[tuple[int, int, int]], path) -> None:
    """Text manifest: a count header then one ``slot,i,j`` line per sample."""
    lines = [f"count={len(recipe)}"]
    lines.extend(f"{slot},{i},{j}" for slot, i, j in recipe)
    _write_atomic(path, ["\n".join(lines) + "\n"])


def load_guided_manifest(path) -> list[tuple[int, int, int]]:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or not lines[0].startswith("count="):
        raise FormatError(f"{path}: missing count header")
    try:
        count = int(lines[0].split("=", 1)[1])
    except ValueError as err:
        raise FormatError(f"{path}: bad count header {lines[0]!r}") from err
    if len(lines) - 1 != count:
        raise FormatError(f"{path}: expected {count} entries, found {len(lines) - 1}")
    recipe = []
    for line in lines[1:]:
        try:  # a field count other than three raises ValueError too
            slot, i, j = (int(p) for p in line.strip().split(","))
        except ValueError as err:
            raise FormatError(f"{path}: bad manifest line {line!r}") from err
        recipe.append((slot, i, j))
    return recipe


def split_batch(batch_size: int, ratio: tuple[int, int, int]) -> tuple[int, int, int]:
    """Original/random/guided counts for one batch; remainder goes to original."""
    if len(ratio) != 3 or any(r < 0 for r in ratio):
        raise ConfigError(f"ratio must be three non-negative integers, got {ratio}")
    total = sum(ratio)
    if total == 0:
        raise ConfigError("ratio must not be all zeros")
    n_random = batch_size * ratio[1] // total
    n_guided = batch_size * ratio[2] // total
    n_original = batch_size - n_random - n_guided
    return n_original, n_random, n_guided


class _Cycle:
    """Indices of ``range(n)`` in successive shuffled passes: each pass is a
    fresh ``rng.permutation(n)``, drawn when the first of its indices is
    taken, never earlier."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n, self.rng = n, rng
        self.order = np.empty(0, dtype=np.int64)
        self.pos = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` indices."""
        parts = [np.empty(0, dtype=np.int64)]
        while count:
            if self.pos == len(self.order):
                self.order, self.pos = self.rng.permutation(self.n), 0
            parts.append(self.order[self.pos : self.pos + count])
            self.pos += len(parts[-1])
            count -= len(parts[-1])
        return np.concatenate(parts)


def guided_batch_composer(
    train: Dataset,
    random_mixer,
    guided_set: MixedBatch,
    ratio: tuple[int, int, int],
    batch_size: int,
    batches: int,
    rng: np.random.Generator,
    grid_size: int,
) -> Iterable[MixedBatch]:
    """Yield batches of original : randomly-mixed : guided samples, each a
    fresh patch matrix.

    Originals cycle through epoch-shuffled training permutations; guided
    rows cycle through shuffled guided-set permutations;
    ``random_mixer(rng, count)`` supplies the ``(i, j, bits)`` of a batch's
    randomly mixed rows.  The original and random rows are composed in one
    :func:`patchmix_batch` call, the guided rows cast into the tail.  An
    empty sequence stands for an empty guided set.
    """
    n_original, n_random, n_guided = split_batch(batch_size, ratio)
    if n_guided and not len(guided_set):
        raise ConfigError("batch ratio requires guided samples but the set is empty")
    if len(train) == 0:
        raise ConfigError("empty training set")
    ppc = (train.height // grid_size) * (train.width // grid_size) * train.channels
    originals = _Cycle(len(train), rng)
    guided_order = _Cycle(len(guided_set), rng)
    ones = np.ones((n_original, grid_size, grid_size), dtype=np.uint8)
    n_mixed = n_original + n_random
    for _ in range(batches):
        i = j = originals.take(n_original)
        bits = ones
        if n_random:
            r_i, r_j, r_bits = random_mixer(rng, n_random)
            i, j = np.concatenate([i, r_i]), np.concatenate([j, r_j])
            bits = np.concatenate([ones, r_bits])
        patches = np.empty((batch_size, grid_size**2, ppc))
        batch = patchmix_batch(
            train.images, i, j, train.labels[i], train.labels[j], bits, train.class_count,
            out=patches[:n_mixed],
        )
        if n_guided:
            rows = guided_order.take(n_guided)
            patches[n_mixed:] = guided_set.patches[rows]
            batch = MixedBatch(
                patches,
                np.concatenate([batch.image_labels, guided_set.image_labels[rows]]),
                np.concatenate([batch.patch_labels, guided_set.patch_labels[rows]]),
            )
        yield batch


def train_final(
    train: Dataset,
    val: Dataset,
    cfg: TrainConfig,
    guided_set: MixedBatch,
    ratio: tuple[int, int, int] = DEFAULT_BATCH_RATIO,
):
    """Phase-4 trainer: composed batches, image-level objective only,
    whatever ``cfg.loss_mode`` says."""
    cfg = replace(cfg, loss_mode="image_only")
    _check_train_inputs(train, val, cfg)
    p = cfg.grid_size
    if len(guided_set) and guided_set.patches.shape[1] != p * p:
        raise ConfigError(
            f"guided set has grid size {math.isqrt(guided_set.patches.shape[1])}, "
            f"but train.grid_size is {p}"
        )
    n_batches = math.ceil(len(train) / cfg.batch_size)

    def random_mixer(rng: np.random.Generator, count: int):
        i = rng.integers(len(train), size=count)
        j = rng.integers(len(train), size=count)
        return i, j, sample_mask_bits(count, p, rng)

    def batches(epoch: int, rng: np.random.Generator):
        yield from guided_batch_composer(
            train, random_mixer, guided_set, ratio, cfg.batch_size, n_batches, rng, p
        )

    return _train_loop(train, val, cfg, batches, "final-train")


def fitness_val_subset(val: Dataset, cfg: SearchConfig) -> Dataset:
    """Seeded stratified subset of the validation set (fraction per class)."""
    if len(val) == 0:
        raise ConfigError("empty validation set")
    rng = RngKey(cfg.seed).child("val-subset").generator()
    picked = []
    for indices in val.class_indices():
        if len(indices) == 0:
            continue
        take = max(1, math.ceil(cfg.val_fraction * len(indices)))
        picked.append(rng.choice(indices, size=take, replace=False))
    chosen = np.sort(np.concatenate(picked))
    return val.subset(chosen)


def train_fitness_model(train: Dataset, val: Dataset, cfg: TrainConfig, run_dir: Path):
    """Phase 1: train the fitness model on random grid mixing and write it
    and its metrics into ``run_dir``.  Returns ``(model, metrics)``."""
    model, metrics = train_random_patchmix(train, val, cfg)
    save_model(model, run_dir / FITNESS_MODEL_FILE)
    save_metrics(metrics, run_dir / FITNESS_METRICS_FILE)
    log.info("phase 1 done: fitness model saved to %s", run_dir / FITNESS_MODEL_FILE)
    return model, metrics


def run_fitness_search(model: ReferenceModel, val: Dataset, cfg: SearchConfig, run_dir: Path):
    """Phase 2: search genomes of the model's grid against the frozen
    model, scored from one forward pass of the seeded fitness subset, and
    write the history and the best genome into ``run_dir``."""
    table = FitnessTable.build(model, fitness_val_subset(val, cfg), cfg)
    best, history = run_search(
        cfg, val.class_count, model.grid_size,
        lambda individual: evaluate_fitness(individual, table),
    )
    save_history(history, run_dir / SEARCH_HISTORY_FILE)
    save_individual(best, cfg.resolve_max_active(val.class_count), run_dir / BEST_INDIVIDUAL_FILE)
    log.info(
        "phase 2 done: best score %.6f after %d generations; "
        "%d genomes scored from a table of %d forwarded images",
        best.fitness, history[-1].generation, table.scored, len(table.terms),
    )
    return best, history


def write_guided_manifest(best: Individual, train: Dataset, cfg: TrainConfig, run_dir: Path):
    """Phase 3: draw one guided recipe entry per training image from a
    stream of the training seed and write the manifest into ``run_dir``.
    Returns the recipe."""
    rng = RngKey(cfg.seed).child("guided-set").generator()
    recipe = draw_guided_recipe(best, train, len(train), rng)
    save_guided_manifest(recipe, run_dir / GUIDED_MANIFEST_FILE)
    log.info("phase 3 done: %d guided samples", len(recipe))
    return recipe


def train_guided_model(
    best: Individual,
    recipe: Sequence[tuple[int, int, int]],
    train: Dataset,
    val: Dataset,
    cfg: TrainConfig,
    run_dir: Path,
):
    """Phase 4: compose the recipe's guided set, train the final model on it
    (:func:`train_final`) and write the model and its metrics into
    ``run_dir``.  Returns ``(model, metrics)``."""
    guided_set = materialize_guided(best, train, recipe)
    model, metrics = train_final(train, val, cfg, guided_set)
    save_model(model, run_dir / FINAL_MODEL_FILE)
    save_metrics(metrics, run_dir / FINAL_METRICS_FILE)
    log.info("phase 4 done: final model saved to %s", run_dir / FINAL_MODEL_FILE)
    return model, metrics


def _check_class_coverage(train: Dataset, val: Dataset) -> None:
    """Reject a set that lacks a class before any phase runs: the search
    scores composites of every class pair from the validation set, and
    phase 3 draws training images of the best genome's classes."""
    for name, data in (("training set", train), ("validation set", val)):
        missing = np.setdiff1d(np.arange(data.class_count), data.labels)
        if len(missing):
            raise ConfigError(f"{name} has no samples of class {missing[0]}")


def run_guided_pipeline(
    train: Dataset,
    val: Dataset,
    train_cfg: TrainConfig,
    search_cfg: SearchConfig,
    run_dir,
) -> PipelineResult:
    """Run all four phases, writing artifacts into ``run_dir``.  A training
    or validation set that lacks a class is refused before phase 1."""
    _check_class_coverage(train, val)
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    fitness_path = run_dir / FITNESS_MODEL_FILE
    fitness_metrics: list[EpochMetrics] | None = None
    if fitness_path.exists():
        fitness_model = load_model(fitness_path)
        found = (
            fitness_model.grid_size, fitness_model.class_count,
            fitness_model.hidden_dim, fitness_model.patch_pixels,
        )
        wanted = _model_dims(train, train_cfg)
        if found != wanted:
            raise ConfigError(
                f"{fitness_path} holds a model with (grid_size, class_count, hidden_dim, "
                f"patch_pixels) = {found}, but the config asks for {wanted}; remove it "
                "or choose another output_dir"
            )
        log.info("phase 1 skipped: reusing fitness model checkpoint %s", fitness_path)
    else:
        fitness_model, fitness_metrics = train_fitness_model(train, val, train_cfg, run_dir)
    best, history = run_fitness_search(fitness_model, val, search_cfg, run_dir)
    recipe = write_guided_manifest(best, train, train_cfg, run_dir)
    final_model, final_metrics = train_guided_model(best, recipe, train, val, train_cfg, run_dir)
    return PipelineResult(
        fitness_model=fitness_model,
        fitness_metrics=fitness_metrics,
        best_individual=best,
        history=history,
        final_model=final_model,
        final_metrics=final_metrics,
        run_dir=run_dir,
    )


@dataclass
class AblationRow:
    grid_size: int
    loss_mode: str
    train_loss: float
    val_top1: float
    val_patch_acc: float


def ablation_grid(
    train: Dataset,
    val: Dataset,
    base_cfg: TrainConfig,
    grid_sizes: Sequence[int] = (2, 4, 8),
    loss_modes: Sequence[str] = ("both", "image_only", "patch_only"),
) -> list[AblationRow]:
    """Train one model per (grid size, loss mode) cell and report final metrics."""
    rows = []
    for grid_size in grid_sizes:
        for loss_mode in loss_modes:
            cfg = replace(base_cfg, grid_size=grid_size, loss_mode=loss_mode)
            _, metrics = train_random_patchmix(train, val, cfg)
            last = metrics[-1]
            rows.append(
                AblationRow(grid_size, loss_mode, last.train_loss, last.val_top1, last.val_patch_acc)
            )
    return rows


def ablation_csv_lines(rows: Sequence[AblationRow]) -> list[str]:
    lines = ["grid_size,loss_mode,train_loss,val_top1,val_patch_acc"]
    lines.extend(
        f"{r.grid_size},{r.loss_mode},{r.train_loss!r},{r.val_top1!r},{r.val_patch_acc!r}"
        for r in rows
    )
    return lines

"""Four-phase guided training pipeline.

Each phase is one function that returns its results and writes nothing;
the CLI phase commands and :func:`run_guided_pipeline` call the same four.

1. :func:`~patchmix.model.train_random_patchmix` trains a fitness model on
   randomly grid-mixed batches (full combined objective).
2. :func:`run_fitness_search` searches mask/pair genomes against the
   frozen fitness model, scored from one forward pass of a seeded fraction
   of the validation set.
3. :func:`guided_recipe` draws the guided recipe from the best genome
   (one entry per training image: uniform active slot, one training
   image per class side; each of the three is drawn for all entries at
   once).  The genome must have the dataset's class count.
4. :func:`train_guided_model` composes the recipe's guided set, one
   :func:`patchmix` row per entry written straight into float32 patch
   matrices (every entry must name an active slot and training images of
   that slot's classes), and trains the final model on batches composed
   of original, randomly mixed, and guided samples —
   minimizing only the image-level loss (:func:`train_final`).  Each batch
   is composed into the batch matrix the training driver hands over: the
   original and random rows in one call, the guided rows cast into its
   tail.  The random rows draw every first source, then every second
   source, then every mask: the artifacts' bytes rest on that order.

Given a fitness model, :func:`run_guided_pipeline` skips phase 1; the CLI
passes a run directory's checkpoint only when the directory's
``config.json`` records the run's ``dataset`` and ``train`` settings.  The
pipeline hands each phase's results to its ``record``, if given, as that
phase ends; the CLI's writes them into the run directory.  Of that
directory, this module defines only the guided manifest's text format.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .data import Dataset, _write_atomic
from .errors import ConfigError, FormatError
from .evolution import (
    FitnessTable,
    Individual,
    SearchConfig,
    evaluate_fitness,
    run_search,
    slot_pairs,
)
from .masks import _check_divisible, sample_mask_bits
from .mixing import MixedBatch, patchmix, patchmix_batch
from .model import (
    EpochMetrics,
    ReferenceModel,
    TrainConfig,
    _train_loop,
    train_random_patchmix,
)
from .rng import RngKey

log = logging.getLogger("patchmix.workflow")

DEFAULT_BATCH_RATIO = (1, 1, 1)


@dataclass
class PipelineResult:
    fitness_model: ReferenceModel
    fitness_metrics: list[EpochMetrics] | None
    best_individual: Individual
    history: list
    final_model: ReferenceModel
    final_metrics: list[EpochMetrics]


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
    pairs = slot_pairs(train.class_count)[active]
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
    side = slot_pairs(train.class_count)[slot[ok]]
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
    ``(slot, i, j)`` entry, each composed by one :func:`patchmix` call in
    recipe order straight into its row.

    The entries are checked against the genome and the training set first.
    The patches keep the dataset's storage type (float32): a composition
    only selects source pixels, so this is lossless and halves the set.
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
    images, labels = train.images, train.labels.tolist()  # each the slot's class (_check_recipe)
    for k, (slot, i, j) in enumerate(entries.tolist()):
        mask, out = individual.masks[slot], guided.patches[k : k + 1]
        row = patchmix(images[i], labels[i], images[j], labels[j], mask, c, out=out)
        guided.image_labels[k] = row.image_labels[0]
        guided.patch_labels[k] = row.patch_labels[0]
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
    guided_set: MixedBatch,
    ratio: tuple[int, int, int],
    patches: np.ndarray,
    rng: np.random.Generator,
) -> Iterable[MixedBatch]:
    """Yield ``ceil(len(train) / batch_size)`` batches of original :
    randomly-mixed : guided samples, each composed into ``patches``, a
    (batch_size, P*P, patch_pixels) float64 matrix that every batch
    overwrites.

    Originals cycle through epoch-shuffled training permutations; guided
    rows cycle through shuffled guided-set permutations.  A batch draws its
    originals, then its random rows' first sources, second sources and
    masks (one call each, in this order), then its guided rows.  The
    original and random rows are composed in one :func:`patchmix_batch`
    call, the guided rows cast into the tail.  An empty sequence stands for
    an empty guided set.  A guided set whose grid, pixels per patch or
    class count differ from ``patches`` and the training set is refused.
    """
    p = math.isqrt(patches.shape[1])
    if len(guided_set):
        if guided_set.patches.shape[1] != patches.shape[1]:
            raise ConfigError(
                f"guided set has grid size {math.isqrt(guided_set.patches.shape[1])}, "
                f"but train.grid_size is {p}"
            )
        found = (guided_set.patches.shape[2], guided_set.image_labels.shape[1])
        wanted = (patches.shape[2], train.class_count)
        if found != wanted:
            raise ConfigError(
                f"guided set has (patch_pixels, class_count) = {found}, but the "
                f"training set has {wanted}"
            )
    n_original, n_random, n_guided = split_batch(len(patches), ratio)
    if n_guided and not len(guided_set):
        raise ConfigError("batch ratio requires guided samples but the set is empty")
    originals = _Cycle(len(train), rng)
    guided_order = _Cycle(len(guided_set), rng)
    ones = np.ones((n_original, p, p), dtype=np.uint8)
    n_mixed = n_original + n_random
    for _ in range(math.ceil(len(train) / len(patches))):
        i = j = originals.take(n_original)
        bits = ones
        if n_random:
            i = np.concatenate([i, rng.integers(len(train), size=n_random)])
            j = np.concatenate([j, rng.integers(len(train), size=n_random)])
            bits = np.concatenate([ones, sample_mask_bits(n_random, p, rng)])
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
    """Phase-4 trainer: composed batches (:func:`guided_batch_composer`),
    image-level objective only, whatever ``cfg.loss_mode`` says."""
    return _train_loop(
        train, val, replace(cfg, loss_mode="image_only"),
        lambda rng, patches: guided_batch_composer(train, guided_set, ratio, patches, rng),
        "final-train",
    )


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


def run_fitness_search(model: ReferenceModel, val: Dataset, cfg: SearchConfig):
    """Phase 2: search genomes of the model's grid against the frozen
    model, scored from one forward pass of the seeded fitness subset.
    Returns ``(best, history)``."""
    table = FitnessTable.build(model, fitness_val_subset(val, cfg), cfg)
    best, history = run_search(
        cfg, val.class_count, model.grid_size,
        lambda individual: evaluate_fitness(individual, table),
    )
    log.info(
        "phase 2 done: best score %.6f after %d generations; "
        "%d genomes scored by %s from a table of %d forwarded images",
        best.fitness, history[-1].generation, table.scored, table.form, len(table.terms),
    )
    return best, history


def guided_recipe(best: Individual, train: Dataset, cfg: TrainConfig):
    """Phase 3: one guided recipe entry per training image, drawn from the
    ``"guided-set"`` stream of the training seed."""
    rng = RngKey(cfg.seed).child("guided-set").generator()
    return draw_guided_recipe(best, train, len(train), rng)


def train_guided_model(
    best: Individual,
    recipe: Sequence[tuple[int, int, int]],
    train: Dataset,
    val: Dataset,
    cfg: TrainConfig,
):
    """Phase 4: compose the recipe's guided set and train the final model on
    it (:func:`train_final`).  Returns ``(model, metrics)``."""
    return train_final(train, val, cfg, materialize_guided(best, train, recipe))


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
    fitness_model: ReferenceModel | None = None,
    record: Callable[..., None] | None = None,
) -> PipelineResult:
    """Run all four phases; given ``fitness_model``, phase 1 is skipped and
    the result's ``fitness_metrics`` is None.  A set that lacks a class, a
    grid that does not split the images and a pair limit the class count
    refutes are refused before phase 1 runs.  As each phase that runs ends,
    ``record(phase, *results)`` is called, if given, with the phase number
    and what that phase returned; without it nothing is written."""
    _check_class_coverage(train, val)
    _check_divisible(train.width, train.height, train_cfg.grid_size)
    search_cfg.resolve_max_active(val.class_count)
    record = record or (lambda phase, *results: None)
    fitness_metrics: list[EpochMetrics] | None = None
    if fitness_model is None:
        fitness_model, fitness_metrics = train_random_patchmix(train, val, train_cfg)
        record(1, fitness_model, fitness_metrics)
    else:
        log.info("phase 1 skipped: reusing the given fitness model")
    best, history = run_fitness_search(fitness_model, val, search_cfg)
    record(2, best, history)
    recipe = guided_recipe(best, train, train_cfg)
    record(3, recipe)
    final_model, final_metrics = train_guided_model(best, recipe, train, val, train_cfg)
    record(4, final_model, final_metrics)
    return PipelineResult(
        fitness_model=fitness_model,
        fitness_metrics=fitness_metrics,
        best_individual=best,
        history=history,
        final_model=final_model,
        final_metrics=final_metrics,
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

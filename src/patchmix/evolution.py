"""Genetic search over class-pair activations and their grid masks.

A genome ("individual") owns one activation bit per unordered class pair
(i <= j, row-major upper-triangular order) and one grid mask per pair
slot.  At most ``max_active_pairs`` slots may be active at once; optional
same-class forcing keeps every (c, c) slot switched on.

Fitness scores are minimized.  They come from mixing frozen-model
validation images per active pair and averaging a patch-level metric;
"max" objectives are sign-flipped so that lower always means fitter.
The metric is read from a table of per-patch terms built by one forward
pass of the validation images, which is exact because the reference
encoder is patch-local.  The image pairs of every slot are drawn once per
run, from a stream keyed by the search seed alone, so every genome of
every generation is scored against identical data.

The breeding operators never modify their inputs: each returns fresh
genomes that share no memory with the ones it was given, and
:func:`repair` works in place only on those fresh genomes.  So an
offspring that no operator touches is its parent object, and keeps its
cached score.  The operators take the run's :class:`Rules`, computed once
per search.  The order of the random draws and the reduction order of a
score are part of the contract: a change that keeps both keeps every
artifact.
"""

from __future__ import annotations

import logging
import math
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import losses
from .data import Dataset, _write_atomic
from .errors import ConfigError, FormatError, NumericError
from .masks import mask_rows, parse_mask_rows, sample_mask_bits
from .model import ReferenceModel, forward_batch
from .rng import RngKey

log = logging.getLogger("patchmix.evolution")

OBJECTIVES = ("min_patch_acc", "max_patch_acc", "min_lp", "max_lp")

RANDOM_TAIL_FLIP_PROB = 0.1

TABLE_CHUNK = 256  # images per forward pass while building a fitness table


def pair_count(class_count: int) -> int:
    """Number of unordered class pairs, same-class pairs included."""
    return class_count * (class_count + 1) // 2


def pair_to_index(i: int, j: int, class_count: int) -> int:
    if not 0 <= i <= j < class_count:
        raise ConfigError(f"bad class pair ({i}, {j}) for {class_count} classes")
    return i * class_count - i * (i - 1) // 2 + (j - i)


def index_to_pair(index: int, class_count: int) -> tuple[int, int]:
    """Inverse of :func:`pair_to_index`."""
    index = operator.index(index)
    if not 0 <= index < pair_count(class_count):
        raise ConfigError(f"pair index {index} outside [0, {pair_count(class_count)})")
    # Row i starts at s(i) = i * (2C + 1 - i) / 2; take the largest i with
    # s(i) <= index from the quadratic's root, which isqrt can overshoot by one.
    b = 2 * class_count + 1
    i = (b - math.isqrt(b * b - 8 * index)) // 2
    if i * (b - i) // 2 > index:
        i -= 1
    return i, index - i * (b - i) // 2 + i


def class_count_for_pairs(n_pairs: int) -> int:
    c = (math.isqrt(8 * n_pairs + 1) - 1) // 2
    if pair_count(c) != n_pairs:
        raise ConfigError(f"{n_pairs} is not a valid pair count")
    return c


def same_class_slots(class_count: int) -> np.ndarray:
    return np.asarray(
        [pair_to_index(c, c, class_count) for c in range(class_count)], dtype=np.int64
    )


@dataclass
class Individual:
    """Genome: active-pair bits plus one mask per pair slot.

    Masks are allocated for every slot; only active ones are meaningful.
    ``fitness`` caches the last score (None = needs evaluation).
    """

    head: np.ndarray   # (n_pairs,) uint8
    masks: np.ndarray  # (n_pairs, P, P) uint8
    fitness: float | None = None

    def __post_init__(self):
        self.head = np.ascontiguousarray(self.head, dtype=np.uint8)
        self.masks = np.ascontiguousarray(self.masks, dtype=np.uint8)
        if self.head.ndim != 1:
            raise ConfigError("head must be one-dimensional")
        if (
            self.masks.ndim != 3
            or self.masks.shape[0] != len(self.head)
            or self.masks.shape[1] != self.masks.shape[2]
        ):
            raise ConfigError(
                f"masks shape {self.masks.shape} does not match {len(self.head)} slots"
            )
        class_count_for_pairs(len(self.head))

    @property
    def n_pairs(self) -> int:
        return len(self.head)

    @property
    def class_count(self) -> int:
        return class_count_for_pairs(len(self.head))

    @property
    def grid_size(self) -> int:
        return self.masks.shape[1]

    def active_slots(self) -> np.ndarray:
        return np.flatnonzero(self.head)


@dataclass
class SearchConfig:
    population_size: int = 500
    generations: int = 60        # desk scale; full-scale runs use 250
    crossover_prob: float = 0.5
    mutation_prob: float = 0.3
    tournament_size: int = 3
    max_active_pairs: int | None = None  # None = one per class
    force_same_class: bool = False
    objective: str = "min_patch_acc"
    pairs_per_combo: int = 32
    val_fraction: float = 0.25
    patience: int = 50
    seed: int = 0

    def validate(self) -> None:
        if self.population_size < 2:
            raise ConfigError("population_size must be at least 2")
        if self.generations < 0:
            raise ConfigError("generations must be non-negative")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ConfigError("crossover_prob must lie in [0, 1]")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ConfigError("mutation_prob must lie in [0, 1]")
        if self.tournament_size < 2:
            raise ConfigError("tournament_size must be at least 2")
        if self.max_active_pairs is not None and self.max_active_pairs < 1:
            raise ConfigError("max_active_pairs must be at least 1")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"unknown objective {self.objective!r}")
        if self.pairs_per_combo < 1:
            raise ConfigError("pairs_per_combo must be at least 1")
        if not 0.0 < self.val_fraction <= 1.0:
            raise ConfigError("val_fraction must lie in (0, 1]")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def forced_slots(self, class_count: int) -> np.ndarray:
        """Slots every genome keeps active: the same-class pairs under
        ``force_same_class``, else none."""
        if self.force_same_class:
            return same_class_slots(class_count)
        return np.empty(0, np.int64)

    def resolve_max_active(self, class_count: int) -> int:
        limit = self.max_active_pairs if self.max_active_pairs is not None else class_count
        if limit > pair_count(class_count):
            raise ConfigError(
                f"max_active_pairs {limit} exceeds {pair_count(class_count)} pair slots"
            )
        if self.force_same_class and limit < class_count:
            raise ConfigError(
                "force_same_class needs max_active_pairs >= class_count "
                f"({limit} < {class_count})"
            )
        return limit


@dataclass(frozen=True)
class Rules:
    """What every genome of one search run must satisfy, computed once per
    run: at most ``limit`` active slots, the ``forced`` slots among them;
    ``free`` lists the slots that may switch and ``is_free`` marks them."""

    limit: int
    forced: np.ndarray
    free: np.ndarray
    is_free: np.ndarray

    @classmethod
    def of(cls, cfg: SearchConfig, class_count: int) -> "Rules":
        forced = cfg.forced_slots(class_count)
        is_free = np.ones(pair_count(class_count), dtype=bool)
        is_free[forced] = False
        return cls(cfg.resolve_max_active(class_count), forced, np.flatnonzero(is_free), is_free)


def init_population(
    cfg: SearchConfig, class_count: int, grid_size: int, rng: np.random.Generator
) -> list[Individual]:
    """Fair-coin masks everywhere, one :func:`masks.sample_mask_bits` call of
    all slots per genome; exactly the allowed number of active slots per
    genome (forced same-class slots counted within it)."""
    n_pairs = pair_count(class_count)
    rules = Rules.of(cfg, class_count)
    extra = rules.limit - len(rules.forced)
    population = []
    for _ in range(cfg.population_size):
        head = np.zeros(n_pairs, dtype=np.uint8)
        head[rules.forced] = 1
        if extra:
            head[rng.choice(rules.free, size=extra, replace=False)] = 1
        population.append(Individual(head, sample_mask_bits(n_pairs, grid_size, rng)))
    return population


class FitnessTable:
    """Per-patch fitness terms of the validation images, from one forward
    pass, and the one evaluation set every genome of a run is scored on.

    The reference encoder is patch-local: patch n of a composite has the
    logits of patch n of the image that supplied it, and its label is that
    image's class.  So a composite's metric needs only ``terms[k, n]`` of
    its source images: whether image k's patch n is classified as image
    k's class (accuracy objectives), or that class's log-probability
    (loss objectives).  A cross-patch encoder would break this shortcut.

    The evaluation set is drawn once, when the table is built: for every
    pair slot, ``pairs_per_combo`` images of the slot's first class
    (``first``, shown where a mask bit is 1), then as many of its second
    class (``second``), each side by one :meth:`Dataset.draw_of_class` call
    on the stream ``RngKey(seed).child("fitness")``.  A genome's score
    therefore depends on the genome alone, not on when it was scored.
    The terms of both sides are gathered once, here, per slot.
    """

    def __init__(self, terms, first, second, grid_size: int, cfg: SearchConfig):
        self.terms = terms                  # (N, P*P) bool or float64
        self.first = first                  # (n_pairs, pairs_per_combo) mask-1 images
        self.second = second                # (n_pairs, pairs_per_combo) mask-0 images
        self.first_terms = terms[first]     # (n_pairs, pairs_per_combo, P*P)
        self.second_terms = terms[second]
        self.grid_size = grid_size
        self.cfg = cfg
        self.scored = 0                     # genomes scored so far

    @classmethod
    def build(cls, model: ReferenceModel, val: Dataset, cfg: SearchConfig) -> "FitnessTable":
        """Draw the evaluation set, then forward ``val`` once, ``TABLE_CHUNK``
        images at a time."""
        if len(val) == 0:
            raise ConfigError("cannot build a fitness table from an empty dataset")
        if model.class_count != val.class_count:
            raise ConfigError(
                f"model scores {model.class_count} classes, dataset has {val.class_count}"
            )
        ci, cj = np.triu_indices(val.class_count)  # the class pair of every slot
        shape = (len(ci), cfg.pairs_per_combo)
        rng = RngKey(cfg.seed).child("fitness").generator()
        first = val.draw_of_class(np.broadcast_to(ci[:, None], shape), rng, "validation set")
        second = val.draw_of_class(np.broadcast_to(cj[:, None], shape), rng, "validation set")
        patch_logits = np.concatenate([
            forward_batch(model, val.images[start : start + TABLE_CHUNK])[0]
            for start in range(0, len(val), TABLE_CHUNK)
        ])
        own = np.broadcast_to(val.labels[:, None], patch_logits.shape[:2])
        if cfg.objective.endswith("patch_acc"):
            terms = np.argmax(patch_logits, axis=2) == own
        else:
            logp = losses.log_softmax(patch_logits)
            terms = np.take_along_axis(logp, own[..., None], axis=2)[..., 0]
        return cls(terms, first, second, model.grid_size, cfg)


def evaluate_fitness(individual: Individual, table: FitnessTable) -> float:
    """Score a genome against the fitness table; lower is fitter.

    Every active slot contributes its ``pairs_per_combo`` composites, each
    patch taking the term of the image its mask bit selects.  The score
    is the mean of a per-composite metric, exactly as if the composites
    had been forwarded, so a genome gets the same score whenever it is
    scored.
    """
    active = individual.active_slots()
    if len(active) == 0:
        raise ConfigError("individual has no active pairs")
    if individual.n_pairs != len(table.first):
        raise ConfigError(
            f"genome covers {individual.class_count} classes, "
            f"dataset has {class_count_for_pairs(len(table.first))}"
        )
    if individual.grid_size != table.grid_size:
        raise ConfigError(
            f"genome grid {individual.grid_size} does not match model grid {table.grid_size}"
        )
    bits = individual.masks[active].reshape(len(active), 1, -1)
    kept = np.where(bits, table.first_terms[active], table.second_terms[active])
    kept = kept.reshape(-1, bits.shape[2])  # one row per composite, slot by slot
    objective = table.cfg.objective
    if objective.endswith("patch_acc"):
        metric = kept.mean(axis=1)
    else:
        metric = -kept.sum(axis=1)
        losses.record_loss_eval("patch", len(kept))
    score = float(metric.mean())
    if not math.isfinite(score):
        raise NumericError(f"non-finite fitness score {score}")
    table.scored += 1
    return -score if objective.startswith("max") else score


def tournament_select(
    population: list[Individual], k: int, rng: np.random.Generator
) -> Individual:
    """Draw k genomes uniformly with replacement; fittest wins, first-drawn
    breaks ties."""
    if not population:
        raise ConfigError("empty population")
    if k < 1:
        raise ConfigError("tournament size must be at least 1")
    best = None
    for draw in rng.integers(0, len(population), size=k):
        candidate = population[int(draw)]
        if candidate.fitness is None:
            raise ConfigError("tournament requires cached fitness values")
        if best is None or candidate.fitness < best.fitness:
            best = candidate
    return best


def crossover(
    a: Individual, b: Individual, rng: np.random.Generator, rules: Rules
) -> tuple[Individual, Individual]:
    """Column-split mask recombination plus one-point head crossover.

    Offspring 1 takes mask columns [0, P/2) from ``a`` and the rest from
    ``b`` on every slot; offspring 2 takes the complementary assignment.
    Heads cross over at one uniformly drawn cut; both children are then
    repaired.  Parents are left untouched.
    """
    if a.head.shape != b.head.shape or a.masks.shape != b.masks.shape:
        raise ConfigError("crossover parents must have matching shapes")
    half = a.grid_size // 2
    masks1 = np.concatenate([a.masks[:, :, :half], b.masks[:, :, half:]], axis=2)
    masks2 = np.concatenate([b.masks[:, :, :half], a.masks[:, :, half:]], axis=2)
    if a.n_pairs >= 2:
        cut = int(rng.integers(1, a.n_pairs))
        head1 = np.concatenate([a.head[:cut], b.head[cut:]])
        head2 = np.concatenate([b.head[:cut], a.head[cut:]])
    else:
        head1, head2 = a.head.copy(), b.head.copy()
    child1, child2 = Individual(head1, masks1), Individual(head2, masks2)
    repair(child1, rules, rng)
    repair(child2, rules, rng)
    return child1, child2


def flip_tails(individual: Individual) -> Individual:
    """Invert every bit of every active mask (self-inverse)."""
    masks = individual.masks.copy()
    active = individual.active_slots()
    masks[active] = 1 - masks[active]
    return Individual(individual.head.copy(), masks)


def transpose_tails(individual: Individual) -> Individual:
    """Transpose every active mask (self-inverse)."""
    masks = individual.masks.copy()
    active = individual.active_slots()
    masks[active] = masks[active].transpose(0, 2, 1)
    return Individual(individual.head.copy(), masks)


def flip_heads(individual: Individual, rng: np.random.Generator, rules: Rules) -> Individual:
    """Redraw which non-forced slots are active, preserving their count."""
    movable = np.count_nonzero(individual.head[rules.is_free])
    head = np.zeros_like(individual.head)
    head[rules.forced] = 1
    if movable:
        head[rng.choice(rules.free, size=movable, replace=False)] = 1
    return Individual(head, individual.masks.copy())


def random_tails(individual: Individual, rng: np.random.Generator) -> Individual:
    """Flip each active-mask bit independently with probability
    ``RANDOM_TAIL_FLIP_PROB``."""
    masks = individual.masks.copy()
    active = individual.active_slots()
    flips = rng.random(masks[active].shape) < RANDOM_TAIL_FLIP_PROB
    masks[active] = np.where(flips, 1 - masks[active], masks[active])
    return Individual(individual.head.copy(), masks)


def mutate(individual: Individual, rng: np.random.Generator, rules: Rules) -> Individual:
    """Apply one of the four operators, chosen uniformly, then repair."""
    op = int(rng.integers(4))
    if op == 0:
        out = flip_tails(individual)
    elif op == 1:
        out = transpose_tails(individual)
    elif op == 2:
        out = flip_heads(individual, rng, rules)
    else:
        out = random_tails(individual, rng)
    repair(out, rules, rng)
    return out


def repair(individual: Individual, rules: Rules, rng: np.random.Generator) -> None:
    """Restore genome validity in place, for a genome no one else holds;
    valid genomes pass through unchanged.

    Forced same-class slots are switched on, then uniformly chosen
    non-forced slots are deactivated until the active count fits the
    limit.  Fewer active slots than the limit is legal, but a genome with
    no active slot at all cannot be scored, so one uniformly chosen slot
    is switched on in that case.  The cached score is cleared only when
    something had to change.
    """
    head = individual.head
    changed = False
    if len(rules.forced) and not head[rules.forced].all():
        head[rules.forced] = 1
        changed = True
    active = np.flatnonzero(head)
    if len(active) > rules.limit:
        removable = active[rules.is_free[active]]
        excess = len(active) - rules.limit
        if excess > len(removable):
            raise ConfigError("cannot satisfy active-pair limit with forced slots")
        head[rng.choice(removable, size=excess, replace=False)] = 0
        changed = True
    elif len(active) == 0:
        head[int(rng.integers(len(head)))] = 1
        changed = True
    if changed:
        individual.fitness = None


@dataclass
class GenerationStats:
    generation: int
    best: float                       # best score ever seen (monotone)
    mean: float                       # population mean this generation
    census: list[tuple[tuple[int, int], int]] = field(default_factory=list)


FitnessFn = Callable[[Individual], float]


def _evaluate_population(
    population: list[Individual], fitness_fn: FitnessFn, generation: int
) -> None:
    """Fill in missing fitness values; errors name the individual's index.

    Configuration and format errors keep their type, arithmetic failures
    become :class:`NumericError`, and anything else propagates unchanged.
    """
    for index, individual in enumerate(population):
        if individual.fitness is not None:
            continue
        where = f"generation {generation}, individual {index}"
        try:
            value = float(fitness_fn(individual))
        except (ConfigError, FormatError) as err:
            raise type(err)(f"{where}: {err}") from err
        except ArithmeticError as err:
            raise NumericError(f"{where}: {err}") from err
        if not np.isfinite(value):
            raise NumericError(f"{where}: non-finite fitness {value}")
        individual.fitness = value


def _census(
    population: list[Individual], class_count: int
) -> list[tuple[tuple[int, int], int]]:
    counts = np.sum([ind.head for ind in population], axis=0, dtype=np.int64)
    return [
        (index_to_pair(k, class_count), int(counts[k]))
        for k in np.flatnonzero(counts)
    ]


def run_search(
    cfg: SearchConfig,
    class_count: int,
    grid_size: int,
    fitness_fn: FitnessFn,
):
    """Tournament GA with the best genome ever seen retained.

    Per generation: select population-size parents by tournament, cross
    over adjacent pairs with ``crossover_prob``, mutate each child with
    ``mutation_prob``, then score only the new genomes: an offspring no
    operator touched is its parent, score and all.  Stops early after
    ``patience`` generations without a strictly better best score.
    Returns ``(best, history)``; the best score column of the history is
    monotone non-increasing.
    """
    cfg.validate()
    if class_count < 1:
        raise ConfigError("class_count must be positive")
    if grid_size < 1:
        raise ConfigError("grid_size must be at least 1")
    rules = Rules.of(cfg, class_count)
    key = RngKey(cfg.seed)
    population = init_population(cfg, class_count, grid_size, key.child("init").generator())
    _evaluate_population(population, fitness_fn, 0)
    best = min(population, key=lambda ind: ind.fitness)
    history = [_generation_stats(0, best, population, class_count)]
    flat = _has_zero_spread(population)
    stall = 0
    for generation in range(1, cfg.generations + 1):
        grng = key.child("generation", generation).generator()
        offspring = [
            tournament_select(population, cfg.tournament_size, grng)
            for _ in range(cfg.population_size)
        ]
        for i in range(1, len(offspring), 2):
            if grng.random() < cfg.crossover_prob:
                offspring[i - 1], offspring[i] = crossover(
                    offspring[i - 1], offspring[i], grng, rules
                )
        for i in range(len(offspring)):
            if grng.random() < cfg.mutation_prob:
                offspring[i] = mutate(offspring[i], grng, rules)
        _evaluate_population(offspring, fitness_fn, generation)
        population = offspring
        flat += _has_zero_spread(population)
        generation_best = min(population, key=lambda ind: ind.fitness)
        if generation_best.fitness < best.fitness:
            best = generation_best
            stall = 0
        else:
            stall += 1
        history.append(_generation_stats(generation, best, population, class_count))
        if stall >= cfg.patience:
            break
    if flat:
        log.warning(
            "zero fitness spread in %d of %d generations: every genome scored "
            "the same, so selection could not rank them", flat, len(history),
        )
    return best, history


def _generation_stats(
    generation: int, best: Individual, population: list[Individual], class_count: int
) -> GenerationStats:
    mean = float(np.mean([ind.fitness for ind in population]))
    return GenerationStats(generation, best.fitness, mean, _census(population, class_count))


def _has_zero_spread(population: list[Individual]) -> bool:
    scores = [ind.fitness for ind in population]
    return min(scores) == max(scores)


# --- text formats -----------------------------------------------------------

_INDIVIDUAL_HEADER_RE = re.compile(r"^C=(\d+) P=(\d+) N=(\d+)$")
_PAIR_RE = re.compile(r"^\((\d+),(\d+)\)$")


def format_individual(individual: Individual, max_active: int) -> str:
    """Genome text: header, head bits, then each active slot's pair and rows."""
    lines = [
        f"C={individual.class_count} P={individual.grid_size} N={max_active}",
        "".join(str(int(v)) for v in individual.head),
    ]
    for slot in individual.active_slots():
        i, j = index_to_pair(int(slot), individual.class_count)
        lines.append(f"({i},{j})")
        lines.extend(mask_rows(individual.masks[slot]))
    return "\n".join(lines)


def parse_individual(text: str) -> tuple[Individual, int]:
    """Inverse of :func:`format_individual`; returns (genome, active limit)."""
    lines = [ln for ln in text.strip().splitlines()]
    if not lines:
        raise FormatError("empty genome text")
    header = _INDIVIDUAL_HEADER_RE.match(lines[0].strip())
    if not header:
        raise FormatError(f"bad genome header {lines[0]!r}")
    class_count, grid_size, max_active = (int(g) for g in header.groups())
    n_pairs = pair_count(class_count)
    pos = 1
    if pos >= len(lines):
        raise FormatError("missing head bits")
    head_text = lines[pos].strip()
    if len(head_text) != n_pairs or any(ch not in "01" for ch in head_text):
        raise FormatError(f"bad head bits {head_text!r}")
    head = np.asarray([int(ch) for ch in head_text], dtype=np.uint8)
    if int(head.sum()) > max_active:
        raise FormatError(f"{int(head.sum())} active pairs exceed the limit {max_active}")
    pos += 1
    masks = np.zeros((n_pairs, grid_size, grid_size), dtype=np.uint8)
    for slot in np.flatnonzero(head):
        if pos >= len(lines):
            raise FormatError("missing pair block")
        pair = _PAIR_RE.match(lines[pos].strip())
        expected = index_to_pair(int(slot), class_count)
        if not pair or (int(pair.group(1)), int(pair.group(2))) != expected:
            raise FormatError(
                f"expected pair {expected} at line {pos + 1}, found {lines[pos]!r}"
            )
        pos += 1
        if pos + grid_size > len(lines):
            raise FormatError("missing mask rows")
        try:
            masks[slot] = parse_mask_rows(lines[pos : pos + grid_size], grid_size)
        except FormatError as err:
            raise FormatError(f"slot {expected}: {err}") from err
        pos += grid_size
    if pos != len(lines):
        raise FormatError(f"{len(lines) - pos} unexpected trailing lines")
    return Individual(head, masks), max_active


def save_individual(individual: Individual, max_active: int, path) -> None:
    _write_atomic(path, [format_individual(individual, max_active) + "\n"])


def load_individual(path) -> tuple[Individual, int]:
    return parse_individual(Path(path).read_text())


def history_csv_lines(history: list[GenerationStats]) -> list[str]:
    """Comma-separated: generation, best, mean, active-pair census."""
    lines = []
    for stats in history:
        census = " ".join(f"{i}-{j}:{count}" for (i, j), count in stats.census)
        lines.append(f"{stats.generation},{stats.best!r},{stats.mean!r},{census}")
    return lines


def save_history(history: list[GenerationStats], path) -> None:
    _write_atomic(path, ["\n".join(history_csv_lines(history)) + "\n"])

"""The search against a reference that copies every genome it touches.

The reference below is the search as it was before genomes were shared
between generations and bred without copies: every offspring starts as a
copy of its parent, every operator and ``repair`` copy their inputs, the
active-slot limit and the forced slots are recomputed on every call, and
a genome is scored from ``terms[first[active]]`` and
``terms[second[active]]``.  Production must draw the same random numbers
in the same order and reduce the same terms the same way, so the two must
agree exactly: same best genome, same score, same history rows and the
same number of genomes scored.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patchmix.evolution import (
    RANDOM_TAIL_FLIP_PROB,
    FitnessTable,
    GenerationStats,
    Individual,
    Rules,
    SearchConfig,
    crossover,
    evaluate_fitness,
    flip_heads,
    flip_tails,
    history_csv_lines,
    index_to_pair,
    mutate,
    pair_count,
    random_tails,
    repair,
    run_search,
    tournament_select,
    transpose_tails,
)
from patchmix.masks import sample_mask_bits
from patchmix.rng import RngKey


# --- reference ----------------------------------------------------------------


def ref_copy(individual):
    return Individual(individual.head.copy(), individual.masks.copy(), individual.fitness)


def ref_init_population(cfg, class_count, grid_size, rng):
    n_pairs = pair_count(class_count)
    limit = cfg.resolve_max_active(class_count)
    forced = cfg.forced_slots(class_count)
    candidates = np.setdiff1d(np.arange(n_pairs), forced)
    population = []
    for _ in range(cfg.population_size):
        head = np.zeros(n_pairs, dtype=np.uint8)
        head[forced] = 1
        extra = limit - len(forced)
        if extra:
            head[rng.choice(candidates, size=extra, replace=False)] = 1
        population.append(Individual(head, sample_mask_bits(n_pairs, grid_size, rng)))
    return population


def ref_score(individual, table):
    active = individual.active_slots()
    bits = individual.masks[active].reshape(len(active), 1, -1)
    kept = np.where(bits, table.terms[table.first[active]], table.terms[table.second[active]])
    kept = kept.reshape(-1, bits.shape[2])
    objective = table.cfg.objective
    metric = kept.mean(axis=1) if objective.endswith("patch_acc") else -kept.sum(axis=1)
    score = float(metric.mean())
    table.scored += 1
    return -score if objective.startswith("max") else score


def ref_crossover(a, b, rng, cfg):
    child1, child2 = ref_copy(a), ref_copy(b)
    half = a.grid_size // 2
    child1.masks[:, :, half:] = b.masks[:, :, half:]
    child2.masks[:, :, half:] = a.masks[:, :, half:]
    if a.n_pairs >= 2:
        cut = int(rng.integers(1, a.n_pairs))
        child1.head = np.concatenate([a.head[:cut], b.head[cut:]])
        child2.head = np.concatenate([b.head[:cut], a.head[cut:]])
    child1.fitness = None
    child2.fitness = None
    return ref_repair(child1, cfg, rng), ref_repair(child2, cfg, rng)


def ref_flip_tails(individual):
    out = ref_copy(individual)
    active = out.active_slots()
    out.masks[active] = 1 - out.masks[active]
    out.fitness = None
    return out


def ref_transpose_tails(individual):
    out = ref_copy(individual)
    active = out.active_slots()
    out.masks[active] = out.masks[active].transpose(0, 2, 1)
    out.fitness = None
    return out


def ref_flip_heads(individual, rng, cfg):
    out = ref_copy(individual)
    forced = cfg.forced_slots(out.class_count)
    candidates = np.setdiff1d(np.arange(out.n_pairs), forced)
    movable = np.setdiff1d(out.active_slots(), forced)
    head = np.zeros_like(out.head)
    head[forced] = 1
    if len(movable):
        head[rng.choice(candidates, size=len(movable), replace=False)] = 1
    out.head = head
    out.fitness = None
    return out


def ref_random_tails(individual, rng):
    out = ref_copy(individual)
    active = out.active_slots()
    flips = rng.random(out.masks[active].shape) < RANDOM_TAIL_FLIP_PROB
    out.masks[active] = np.where(flips, 1 - out.masks[active], out.masks[active])
    out.fitness = None
    return out


def ref_mutate(individual, rng, cfg):
    op = int(rng.integers(4))
    if op == 0:
        out = ref_flip_tails(individual)
    elif op == 1:
        out = ref_transpose_tails(individual)
    elif op == 2:
        out = ref_flip_heads(individual, rng, cfg)
    else:
        out = ref_random_tails(individual, rng)
    return ref_repair(out, cfg, rng)


def ref_repair(individual, cfg, rng):
    out = ref_copy(individual)
    class_count = out.class_count
    limit = cfg.resolve_max_active(class_count)
    forced = cfg.forced_slots(class_count)
    changed = False
    if len(forced) and not out.head[forced].all():
        out.head[forced] = 1
        changed = True
    active = out.active_slots()
    if len(active) > limit:
        removable = np.setdiff1d(active, forced)
        drop = rng.choice(removable, size=len(active) - limit, replace=False)
        out.head[drop] = 0
        changed = True
    if not out.head.any():
        out.head[int(rng.integers(out.n_pairs))] = 1
        changed = True
    if changed:
        out.fitness = None
    return out


def ref_stats(generation, best, population):
    counts = np.zeros(population[0].n_pairs, dtype=np.int64)
    for ind in population:
        counts += ind.head
    class_count = population[0].class_count
    census = [(index_to_pair(k, class_count), int(counts[k])) for k in np.flatnonzero(counts)]
    mean = float(np.mean([ind.fitness for ind in population]))
    return GenerationStats(generation, best.fitness, mean, census)


def ref_run_search(cfg, class_count, grid_size, fitness_fn):
    def evaluate(population):
        for individual in population:
            if individual.fitness is None:
                individual.fitness = float(fitness_fn(individual))

    key = RngKey(cfg.seed)
    population = ref_init_population(cfg, class_count, grid_size, key.child("init").generator())
    evaluate(population)
    best = ref_copy(min(population, key=lambda ind: ind.fitness))
    history = [ref_stats(0, best, population)]
    stall = 0
    for generation in range(1, cfg.generations + 1):
        grng = key.child("generation", generation).generator()
        parents = [
            tournament_select(population, cfg.tournament_size, grng)
            for _ in range(cfg.population_size)
        ]
        offspring = [ref_copy(parent) for parent in parents]
        for i in range(1, len(offspring), 2):
            if grng.random() < cfg.crossover_prob:
                offspring[i - 1], offspring[i] = ref_crossover(
                    offspring[i - 1], offspring[i], grng, cfg
                )
        for i in range(len(offspring)):
            if grng.random() < cfg.mutation_prob:
                offspring[i] = ref_mutate(offspring[i], grng, cfg)
        evaluate(offspring)
        population = offspring
        generation_best = min(population, key=lambda ind: ind.fitness)
        if generation_best.fitness < best.fitness:
            best = ref_copy(generation_best)
            stall = 0
        else:
            stall += 1
        history.append(ref_stats(generation, best, population))
        if stall >= cfg.patience:
            break
    return best, history


# --- oracle -------------------------------------------------------------------


@st.composite
def search_cases(draw):
    class_count = draw(st.integers(1, 5))
    n_pairs = pair_count(class_count)
    force = draw(st.booleans())
    limit = draw(st.sampled_from([None, 1, min(class_count + 1, n_pairs), n_pairs]))
    # A limit below the class count cannot hold the forced same-class slots.
    assume(not (force and limit is not None and limit < class_count))
    cfg = SearchConfig(
        population_size=draw(st.integers(2, 12)),
        generations=draw(st.integers(0, 6)),
        crossover_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
        mutation_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
        tournament_size=draw(st.integers(2, 3)),
        max_active_pairs=limit,
        force_same_class=force,
        objective=draw(st.sampled_from(["min_patch_acc", "min_lp"])),
        pairs_per_combo=draw(st.integers(1, 4)),
        patience=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**16)),
    )
    grid_size = draw(st.sampled_from([1, 2, 4]))
    return cfg, class_count, grid_size, draw(st.integers(0, 2**16))


def random_table(cfg, class_count, grid_size, seed):
    """A fitness table of random terms: accuracies or log-probabilities."""
    rng = np.random.default_rng(seed)
    n_images = 3 * class_count
    shape = (n_images, grid_size * grid_size)
    if cfg.objective.endswith("patch_acc"):
        terms = rng.random(shape) < 0.7
    else:
        terms = np.log(rng.uniform(0.05, 1.0, shape))
    sides = rng.integers(n_images, size=(2, pair_count(class_count), cfg.pairs_per_combo))
    return FitnessTable(terms, sides[0], sides[1], grid_size, cfg)


@given(search_cases())
@settings(max_examples=120, deadline=None)
def test_search_equals_copying_reference(case):
    cfg, class_count, grid_size, table_seed = case
    table = random_table(cfg, class_count, grid_size, table_seed)
    ref_table = random_table(cfg, class_count, grid_size, table_seed)
    best, history = run_search(
        cfg, class_count, grid_size, lambda ind: evaluate_fitness(ind, table)
    )
    ref_best, ref_history = ref_run_search(
        cfg, class_count, grid_size, lambda ind: ref_score(ind, ref_table)
    )
    assert np.array_equal(best.head, ref_best.head)
    assert np.array_equal(best.masks, ref_best.masks)
    assert best.fitness == ref_best.fitness
    assert history_csv_lines(history) == history_csv_lines(ref_history)
    assert table.scored == ref_table.scored


# --- purity -------------------------------------------------------------------

def repaired_copy(individual, rules, rng):
    """``repair`` works in place on a genome no one else holds: a copy."""
    out = ref_copy(individual)
    repair(out, rules, rng)
    return out


OPERATORS = {
    "crossover": lambda a, b, rng, rules: crossover(a, b, rng, rules),
    "mutate": lambda a, b, rng, rules: [mutate(a, rng, rules)],
    "repair": lambda a, b, rng, rules: [repaired_copy(a, rules, rng)],
    "flip_tails": lambda a, b, rng, rules: [flip_tails(a)],
    "transpose_tails": lambda a, b, rng, rules: [transpose_tails(a)],
    "flip_heads": lambda a, b, rng, rules: [flip_heads(a, rng, rules)],
    "random_tails": lambda a, b, rng, rules: [random_tails(a, rng)],
}


@pytest.mark.parametrize("name", sorted(OPERATORS))
@pytest.mark.parametrize(
    "class_count, cfg",
    [
        (1, SearchConfig()),
        (3, SearchConfig(max_active_pairs=3)),
        (3, SearchConfig(max_active_pairs=4, force_same_class=True)),
    ],
    ids=["one-class", "limit", "forced"],
)
def test_operators_leave_inputs_alone_and_share_no_memory(name, class_count, cfg):
    """Sharing an untouched offspring with its parent is safe only because
    no operator writes to a genome it was given, or returns its arrays."""
    rng = np.random.default_rng(17)
    n = pair_count(class_count)
    for _ in range(30):  # random heads: valid, over the limit, or empty
        a, b = (
            Individual(rng.integers(0, 2, n, dtype=np.uint8),
                       rng.integers(0, 2, (n, 4, 4), dtype=np.uint8), fitness)
            for fitness in (0.25, 0.5)
        )
        before = [(g.head.copy(), g.masks.copy(), g.fitness) for g in (a, b)]
        children = OPERATORS[name](a, b, rng, Rules.of(cfg, class_count))
        for g, (head, masks, fitness) in zip((a, b), before):
            assert np.array_equal(g.head, head)
            assert np.array_equal(g.masks, masks)
            assert g.fitness == fitness
        inputs = [a.head, a.masks, b.head, b.masks]
        for k, child in enumerate(children):
            others = inputs + [x for c in children[k + 1:] for x in (c.head, c.masks)]
            assert not any(
                np.shares_memory(x, y) for x in (child.head, child.masks) for y in others
            )

import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchmix.data import Dataset, synth_shapes
from patchmix.errors import ConfigError, FormatError, NumericError
from patchmix.evolution import (
    OBJECTIVES,
    FitnessTable,
    GenerationStats,
    Individual,
    Rules,
    SearchConfig,
    class_count_for_pairs,
    crossover,
    evaluate_fitness,
    flip_heads,
    flip_tails,
    format_individual,
    history_csv_lines,
    index_to_pair,
    init_population,
    mutate,
    pair_count,
    pair_to_index,
    parse_individual,
    random_tails,
    repair,
    run_search,
    same_class_slots,
    tournament_select,
    transpose_tails,
)
from patchmix.losses import log_softmax, loss_eval_count
from patchmix.masks import PatchMask, sample_mask_bits
from patchmix.mixing import patchmix
from patchmix.model import PARAM_FIELDS, ReferenceModel, forward_batch
from patchmix.rng import RngKey


def make_individual(class_count=3, grid_size=2, active=(0,), rng=None, fitness=None):
    n = pair_count(class_count)
    head = np.zeros(n, dtype=np.uint8)
    head[list(active)] = 1
    if rng is None:
        masks = np.zeros((n, grid_size, grid_size), dtype=np.uint8)
    else:
        masks = rng.integers(0, 2, (n, grid_size, grid_size), dtype=np.uint8)
    return Individual(head, masks, fitness)


def constant_class_model(class_count=3, grid_size=2, patch_pixels=4, winner=0):
    """Stub that predicts ``winner`` for every patch and image."""
    model = ReferenceModel.initialize(
        grid_size, class_count, 4, patch_pixels, np.random.default_rng(0)
    )
    for name in PARAM_FIELDS:
        getattr(model, name)[:] = 0.0
    model.b_patch[winner] = 1.0
    model.b_img[winner] = 1.0
    return model


def mean_detector_model(levels, grid_size=2, patch_pixels=4):
    """Stub that classifies a constant-valued patch by its pixel level.

    Patch logits are linear in the patch sum, with slopes 0, 1, 2, ... and
    intercepts chosen so class k wins exactly around levels[k].
    """
    class_count = len(levels)
    model = ReferenceModel.initialize(
        grid_size, class_count, 1, patch_pixels, np.random.default_rng(0)
    )
    for name in PARAM_FIELDS:
        getattr(model, name)[:] = 0.0
    model.w_embed[:, 0] = 1.0  # f = sum of patch pixels (all inputs >= 0)
    sums = [patch_pixels * v for v in levels]
    # Working backwards from slope c: adjacent classes must cross midway.
    intercepts = [0.0] * class_count
    for c in range(class_count - 2, -1, -1):
        midpoint = (sums[c] + sums[c + 1]) / 2.0
        intercepts[c] = intercepts[c + 1] + midpoint
    for c in range(class_count):
        model.w_patch[0, c] = float(c)
        model.b_patch[c] = intercepts[c]
        model.w_img[0, c] = float(c)
        model.b_img[c] = intercepts[c]
    return model


def constant_dataset(levels, n_per_class=4, side=4):
    images, labels = [], []
    for k, v in enumerate(levels):
        images.append(np.full((n_per_class, side, side, 1), v, dtype=np.float32))
        labels.append(np.full(n_per_class, k, dtype=np.int64))
    return Dataset(np.concatenate(images), np.concatenate(labels), len(levels))


class TestPairIndexing:
    def test_bijection(self):
        for c in range(1, 17):
            pairs = [(i, j) for i in range(c) for j in range(i, c)]
            assert len(pairs) == pair_count(c) == c * (c + 1) // 2
            for k, (i, j) in enumerate(pairs):
                assert pair_to_index(i, j, c) == k
                assert index_to_pair(k, c) == (i, j)

    def test_row_major_upper_triangular(self):
        pairs = [index_to_pair(k, 3) for k in range(pair_count(3))]
        assert pairs == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]

    def test_class_count_recovery(self):
        for c in (1, 2, 3, 7):
            assert class_count_for_pairs(pair_count(c)) == c
        with pytest.raises(ConfigError):
            class_count_for_pairs(4)

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ConfigError):
            pair_to_index(2, 1, 3)
        with pytest.raises(ConfigError):
            index_to_pair(6, 3)

    def test_same_class_slots(self):
        assert same_class_slots(3).tolist() == [0, 3, 5]


class TestSearchConfig:
    def test_defaults_validate(self):
        SearchConfig().validate()

    def test_max_active_defaults_to_class_count(self):
        assert SearchConfig().resolve_max_active(5) == 5
        assert SearchConfig(max_active_pairs=2).resolve_max_active(5) == 2

    def test_limit_cannot_exceed_pair_count(self):
        with pytest.raises(ConfigError):
            SearchConfig(max_active_pairs=7).resolve_max_active(3)

    def test_forcing_needs_room_for_all_classes(self):
        with pytest.raises(ConfigError):
            SearchConfig(force_same_class=True, max_active_pairs=2).resolve_max_active(3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(population_size=1),
            dict(crossover_prob=1.5),
            dict(mutation_prob=-0.1),
            dict(tournament_size=1),
            dict(objective="min_accuracy"),
            dict(pairs_per_combo=0),
            dict(val_fraction=0.0),
            dict(patience=0),
            dict(seed=-1),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SearchConfig(**kwargs).validate()


class TestInitPopulation:
    def test_size_and_constraints(self, rng):
        cfg = SearchConfig(population_size=30, max_active_pairs=2, seed=1)
        population = init_population(cfg, 4, 4, rng)
        assert len(population) == 30
        for ind in population:
            assert ind.head.sum() == 2
            assert ind.masks.shape == (pair_count(4), 4, 4)

    def test_forced_slots_always_active(self, rng):
        cfg = SearchConfig(population_size=20, force_same_class=True, seed=1)
        population = init_population(cfg, 3, 2, rng)
        for ind in population:
            assert ind.head[same_class_slots(3)].all()
            assert ind.head.sum() == 3  # limit = class count, all used by forcing

    def test_deterministic_per_seed(self):
        cfg = SearchConfig(population_size=5)
        a = init_population(cfg, 3, 2, np.random.default_rng(42))
        b = init_population(cfg, 3, 2, np.random.default_rng(42))
        for x, y in zip(a, b):
            assert np.array_equal(x.head, y.head)
            assert np.array_equal(x.masks, y.masks)

    def test_masks_come_from_the_shared_sampler(self, monkeypatch):
        calls = []

        def recording_sampler(count, grid_size, rng):
            calls.append((count, grid_size))
            return sample_mask_bits(count, grid_size, rng)

        monkeypatch.setattr("patchmix.evolution.sample_mask_bits", recording_sampler)
        cfg = SearchConfig(population_size=6, seed=1)
        population = init_population(cfg, 3, 2, np.random.default_rng(4))
        n = pair_count(3)
        assert calls == [(n, 2)] * 6  # one call of every slot's mask per genome
        # Each genome's masks are the sampler's draw right after its head draw.
        rng = np.random.default_rng(4)
        for ind in population:
            rng.choice(np.arange(n), size=cfg.resolve_max_active(3), replace=False)
            np.testing.assert_array_equal(ind.masks, sample_mask_bits(n, 2, rng))


def reference_fitness(individual, model, val, cfg):
    """evaluate_fitness rebuilt from the documented once-per-run draw,
    per-sample patchmix and forward_batch.

    The stream ``RngKey(seed).child("fitness")`` draws, for every slot and
    composite, the position of the mask-1 image within its class in one
    ``integers`` call, then the mask-0 image's position in a second call.
    """
    rng = RngKey(cfg.seed).child("fitness").generator()
    per_class = val.class_indices()
    sizes = np.array([len(ix) for ix in per_class])
    pairs = [index_to_pair(k, val.class_count) for k in range(pair_count(val.class_count))]
    drawn = []
    for side in (0, 1):
        classes = np.array([[pair[side]] * cfg.pairs_per_combo for pair in pairs])
        positions = rng.integers(sizes[classes])
        drawn.append([
            [per_class[c][k] for c, k in zip(row_classes, row_positions)]
            for row_classes, row_positions in zip(classes, positions)
        ])
    samples = []
    for slot in individual.active_slots():
        ci, cj = pairs[slot]
        ii, jj = drawn[0][slot], drawn[1][slot]
        mask = PatchMask(individual.masks[slot])
        for a, b in zip(ii, jj):
            samples.append(
                patchmix(val.images[a], ci, val.images[b], cj, mask, val.class_count)
            )
    patch_logits, _ = forward_batch(model, np.stack([s.image for s in samples]))
    labels = np.stack([s.patch_labels for s in samples])
    if cfg.objective.endswith("patch_acc"):
        metric = (np.argmax(patch_logits, axis=2) == labels).mean(axis=1)
    else:
        picked = np.take_along_axis(log_softmax(patch_logits), labels[..., None], axis=2)
        metric = -picked[..., 0].sum(axis=1)
    score = float(metric.mean())
    return -score if cfg.objective.startswith("max") else score


def table_fitness(individual, model, val, cfg):
    return evaluate_fitness(individual, FitnessTable.build(model, val, cfg))


@st.composite
def fitness_cases(draw):
    """A random model, validation set, search config and genomes."""
    grid = draw(st.sampled_from((1, 2, 4)))
    class_count = draw(st.integers(2, 4))
    per_class = draw(st.lists(st.integers(1, 5), min_size=class_count, max_size=class_count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.repeat(np.arange(class_count), per_class))
    images = rng.random((len(labels), 8, 8, 2)).astype(np.float32)
    val = Dataset(images, labels, class_count)
    patch_pixels = (8 // grid) ** 2 * 2
    model = ReferenceModel.initialize(grid, class_count, 6, patch_pixels, rng)
    cfg = SearchConfig(
        objective=draw(st.sampled_from(OBJECTIVES)),
        pairs_per_combo=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**16)),
    )
    genomes = []
    for _ in range(draw(st.integers(1, 3))):
        head = rng.integers(0, 2, pair_count(class_count), dtype=np.uint8)
        head[rng.integers(len(head))] = 1
        masks = rng.integers(0, 2, (len(head), grid, grid), dtype=np.uint8)
        genomes.append(Individual(head, masks))
    return model, val, cfg, genomes


class TestEvaluateFitness:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_equals_per_sample_reference(self, objective):
        val = synth_shapes(4, 16, 7, seed=3)
        val = val.subset(np.flatnonzero(np.arange(len(val)) % 5 != 0))  # unequal classes
        model = ReferenceModel.initialize(4, 4, 8, 48, np.random.default_rng(1))
        cfg = SearchConfig(pairs_per_combo=5, seed=11, objective=objective)
        table = FitnessTable.build(model, val, cfg)
        rng = np.random.default_rng(4)
        for active in ((0,), (1, 5, 9), (3, 4, 7, 8)):
            ind = make_individual(class_count=4, grid_size=4, active=active, rng=rng)
            assert evaluate_fitness(ind, table) == reference_fitness(ind, model, val, cfg)

    @given(fitness_cases())
    @settings(max_examples=60, deadline=None)
    def test_table_equals_composite_forward(self, case):
        """Scores from the table equal forwarding every composite, exactly.

        The equality rests on the reference encoder being patch-local: a
        composite's patch has the logits of the source patch it copies.
        A cross-patch model (the paper's ResNet-50) would break it, and
        the fitness table with it; this is the test to revisit then.
        """
        model, val, cfg, genomes = case
        table = FitnessTable.build(model, val, cfg)
        patch_evals = loss_eval_count("patch")
        for ind in genomes:
            assert evaluate_fitness(ind, table) == reference_fitness(ind, model, val, cfg)
        assert table.scored == len(genomes)
        composites = sum(len(ind.active_slots()) for ind in genomes) * cfg.pairs_per_combo
        scored_patches = composites if cfg.objective.endswith("lp") else 0
        assert loss_eval_count("patch") - patch_evals == scored_patches

    def test_table_chunks_match_one_forward_pass(self):
        val = synth_shapes(2, 16, 150, seed=5)  # 300 > one chunk
        model = ReferenceModel.initialize(4, 2, 8, 48, np.random.default_rng(2))
        cfg = SearchConfig(objective="min_lp")
        patch_logits, _ = forward_batch(model, val.images)
        own = np.take_along_axis(log_softmax(patch_logits), val.labels[:, None, None], axis=2)
        table = FitnessTable.build(model, val, cfg)
        assert len(table.terms) == len(val)
        assert np.array_equal(table.terms, own[..., 0])

    def test_always_correct_stub_scores_one(self, rng):
        # Three constant-brightness classes and a detector stub that gets
        # every patch right: minimizing patch accuracy bottoms out at 1.
        levels = (0.2, 0.5, 0.8)
        val = constant_dataset(levels)
        model = mean_detector_model(levels)
        cfg = SearchConfig(pairs_per_combo=6, seed=3)
        for active in ((1,), (0, 2), (2, 4)):
            ind = make_individual(active=active, rng=rng)
            assert table_fitness(ind, model, val, cfg) == 1.0

    def test_constant_stub_tracks_mask_popcount(self):
        # A stub that always answers class 0, scored on the (0, 1) pair:
        # exactly the mask-1 patches are labeled correctly.
        val = constant_dataset((0.2, 0.8))
        model = constant_class_model(class_count=2)
        cfg = SearchConfig(pairs_per_combo=5, seed=3)
        slot_01 = pair_to_index(0, 1, 2)
        for bits, expected in [
            (np.ones((2, 2)), 1.0),
            (np.zeros((2, 2)), 0.0),
            (np.array([[1, 0], [0, 1]]), 0.5),
        ]:
            ind = make_individual(class_count=2, active=(slot_01,))
            ind.masks[slot_01] = bits.astype(np.uint8)
            assert table_fitness(ind, model, val, cfg) == expected

    def test_max_objective_flips_sign(self):
        val = constant_dataset((0.2, 0.8))
        model = constant_class_model(class_count=2)
        ind = make_individual(class_count=2, active=(pair_to_index(0, 1, 2),))
        ind.masks[:] = 1
        lo = table_fitness(ind, model, val, SearchConfig(objective="min_patch_acc"))
        hi = table_fitness(ind, model, val, SearchConfig(objective="max_patch_acc"))
        assert lo == 1.0 and hi == -1.0

    def test_patch_loss_objective_matches_closed_form(self):
        # Constant logits (1, 0): cross-entropy is log(1 + e^-1) for the
        # winning class and log(1 + e) otherwise.
        val = constant_dataset((0.2, 0.8))
        model = constant_class_model(class_count=2)
        slot_01 = pair_to_index(0, 1, 2)
        ind = make_individual(class_count=2, active=(slot_01,))
        ind.masks[slot_01] = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        got = table_fitness(ind, model, val, SearchConfig(objective="min_lp", seed=0))
        expected = math.log(1 + math.exp(-1)) + 3 * math.log(1 + math.exp(1))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_same_genome_same_generation_same_score(self, rng):
        val = constant_dataset((0.1, 0.5, 0.9), n_per_class=6)
        model = mean_detector_model((0.1, 0.5, 0.9))
        cfg = SearchConfig(pairs_per_combo=4, seed=7, objective="min_lp")
        a = make_individual(active=(1, 4), rng=np.random.default_rng(0))
        b = Individual(a.head.copy(), a.masks.copy())
        assert table_fitness(a, model, val, cfg) == table_fitness(b, model, val, cfg)

    def test_scores_do_not_depend_on_genomes_scored_before(self):
        # Random images make the drawn pairs visible in the score.
        rng = np.random.default_rng(5)
        images = rng.random((40, 4, 4, 1)).astype(np.float32)
        val = Dataset(images, (np.arange(40) % 2).astype(np.int64), 2)
        model = ReferenceModel.initialize(2, 2, 8, 4, np.random.default_rng(1))
        cfg = SearchConfig(pairs_per_combo=3, seed=7, objective="min_lp")
        probe = make_individual(class_count=2, active=(1,), rng=rng)
        fresh = FitnessTable.build(model, val, cfg)
        busy = FitnessTable.build(model, val, cfg)
        for _ in range(50):
            evaluate_fitness(make_individual(class_count=2, active=(0, 1, 2), rng=rng), busy)
        assert evaluate_fitness(probe, busy) == evaluate_fitness(probe, fresh)
        assert np.array_equal(busy.first, fresh.first)
        assert np.array_equal(busy.second, fresh.second)
        # Another seed draws other pairs, and the score shows it.
        other = FitnessTable.build(model, val, replace(cfg, seed=8))
        assert evaluate_fitness(probe, other) != evaluate_fitness(probe, fresh)

    def test_no_active_pairs_rejected(self):
        val = constant_dataset((0.2, 0.8))
        model = constant_class_model(class_count=2)
        ind = make_individual(class_count=2, active=())
        with pytest.raises(ConfigError):
            table_fitness(ind, model, val, SearchConfig())

    def test_missing_class_named_in_error(self):
        val = constant_dataset((0.2, 0.5, 0.8)).subset(np.arange(8))  # drops class 2
        model = mean_detector_model((0.2, 0.5, 0.8))
        ind = make_individual(active=(pair_to_index(1, 2, 3),))
        with pytest.raises(ConfigError, match="class 2"):
            table_fitness(ind, model, val, SearchConfig())

    def test_class_count_mismatch_rejected(self):
        val = constant_dataset((0.2, 0.8))
        model = constant_class_model(class_count=2)
        ind = make_individual(class_count=3, active=(0,))
        with pytest.raises(ConfigError):
            table_fitness(ind, model, val, SearchConfig())

    @pytest.mark.parametrize("model_classes", [2, 4])
    def test_model_class_count_mismatch_rejected(self, model_classes):
        # A model of another class count would score the patches of a
        # class it has no logit for, or never predict one of the classes.
        val = constant_dataset((0.2, 0.5, 0.8))
        model = constant_class_model(class_count=model_classes)
        with pytest.raises(ConfigError, match=f"model scores {model_classes} classes"):
            FitnessTable.build(model, val, SearchConfig())

    def test_grid_mismatch_rejected(self):
        val = constant_dataset((0.2, 0.8))
        model = constant_class_model(class_count=2)
        ind = make_individual(class_count=2, grid_size=4, active=(0,))
        with pytest.raises(ConfigError, match="grid 4 does not match model grid 2"):
            table_fitness(ind, model, val, SearchConfig())

    def test_empty_dataset_rejected(self):
        val = constant_dataset((0.2, 0.8)).subset(np.arange(0))
        with pytest.raises(ConfigError, match="empty"):
            FitnessTable.build(constant_class_model(class_count=2), val, SearchConfig())

    def test_non_finite_logits_fail_loss_objectives(self):
        val = constant_dataset((0.2, 0.8))
        model = constant_class_model(class_count=2)
        model.b_patch[:] = np.nan
        with pytest.raises(NumericError):
            FitnessTable.build(model, val, SearchConfig(objective="min_lp"))


class TestTournament:
    def population_with_fitness(self, values):
        return [
            make_individual(active=(0,), fitness=float(v)) for v in values
        ]

    def test_single_candidate_population(self, rng):
        population = self.population_with_fitness([0.4])
        assert tournament_select(population, 3, rng) is population[0]

    def test_strictly_lower_fitness_wins(self):
        population = self.population_with_fitness([0.9, 0.1, 0.5])
        rng = np.random.default_rng(0)
        for _ in range(50):
            winner = tournament_select(population, 3, rng)
            assert winner.fitness in (0.1, 0.5, 0.9)
        # With k = population size the minimum is drawn often; sanity-check
        # that the best individual is selected most of the time.
        wins = sum(
            tournament_select(population, 3, np.random.default_rng(s)).fitness == 0.1
            for s in range(200)
        )
        assert wins > 100

    def test_win_rate_matches_selection_distribution(self):
        # 10 distinct fitnesses, k = 3 with replacement: the best wins a
        # single tournament iff it is drawn at all = 1 - 0.9^3 = 27.1%.
        population = self.population_with_fitness(np.linspace(0.1, 1.0, 10))
        rng = np.random.default_rng(11)
        trials = 10_000
        wins = sum(
            tournament_select(population, 3, rng).fitness == population[0].fitness
            for _ in range(trials)
        )
        analytic = 1 - 0.9**3
        assert abs(wins / trials - analytic) < 0.015
        # Oracle: simulate the same distribution directly from draws.
        draws = np.random.default_rng(12).integers(0, 10, size=(trials, 3))
        oracle = (draws == 0).any(axis=1).mean()
        assert abs(wins / trials - oracle) < 0.02

    def test_uncached_fitness_rejected(self, rng):
        population = [make_individual(active=(0,))]
        with pytest.raises(ConfigError):
            tournament_select(population, 2, rng)

    def test_empty_population_rejected(self, rng):
        with pytest.raises(ConfigError):
            tournament_select([], 3, rng)


class TestCrossover:
    def test_column_split_structure(self, rng):
        cfg = SearchConfig(max_active_pairs=3)
        a = make_individual(grid_size=4, active=(0, 1), rng=None)
        b = make_individual(grid_size=4, active=(0, 1), rng=None)
        a.masks[:] = 1
        b.masks[:] = 0
        c1, c2 = crossover(a, b, rng, Rules.of(cfg, a.class_count))
        assert c1.masks[:, :, :2].all() and not c1.masks[:, :, 2:].any()
        assert not c2.masks[:, :, :2].any() and c2.masks[:, :, 2:].all()

    def test_identical_parents_give_identical_children(self, rng):
        cfg = SearchConfig(max_active_pairs=2)
        a = make_individual(active=(1, 3), rng=np.random.default_rng(3), fitness=0.5)
        b = Individual(a.head.copy(), a.masks.copy(), a.fitness)
        c1, c2 = crossover(a, b, rng, Rules.of(cfg, a.class_count))
        for child in (c1, c2):
            assert np.array_equal(child.head, a.head)
            assert np.array_equal(child.masks, a.masks)
            assert child.fitness is None  # cache invalidated regardless

    def test_parents_untouched(self, rng):
        cfg = SearchConfig(max_active_pairs=2)
        a = make_individual(active=(0,), rng=np.random.default_rng(1), fitness=0.1)
        b = make_individual(active=(5,), rng=np.random.default_rng(2), fitness=0.2)
        head_a, masks_a = a.head.copy(), a.masks.copy()
        crossover(a, b, rng, Rules.of(cfg, a.class_count))
        assert np.array_equal(a.head, head_a)
        assert np.array_equal(a.masks, masks_a)
        assert a.fitness == 0.1

    def test_offspring_respect_active_limit(self, rng):
        cfg = SearchConfig(max_active_pairs=2)
        a = make_individual(active=(0, 1), rng=np.random.default_rng(1))
        b = make_individual(active=(4, 5), rng=np.random.default_rng(2))
        for _ in range(50):
            c1, c2 = crossover(a, b, rng, Rules.of(cfg, a.class_count))
            assert c1.head.sum() <= 2
            assert c2.head.sum() <= 2

    def test_shape_mismatch_rejected(self, rng):
        cfg = SearchConfig()
        a = make_individual(class_count=3)
        b = make_individual(class_count=2)
        with pytest.raises(ConfigError):
            crossover(a, b, rng, Rules.of(cfg, a.class_count))


class TestMutationOps:
    def test_flip_tails_is_involution(self):
        ind = make_individual(active=(0, 2), rng=np.random.default_rng(4))
        twice = flip_tails(flip_tails(ind))
        assert np.array_equal(twice.masks, ind.masks)

    def test_flip_tails_only_touches_active_slots(self):
        ind = make_individual(active=(2,), rng=np.random.default_rng(4))
        flipped = flip_tails(ind)
        assert np.array_equal(flipped.masks[2], 1 - ind.masks[2])
        untouched = [s for s in range(ind.n_pairs) if s != 2]
        assert np.array_equal(flipped.masks[untouched], ind.masks[untouched])

    def test_transpose_is_involution(self):
        ind = make_individual(active=(1, 3), rng=np.random.default_rng(9))
        twice = transpose_tails(transpose_tails(ind))
        assert np.array_equal(twice.masks, ind.masks)

    def test_transpose_moves_single_bit(self):
        ind = make_individual(active=(0,))
        with_bit = Individual(ind.head.copy(), ind.masks.copy(), ind.fitness)
        bits = np.zeros((2, 2), dtype=np.uint8)
        bits[0, 1] = 1
        with_bit.masks[0] = bits
        out = transpose_tails(with_bit)
        assert out.masks[0, 1, 0] == 1
        assert out.masks[0].sum() == 1

    def test_flip_heads_preserves_active_count(self, rng):
        cfg = SearchConfig(max_active_pairs=2)
        ind = make_individual(active=(0, 4), rng=np.random.default_rng(2))
        for _ in range(20):
            out = flip_heads(ind, rng, Rules.of(cfg, ind.class_count))
            assert out.head.sum() == 2
            assert np.array_equal(out.masks, ind.masks)

    def test_flip_heads_keeps_forced_slots(self, rng):
        cfg = SearchConfig(force_same_class=True)
        ind = make_individual(active=(0, 1, 3, 5), rng=np.random.default_rng(2))
        out = flip_heads(ind, rng, Rules.of(cfg, ind.class_count))
        assert out.head[same_class_slots(3)].all()
        assert out.head.sum() == 4

    def test_random_tails_flip_rate(self, rng):
        ind = make_individual(grid_size=8, active=(0, 1, 2))
        flips = 0
        trials = 200
        for _ in range(trials):
            out = random_tails(ind, rng)
            flips += int((out.masks[:3] != ind.masks[:3]).sum())
            assert np.array_equal(out.head, ind.head)
        rate = flips / (trials * 3 * 64)
        assert 0.08 < rate < 0.12

    def test_mutate_output_always_valid(self, rng):
        cfg = SearchConfig(max_active_pairs=2)
        ind = make_individual(active=(0, 4), rng=np.random.default_rng(2), fitness=0.3)
        for _ in range(100):
            out = mutate(ind, rng, Rules.of(cfg, ind.class_count))
            assert 1 <= out.head.sum() <= 2
            assert out.fitness is None


class TestRepair:
    def test_valid_genome_passes_through(self, rng):
        cfg = SearchConfig(max_active_pairs=3)
        ind = make_individual(active=(0, 2), rng=np.random.default_rng(1), fitness=0.7)
        head = ind.head.copy()
        repair(ind, Rules.of(cfg, ind.class_count), rng)
        assert np.array_equal(ind.head, head)
        assert ind.fitness == 0.7  # untouched genome keeps its cache

    def test_excess_active_trimmed_exactly(self, rng):
        cfg = SearchConfig(max_active_pairs=2)
        ind = make_individual(active=(0, 1, 2, 3, 4))
        repair(ind, Rules.of(cfg, ind.class_count), rng)
        assert ind.head.sum() == 2
        assert ind.fitness is None

    def test_forced_slots_restored(self, rng):
        cfg = SearchConfig(force_same_class=True)
        ind = make_individual(active=(1,))
        repair(ind, Rules.of(cfg, ind.class_count), rng)
        assert ind.head[same_class_slots(3)].all()

    def test_empty_head_gets_one_slot(self, rng):
        cfg = SearchConfig()
        ind = make_individual(active=())
        repair(ind, Rules.of(cfg, ind.class_count), rng)
        assert ind.head.sum() == 1

    def test_impossible_constraints_rejected(self, rng):
        # Forcing all three same-class slots cannot fit a limit of 2.
        cfg = SearchConfig(max_active_pairs=2, force_same_class=True)
        ind = make_individual(active=(0, 1, 2, 3))
        with pytest.raises(ConfigError):
            repair(ind, Rules.of(cfg, ind.class_count), rng)


def hamming_fitness(target):
    def fitness(individual):
        slot = individual.active_slots()[0]
        return float((individual.masks[slot] != target).sum())

    return fitness


class TestRunSearch:
    def test_finds_hidden_mask_target(self):
        target = (np.indices((4, 4)).sum(axis=0) % 2).astype(np.uint8)
        cfg = SearchConfig(
            population_size=100, generations=60, patience=60, seed=123
        )
        best, history = run_search(cfg, 1, 4, hamming_fitness(target))
        assert best.fitness == 0.0
        assert np.array_equal(best.masks[best.active_slots()[0]], target)

    def test_history_best_is_monotone(self):
        target = np.zeros((4, 4), dtype=np.uint8)
        cfg = SearchConfig(population_size=30, generations=25, patience=25, seed=5)
        _, history = run_search(cfg, 1, 4, hamming_fitness(target))
        bests = [h.best for h in history]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        assert [h.generation for h in history] == list(range(len(history)))

    def test_patience_stops_early(self):
        cfg = SearchConfig(population_size=10, generations=50, patience=3, seed=2)
        _, history = run_search(cfg, 1, 2, lambda ind: 1.0)
        # Constant fitness never improves: gen 0 + exactly patience more.
        assert len(history) == 4

    def test_same_seed_identical_outcome(self):
        target = np.eye(3, dtype=np.uint8)
        cfg = SearchConfig(population_size=20, generations=10, patience=10, seed=9)
        a, hist_a = run_search(cfg, 2, 3, hamming_fitness(target))
        b, hist_b = run_search(cfg, 2, 3, hamming_fitness(target))
        assert np.array_equal(a.head, b.head)
        assert np.array_equal(a.masks, b.masks)
        assert [h.best for h in hist_a] == [h.best for h in hist_b]

    def test_fitness_failure_names_generation_and_individual(self):
        def broken(individual):
            raise FloatingPointError("boom")

        cfg = SearchConfig(population_size=5, generations=2, seed=0)
        with pytest.raises(NumericError, match=r"generation 0, individual \d+"):
            run_search(cfg, 1, 2, broken)

    def test_programming_error_propagates_unchanged(self):
        def broken(individual):
            raise TypeError("bad call")

        cfg = SearchConfig(population_size=5, generations=2, seed=0)
        with pytest.raises(TypeError, match="^bad call$"):
            run_search(cfg, 1, 2, broken)

    def test_config_error_keeps_its_type(self):
        def broken(individual):
            raise ConfigError("no such class")

        cfg = SearchConfig(population_size=5, generations=2, seed=0)
        with pytest.raises(ConfigError, match="generation 0"):
            run_search(cfg, 1, 2, broken)

    def test_non_finite_fitness_rejected(self):
        cfg = SearchConfig(population_size=5, generations=1, seed=0)
        with pytest.raises(NumericError, match="non-finite"):
            run_search(cfg, 1, 2, lambda ind: float("nan"))

    def test_zero_spread_warns_once_per_run(self, caplog):
        cfg = SearchConfig(population_size=10, generations=50, patience=3, seed=2)
        with caplog.at_level(logging.WARNING, logger="patchmix.evolution"):
            _, history = run_search(cfg, 1, 2, lambda ind: 1.0)
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(history) == 4
        assert len(warnings) == 1
        assert "zero fitness spread in 4 of 4 generations" in warnings[0].getMessage()

    def test_ranked_search_does_not_warn(self, caplog):
        target = np.eye(4, dtype=np.uint8)
        cfg = SearchConfig(population_size=20, generations=3, patience=3, seed=7)
        with caplog.at_level(logging.WARNING, logger="patchmix.evolution"):
            run_search(cfg, 1, 4, hamming_fitness(target))
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_census_counts_active_pairs(self):
        cfg = SearchConfig(population_size=12, generations=2, patience=5, seed=4)
        _, history = run_search(cfg, 2, 2, lambda ind: 0.5)
        for stats in history:
            total = sum(count for _, count in stats.census)
            assert 12 <= total <= 12 * 2  # every genome holds 1..2 active slots
            for (i, j), count in stats.census:
                assert 0 <= i <= j < 2
                assert count > 0


class TestGenomeText:
    def test_roundtrip(self):
        ind = make_individual(active=(1, 4), rng=np.random.default_rng(8), fitness=0.25)
        text = format_individual(ind, 3)
        back, max_active = parse_individual(text)
        assert max_active == 3
        assert np.array_equal(back.head, ind.head)
        assert np.array_equal(back.masks[ind.active_slots()], ind.masks[ind.active_slots()])
        assert back.fitness is None  # scores are not persisted

    def test_layout_example(self):
        ind = make_individual(class_count=2, active=(1,))
        ind.masks[1] = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        assert format_individual(ind, 2) == "C=2 P=2 N=2\n010\n(0,1)\n10\n01"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "C=2 P=2\n010",                         # header missing N
            "C=2 P=2 N=2\n01",                      # head bits wrong width
            "C=2 P=2 N=1\n011\n(0,1)\n10\n01",      # exceeds declared limit
            "C=2 P=2 N=2\n010\n(1,1)\n10\n01",      # wrong pair for the slot
            "C=2 P=2 N=2\n010\n(0,1)\n10",          # short mask
            "C=2 P=2 N=2\n010\n(0,1)\n10\n01\nxx",  # trailing junk
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            parse_individual(text)

    def test_history_lines(self):
        history = [
            GenerationStats(0, 0.5, 0.75, [((0, 1), 3)]),
            GenerationStats(1, 0.25, 0.5, [((0, 1), 2), ((1, 1), 4)]),
        ]
        assert history_csv_lines(history) == [
            "0,0.5,0.75,0-1:3",
            "1,0.25,0.5,0-1:2 1-1:4",
        ]

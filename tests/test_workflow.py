import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from patchmix.data import synth_shapes
from patchmix.errors import ConfigError, FormatError
from patchmix import model as model_module
from patchmix import workflow
from patchmix.evolution import SearchConfig, evaluate_fitness, slot_pairs
from patchmix.mixing import MixedBatch, patchmix, patchmix_batch
from patchmix.losses import loss_eval_count
from patchmix.masks import sample_mask_bits
from patchmix.model import TrainConfig, load_model, patchify, save_model
from patchmix.rng import RngKey
from patchmix.workflow import (
    AblationRow,
    ablation_csv_lines,
    ablation_grid,
    draw_guided_recipe,
    fitness_val_subset,
    guided_batch_composer,
    guided_recipe,
    load_guided_manifest,
    materialize_guided,
    run_fitness_search,
    run_guided_pipeline,
    save_guided_manifest,
    split_batch,
    train_final,
)

from test_evolution import make_individual, slot_of
from test_mixing import pixel_mask_patchmix


def guided_set(individual, train, count, rng):
    return materialize_guided(
        individual, train, draw_guided_recipe(individual, train, count, rng)
    )


SMALL_SEARCH = SearchConfig(
    population_size=8, generations=3, pairs_per_combo=4, patience=10, seed=5
)


class TestSplitBatch:
    def test_even_split(self):
        assert split_batch(99, (1, 1, 1)) == (33, 33, 33)

    def test_remainder_goes_to_originals(self):
        assert split_batch(100, (1, 1, 1)) == (34, 33, 33)

    def test_zero_guided_share(self):
        assert split_batch(60, (1, 1, 0)) == (30, 30, 0)

    def test_all_guided(self):
        assert split_batch(10, (0, 0, 1)) == (0, 0, 10)

    @pytest.mark.parametrize("ratio", [(1, 1), (1, -1, 1), (0, 0, 0)])
    def test_bad_ratio_rejected(self, ratio):
        with pytest.raises(ConfigError):
            split_batch(10, ratio)


class TestGuidedSet:
    @pytest.fixture()
    def train(self):
        return synth_shapes(3, 16, 10, seed=2)

    def test_recipe_draws_from_active_slots(self, train, rng):
        active = (slot_of(0, 1, 3), slot_of(1, 2, 3))
        ind = make_individual(active=active, rng=np.random.default_rng(1))
        recipe = draw_guided_recipe(ind, train, 40, rng)
        assert len(recipe) == 40
        seen_slots = set()
        for slot, i, j in recipe:
            assert slot in active
            seen_slots.add(slot)
            ci, cj = slot_pairs(3)[slot]
            assert train.labels[i] == ci
            assert train.labels[j] == cj
        assert seen_slots == set(active)

    def test_recipe_reaches_every_image_of_each_side(self, train, rng):
        slot = slot_of(0, 2, 3)
        recipe = draw_guided_recipe(make_individual(active=(slot,)), train, 400, rng)
        assert all(type(v) is int for entry in recipe for v in entry)
        assert {i for _, i, _ in recipe} == set(np.flatnonzero(train.labels == 0).tolist())
        assert {j for _, _, j in recipe} == set(np.flatnonzero(train.labels == 2).tolist())

    def test_zero_count_is_empty(self, train, rng):
        ind = make_individual(active=(0,))
        assert draw_guided_recipe(ind, train, 0, rng) == []

    def test_negative_count_rejected(self, train, rng):
        ind = make_individual(active=(0,))
        with pytest.raises(ConfigError):
            draw_guided_recipe(ind, train, -1, rng)

    def test_no_active_pairs_rejected(self, train, rng):
        ind = make_individual(active=())
        with pytest.raises(ConfigError):
            draw_guided_recipe(ind, train, 4, rng)

    def test_missing_class_named(self, train, rng):
        only_01 = train.subset(np.flatnonzero(train.labels != 2))
        ind = make_individual(active=(slot_of(1, 2, 3),))
        with pytest.raises(ConfigError, match="class 2"):
            draw_guided_recipe(ind, only_01, 4, rng)

    def test_materialize_follows_mask(self, train):
        slot = slot_of(0, 2, 3)
        ind = make_individual(active=(slot,))
        ind.masks[slot] = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        i = int(np.flatnonzero(train.labels == 0)[0])
        j = int(np.flatnonzero(train.labels == 2)[0])
        guided = materialize_guided(ind, train, [(slot, i, j)])
        assert len(guided) == 1
        # lam, the weight of the first (class-0) source, is 0.5.
        assert guided.image_labels[0, 0] == 0.5
        assert np.allclose(guided.image_labels[0], [0.5, 0.0, 0.5])
        # The top row of patches comes from the class-0 source, stored as
        # the dataset's float32 patches.
        assert guided.patches.dtype == train.images.dtype == np.float32
        np.testing.assert_array_equal(guided.patches[0, :2], patchify(train.images[[i]], 2)[0, :2])
        np.testing.assert_array_equal(guided.patches[0, 2:], patchify(train.images[[j]], 2)[0, 2:])
        assert guided.patch_labels[0].tolist() == [0, 0, 2, 2]

    def test_materialize_equals_patchified_patchmix(self, train, rng, monkeypatch):
        ind = make_individual(active=(0, 1, 4), grid_size=4, rng=np.random.default_rng(5))
        calls = []

        def counted(*args, out):
            calls.append((args, out))
            return patchmix(*args, out=out)

        monkeypatch.setattr(workflow, "patchmix", counted)
        for count in (30, 0, 1, 255, 256, 257, 600):
            recipe = draw_guided_recipe(ind, train, count, rng)
            calls.clear()
            guided = materialize_guided(ind, train, recipe)
            assert len(calls) == len(guided) == count
            assert guided.patches.dtype == np.float32 and guided.patches.shape[1:] == (16, 48)
            for row, (slot, i, j) in enumerate(recipe):
                ci, cj = slot_pairs(3)[slot].tolist()
                # One call per entry, in recipe order, straight into its row.
                (x_i, y_i, x_j, y_j, mask, _), out = calls[row]
                assert (y_i, y_j) == (ci, cj) and (mask == ind.masks[slot]).all()
                assert (x_i == train.images[i]).all() and (x_j == train.images[j]).all()
                assert np.shares_memory(out, guided.patches[row])
                image, label = pixel_mask_patchmix(
                    train.images[i], ci, train.images[j], cj, ind.masks[slot], 3
                )
                want = patchify(image[None], 4)[0].astype(np.float32)
                assert guided.patches[row].tobytes() == want.tobytes()
                assert guided.image_labels[row].tobytes() == label.tobytes()
                want_labels = np.where(ind.masks[slot].ravel() == 1, ci, cj).astype(np.int64)
                assert guided.patch_labels[row].tobytes() == want_labels.tobytes()

    @pytest.mark.parametrize("genome_classes", [2, 4])
    def test_genome_of_another_class_count_rejected(self, train, rng, genome_classes):
        ind = make_individual(class_count=genome_classes, active=(0,))
        with pytest.raises(ConfigError, match=f"genome has {genome_classes} classes"):
            draw_guided_recipe(ind, train, 4, rng)
        with pytest.raises(ConfigError, match=f"genome has {genome_classes} classes"):
            materialize_guided(ind, train, [(0, 0, 0)])

    @pytest.mark.parametrize(
        "entry, error",
        [
            ((1, 0, 0), "its slot is not active"),
            ((9, 0, 0), "its slot is not active"),
            ((0, -1, 0), r"an image index lies outside \[0, 30\)"),
            ((0, 0, 30), r"an image index lies outside \[0, 30\)"),
            ((0, 0, 10), "an image is not of its side's class"),
            ((0, 10, 0), "an image is not of its side's class"),
        ],
        ids=[
            "inactive-slot", "slot-outside-genome", "negative-image", "image-past-end",
            "mask0-image-of-other-class", "mask1-image-of-other-class",
        ],
    )
    def test_bad_manifest_entry_named(self, train, entry, error):
        # Slot 0 pairs class 0 with itself; images 0-9 are class 0, 10-19 class 1.
        assert train.labels[[0, 9, 10]].tolist() == [0, 0, 1]
        ind = make_individual(active=(0,))
        named = f"entry 1 \\({','.join(map(str, entry))}\\): "
        with pytest.raises(ConfigError, match=named + error):
            materialize_guided(ind, train, [(0, 9, 0), entry])

    def test_first_bad_entry_is_the_one_named(self, train):
        ind = make_individual(active=(0,))
        with pytest.raises(ConfigError, match=r"entry 1 \(0,0,10\): an image is not"):
            materialize_guided(ind, train, [(0, 9, 0), (0, 0, 10), (1, 0, 0)])

    def test_empty_recipe_gives_an_empty_set(self, train):
        guided = materialize_guided(make_individual(active=(0,)), train, [])
        assert len(guided) == 0 and guided.patches.shape == (0, 4, 192)

    def test_generate_is_deterministic(self, train):
        ind = make_individual(active=(1,), rng=np.random.default_rng(3))
        a = guided_set(ind, train, 12, np.random.default_rng(7))
        b = guided_set(ind, train, 12, np.random.default_rng(7))
        assert len(a) == len(b) == 12
        np.testing.assert_array_equal(a.patches, b.patches)
        np.testing.assert_array_equal(a.image_labels, b.image_labels)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        recipe = [(0, 3, 7), (4, 1, 2)]
        path = tmp_path / "guided_set.txt"
        save_guided_manifest(recipe, path)
        assert path.read_text() == "count=2\n0,3,7\n4,1,2\n"
        assert load_guided_manifest(path) == recipe

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "guided_set.txt"
        save_guided_manifest([], path)
        assert load_guided_manifest(path) == []

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "0,3,7\n",                  # header missing
            "count=two\n",              # unparsable count
            "count=2\n0,3,7\n",         # fewer entries than declared
            "count=1\n0,3\n",           # wrong arity
            "count=1\n0,3,x\n",         # non-integer field
        ],
    )
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "guided_set.txt"
        path.write_text(text)
        with pytest.raises(FormatError):
            load_guided_manifest(path)


def cycled_order(n: int, rng: np.random.Generator):
    """Reference for ``workflow._Cycle``: the per-index generator it replaced."""
    while True:
        for i in rng.permutation(n):
            yield int(i)


def take(order, count: int) -> np.ndarray:
    return np.fromiter((next(order) for _ in range(count)), dtype=np.int64, count=count)


class TestCycle:
    N = 5

    @pytest.mark.parametrize("counts", [
        [0, 0, 1],
        [1, 1, 1, 1, 1, 1, 1],
        [N - 1, N - 1, N - 1],
        [N, N, 0, N],
        [N + 1, 0, N + 1, N + 1],
        [2 * N + 3, 1, 2 * N + 3],
        [0, N - 1, 1, N, N + 1, 2 * N + 3, 0],
    ])
    def test_same_indices_and_stream_as_the_generator(self, counts):
        """Each take returns the generator's indices, and the rng stands in
        the same state after it, with other draws on the rng in between:
        a pass is drawn when its first index is taken, not before."""
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        cycle, ref = workflow._Cycle(self.N, rng), cycled_order(self.N, ref_rng)
        for count in counts:
            got, want = cycle.take(count), take(ref, count)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert rng.random() == ref_rng.random()

    def test_two_cycles_share_one_stream(self):
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        cycles = workflow._Cycle(7, rng), workflow._Cycle(3, rng)
        refs = cycled_order(7, ref_rng), cycled_order(3, ref_rng)
        for count in (2, 5, 0, 8, 3, 7, 1):
            for cycle, ref in zip(cycles, refs):
                np.testing.assert_array_equal(cycle.take(count), take(ref, count))
                assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestBatchComposer:
    @pytest.fixture()
    def train(self):
        return synth_shapes(3, 16, 6, seed=4)

    @staticmethod
    def matrix(batch_size):
        """A batch matrix of the 16 px RGB training set on a 2x2 grid."""
        return np.empty((batch_size, 4, 8 * 8 * 3))

    @staticmethod
    def drawn(plans, matrix):
        """Each plan composed into ``matrix`` and copied, before the next
        plan overwrites it."""
        return [
            MixedBatch(b.patches.copy(), b.image_labels, b.patch_labels)
            for b in (plan(matrix) for plan in plans)
        ]

    @staticmethod
    def random_draws(rng, n, count):
        """Reference for a batch's random rows: every first source, then
        every second source, then every 2x2 mask."""
        i = rng.integers(n, size=count)
        j = rng.integers(n, size=count)
        return i, j, sample_mask_bits(count, 2, rng)

    @pytest.mark.parametrize("batch_size, count", [(1, 18), (5, 4), (6, 3), (7, 3), (18, 1), (19, 1)])
    def test_one_pass_of_batches(self, train, rng, batch_size, count):
        batches = guided_batch_composer(train, [], (1, 1, 0), self.matrix(batch_size), rng)
        assert len(list(batches)) == count == math.ceil(len(train) / batch_size)

    def test_originals_are_identity_samples(self, train, rng):
        matrix = self.matrix(6)
        batches = self.drawn(guided_batch_composer(train, [], (1, 0, 0), matrix, rng), matrix)
        assert len(batches) == 3
        seen = set()
        for batch in batches:
            assert len(batch) == 6
            assert batch.patches.dtype == np.float64
            for image, image_label, patch_labels in zip(
                batch.patches, batch.image_labels, batch.patch_labels
            ):
                label = int(np.argmax(image_label))
                # lam, the weight of the first source, is 1.
                assert image_label[label] == 1.0
                np.testing.assert_array_equal(image_label, np.eye(3)[label])
                assert patch_labels.tolist() == [label] * 4
                seen.add(image.tobytes())
        # One full pass over 18 images in 3 batches of 6: all distinct.
        assert len(seen) == len(train)

    def test_guided_samples_cycle(self, train, rng):
        ind = make_individual(active=(1,), rng=np.random.default_rng(0))
        guided = guided_set(ind, train, 2, np.random.default_rng(1))
        matrix = self.matrix(3)
        batches = self.drawn(guided_batch_composer(train, guided, (0, 0, 1), matrix, rng), matrix)
        assert len(batches) == 6
        source = {row.astype(np.float64).tobytes() for row in guided.patches}
        for batch in batches:
            assert len(batch) == 3
            for row in batch.patches:
                assert row.tobytes() in source

    def test_random_rows_follow_the_draw_order(self, train):
        """Each batch's random rows are the per-sample composites of the
        reference draws, taken from the batch stream after its originals."""
        matrix = self.matrix(8)
        batches = self.drawn(
            guided_batch_composer(train, [], (1, 1, 0), matrix, np.random.default_rng(9)), matrix
        )
        rng = np.random.default_rng(9)
        originals = cycled_order(len(train), rng)
        assert len(batches) == 3
        for batch in batches:
            take(originals, 4)
            i, j, bits = self.random_draws(rng, len(train), 4)
            assert len(batch) == 8
            for r in range(4):
                y_i, y_j = int(train.labels[i[r]]), int(train.labels[j[r]])
                want = patchmix(train.images[i[r]], y_i, train.images[j[r]], y_j, bits[r], 3)
                np.testing.assert_array_equal(batch.patches[4 + r], want.patches[0])
                np.testing.assert_array_equal(batch.image_labels[4 + r], want.image_labels[0])
                np.testing.assert_array_equal(batch.patch_labels[4 + r], want.patch_labels[0])

    @pytest.mark.parametrize("ratio, batch_size", [((1, 1, 1), 10), ((0, 0, 1), 4), ((2, 0, 1), 7)])
    def test_one_matrix_equals_parts_stacked(self, train, ratio, batch_size):
        """Each batch equals its original, random and guided rows composed
        separately, in the same draw order, and stacked."""
        ind = make_individual(active=(0, 4), rng=np.random.default_rng(2))
        guided = guided_set(ind, train, 7, np.random.default_rng(3))

        def parts_stacked(rng):
            n_original, n_random, n_guided = split_batch(batch_size, ratio)
            originals = cycled_order(len(train), rng)
            guided_order = cycled_order(len(guided), rng)
            for _ in range(math.ceil(len(train) / batch_size)):
                idx = take(originals, n_original)
                ones = np.ones((n_original, 2, 2), dtype=np.uint8)
                i, j, bits = self.random_draws(rng, len(train), n_random)
                rows = take(guided_order, n_guided)
                parts = [
                    patchmix_batch(train.images, idx, idx, train.labels[idx],
                                   train.labels[idx], ones, 3),
                    patchmix_batch(train.images, i, j, train.labels[i], train.labels[j], bits, 3),
                ]
                yield [
                    np.concatenate([parts[0].patches, parts[1].patches,
                                    guided.patches[rows].astype(np.float64)]),
                    np.concatenate([parts[0].image_labels, parts[1].image_labels,
                                    guided.image_labels[rows]]),
                    np.concatenate([parts[0].patch_labels, parts[1].patch_labels,
                                    guided.patch_labels[rows]]),
                ]

        matrix = self.matrix(batch_size)
        got = guided_batch_composer(train, guided, ratio, matrix, np.random.default_rng(9))
        want = parts_stacked(np.random.default_rng(9))
        for plan, (patches, image_labels, patch_labels) in zip(got, want, strict=True):
            # Every batch is composed into the matrix it was handed.
            batch = plan(matrix)
            assert np.shares_memory(batch.patches, matrix)
            assert batch.patches.dtype == np.float64
            np.testing.assert_array_equal(batch.patches, patches)
            np.testing.assert_array_equal(batch.image_labels, image_labels)
            np.testing.assert_array_equal(batch.patch_labels, patch_labels)

    def test_guided_needed_but_missing(self, train, rng):
        with pytest.raises(ConfigError, match="guided"):
            list(guided_batch_composer(train, [], (1, 1, 1), self.matrix(9), rng))

    def test_float64_guided_set_trains_the_same_composed_ahead(self, monkeypatch):
        """A float64 guided set whose values float32 cannot hold reaches the
        batch unrounded, whether the worker composes each batch ahead or
        the main thread composes it after the step before."""
        # 32 px RGB on grid 4: batches of 48 reach the split floor, so the
        # default run composes ahead.
        train, val = synth_shapes(3, 32, 20, seed=4), synth_shapes(3, 32, 3, seed=5)
        cfg = TrainConfig(epochs=2, batch_size=48, grid_size=4, hidden_dim=64, seed=3)
        assert 48 * 16 * (8 * 8 * 3) * 64 >= model_module.SPLIT_FLOOR
        ind = make_individual(grid_size=4, active=(0, 4), rng=np.random.default_rng(2))
        guided = guided_set(ind, train, 30, np.random.default_rng(3))
        wide = MixedBatch(
            np.nextafter(guided.patches.astype(np.float64), 2.0),
            guided.image_labels,
            guided.patch_labels,
        )
        assert not np.array_equal(wide.patches.astype(np.float32), wide.patches)
        ahead, ahead_metrics = train_final(train, val, cfg, wide)
        monkeypatch.setattr(model_module, "SPLIT_FLOOR", 2**62)
        here, here_metrics = train_final(train, val, cfg, wide)
        rounded, _ = train_final(train, val, cfg, guided)
        for name, value in ahead.params().items():
            assert value.tobytes() == getattr(here, name).tobytes(), name
        assert ahead_metrics == here_metrics
        # The set's last bits reach the model: rounded to float32, it trains otherwise.
        assert ahead.w_embed.tobytes() != rounded.w_embed.tobytes()


class TestFitnessValSubset:
    def test_stratified_and_sorted(self):
        val = synth_shapes(3, 16, 20, seed=9)
        subset = fitness_val_subset(val, SearchConfig(val_fraction=0.25, seed=3))
        assert len(subset) == 15
        for indices in subset.class_indices():
            assert len(indices) == 5
        # Deterministic for a fixed seed.
        again = fitness_val_subset(val, SearchConfig(val_fraction=0.25, seed=3))
        np.testing.assert_array_equal(subset.images, again.images)

    def test_takes_at_least_one_per_class(self):
        val = synth_shapes(4, 16, 3, seed=9)
        subset = fitness_val_subset(val, SearchConfig(val_fraction=0.05))
        counts = [len(ix) for ix in subset.class_indices()]
        assert counts == [1, 1, 1, 1]

    def test_ceil_rounding(self):
        val = synth_shapes(2, 16, 10, seed=9)
        subset = fitness_val_subset(val, SearchConfig(val_fraction=0.25))
        assert len(subset) == 2 * math.ceil(2.5)

    def test_empty_rejected(self):
        val = synth_shapes(2, 16, 4, seed=9)
        with pytest.raises(ConfigError):
            fitness_val_subset(val.subset(np.array([], dtype=np.int64)), SearchConfig())


class TestTrainFinal:
    def test_image_objective_never_scores_patches(self, small_train, small_val):
        cfg = TrainConfig(
            epochs=3, batch_size=30, hidden_dim=16, grid_size=2, seed=2,
            loss_mode="image_only",
        )
        ind = make_individual(active=(1,), rng=np.random.default_rng(2))
        guided = guided_set(ind, small_train, 20, np.random.default_rng(3))
        image, patch = loss_eval_count("image"), loss_eval_count("patch")
        model, metrics = train_final(small_train, small_val, cfg, guided)
        assert loss_eval_count("patch") == patch
        assert loss_eval_count("image") > image
        assert len(metrics) == 3

    @pytest.mark.parametrize("loss_mode", ["both", "patch_only"])
    def test_image_objective_whatever_the_config_says(self, small_train, small_val, loss_mode):
        cfg = TrainConfig(epochs=2, batch_size=30, hidden_dim=16, grid_size=2, seed=2)
        ind = make_individual(active=(1,), rng=np.random.default_rng(2))
        guided = guided_set(ind, small_train, 20, np.random.default_rng(3))
        patch = loss_eval_count("patch")
        model, _ = train_final(small_train, small_val, replace(cfg, loss_mode=loss_mode), guided)
        assert loss_eval_count("patch") == patch
        want, _ = train_final(
            small_train, small_val, replace(cfg, loss_mode="image_only"), guided
        )
        for name, value in want.params().items():
            np.testing.assert_array_equal(getattr(model, name), value)

    def test_empty_guided_ok_when_ratio_skips_it(self, small_train, small_val):
        cfg = TrainConfig(epochs=2, batch_size=30, hidden_dim=16, seed=2)
        model, metrics = train_final(small_train, small_val, cfg, [], ratio=(1, 1, 0))
        assert len(metrics) == 2

    @pytest.mark.parametrize(
        "other, message",
        [
            ((3, 32, 4, 7, 4), "(patch_pixels, class_count) = (192, 3), but the training set "
             "has (48, 3)"),
            ((4, 16, 4, 7, 4), "(patch_pixels, class_count) = (48, 4), but the training set "
             "has (48, 3)"),
            ((3, 16, 4, 7, 2), "grid size 2, but train.grid_size is 4"),
        ],
        ids=["pixels-per-patch", "class-count", "grid"],
    )
    def test_guided_set_of_other_data_refused(self, small_train, small_val, other, message):
        # A guided set composed from other data or on another grid than the
        # config's 4x4: a patch of a 32 px RGB image on it has 192 pixels,
        # one of a 16 px image 48.
        classes, size, per_class, seed, grid = other
        data = synth_shapes(classes, size, per_class, seed)
        ind = make_individual(classes, grid_size=grid, active=(1,), rng=np.random.default_rng(2))
        guided = guided_set(ind, data, 10, np.random.default_rng(3))
        cfg = TrainConfig(epochs=1, batch_size=30, hidden_dim=16, grid_size=4, seed=2)
        with pytest.raises(ConfigError, match=re.escape(f"guided set has {message}")):
            train_final(small_train, small_val, cfg, guided)

    @pytest.mark.parametrize(
        "cfg_change, ratio, message",
        [
            ({"epochs": 0}, (1, 1, 1), "epochs must be at least 1"),
            ({"batch_size": 0}, (1, 1, 1), "batch_size must be at least 1"),
            ({}, (0, 0, 0), "guided set has (patch_pixels, class_count) = (48, 4)"),
        ],
        ids=["config-first", "batch-size-first", "guided-set-before-ratio"],
    )
    def test_first_error_reported(self, small_train, small_val, cfg_change, ratio, message):
        # The driver checks the config and the sets, then the batch source
        # the guided set, then the batch ratio.
        data = synth_shapes(4, 16, 7, 4)
        ind = make_individual(4, grid_size=4, active=(1,), rng=np.random.default_rng(2))
        guided = guided_set(ind, data, 10, np.random.default_rng(3))
        cfg = TrainConfig(**{"batch_size": 30, "hidden_dim": 16, "grid_size": 4, **cfg_change})
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            train_final(small_train, small_val, cfg, guided, ratio)

    def test_same_seed_same_model(self, small_train, small_val):
        cfg = TrainConfig(epochs=2, batch_size=40, hidden_dim=16, grid_size=2, seed=6)
        ind = make_individual(active=(0,), rng=np.random.default_rng(1))
        guided = guided_set(ind, small_train, 10, np.random.default_rng(1))
        m1, _ = train_final(small_train, small_val, cfg, guided)
        m2, _ = train_final(small_train, small_val, cfg, guided)
        np.testing.assert_array_equal(m1.w_embed, m2.w_embed)
        np.testing.assert_array_equal(m1.w_img, m2.w_img)


@pytest.fixture(scope="module")
def tiny_sets():
    train = synth_shapes(3, 16, 20, seed=21)
    val = synth_shapes(3, 16, 8, seed=22)
    return train, val


@pytest.fixture(scope="module")
def tiny_cfg():
    return TrainConfig(epochs=4, batch_size=30, hidden_dim=16, grid_size=2, seed=13)


def recorder():
    """A ``record`` that keeps every call's phase and results."""
    calls = []
    return calls, lambda phase, *results: calls.append((phase, results))


class TestPipeline:
    def test_without_record_nothing_is_written(self, tiny_sets, tiny_cfg, tmp_path, monkeypatch):
        train, val = tiny_sets
        monkeypatch.chdir(tmp_path)
        result = run_guided_pipeline(train, val, tiny_cfg, SMALL_SEARCH)
        assert list(tmp_path.iterdir()) == []
        assert result.best_individual.fitness is not None
        assert len(result.final_metrics) == tiny_cfg.epochs

    def test_record_gets_every_phase_in_order(self, tiny_sets, tiny_cfg):
        train, val = tiny_sets
        calls, record = recorder()
        result = run_guided_pipeline(train, val, tiny_cfg, SMALL_SEARCH, record=record)
        assert [phase for phase, _ in calls] == [1, 2, 3, 4]
        (_, fitness), (_, search), (_, (recipe,)), (_, final) = calls
        assert fitness == (result.fitness_model, result.fitness_metrics)
        assert search == (result.best_individual, result.history)
        assert final == (result.final_model, result.final_metrics)
        assert result.fitness_metrics is not None
        # The guided recipe covers one draw per training image.
        assert recipe == guided_recipe(result.best_individual, train, tiny_cfg)
        assert len(recipe) == len(train)

    def test_resume_skips_phase_one(self, tiny_sets, tiny_cfg, caplog):
        train, val = tiny_sets
        first = run_guided_pipeline(train, val, tiny_cfg, SMALL_SEARCH)
        calls, record = recorder()
        with caplog.at_level(logging.INFO, logger="patchmix.workflow"):
            second = run_guided_pipeline(
                train, val, tiny_cfg, SMALL_SEARCH, fitness_model=first.fitness_model,
                record=record,
            )
        assert any("phase 1 skipped" in r.message for r in caplog.records)
        assert [phase for phase, _ in calls] == [2, 3, 4]
        assert second.fitness_metrics is None
        # Same fitness model in, same results out.
        best, again = first.best_individual, second.best_individual
        np.testing.assert_array_equal(again.head, best.head)
        np.testing.assert_array_equal(again.masks, best.masks)
        assert again.fitness == best.fitness
        np.testing.assert_array_equal(
            first.final_model.w_img, second.final_model.w_img
        )

    @pytest.mark.parametrize(
        "objective, form", [("min_patch_acc", "per-cell counts"), ("min_lp", "composite gather")]
    )
    def test_phase_two_log_counts_table_images_and_genomes(
        self, tiny_sets, tiny_cfg, caplog, monkeypatch, objective, form
    ):
        train, val = tiny_sets
        search = replace(SMALL_SEARCH, objective=objective)
        calls = []

        def counted(individual, table):
            calls.append(individual)
            return evaluate_fitness(individual, table)

        monkeypatch.setattr(workflow, "evaluate_fitness", counted)
        with caplog.at_level(logging.INFO, logger="patchmix.workflow"):
            run_guided_pipeline(train, val, tiny_cfg, search)
        [line] = [r.getMessage() for r in caplog.records if "phase 2 done" in r.getMessage()]
        images = len(fitness_val_subset(val, search))
        assert len(calls) >= search.population_size
        assert f"; {len(calls)} genomes scored by {form} from a table of {images} forwarded" in line

    def test_winner_keeps_its_score_on_the_run_table(self, small_model, small_val, monkeypatch):
        # A loss objective ranks genomes, so a score taken on other draws
        # than the table's would show in the winner's re-score.
        cfg = SearchConfig(
            population_size=20, generations=12, patience=12, pairs_per_combo=4,
            objective="min_lp", seed=3,
        )
        scored = []

        def recorded(individual, table):
            scored.append((table, evaluate_fitness(individual, table)))
            return scored[-1][1]

        monkeypatch.setattr(workflow, "evaluate_fitness", recorded)
        best, history = run_fitness_search(small_model, small_val, cfg)
        [table] = {id(table): table for table, _ in scored}.values()
        scores = {score for _, score in scored}
        assert len(scores) > 1
        assert evaluate_fitness(best, table) == best.fitness
        assert {stats.best for stats in history} <= scores

    @pytest.mark.parametrize("side, name", [(0, "training set"), (1, "validation set")])
    def test_set_without_a_class_refused_before_phase_one(
        self, tiny_sets, tiny_cfg, monkeypatch, side, name
    ):
        sets = list(tiny_sets)
        sets[side] = sets[side].subset(np.flatnonzero(sets[side].labels != 2))
        monkeypatch.setattr(workflow, "train_random_patchmix", lambda *a: pytest.fail("phase 1 ran"))
        with pytest.raises(ConfigError, match=f"^{name} has no samples of class 2$"):
            run_guided_pipeline(*sets, tiny_cfg, SMALL_SEARCH)

    def test_fitness_model_checkpoint_matches_result(self, tiny_sets, tiny_cfg, tmp_path):
        train, val = tiny_sets
        path = tmp_path / "fitness.pmxm"

        def record(phase, *results):
            if phase == 1:
                save_model(results[0], path)

        result = run_guided_pipeline(train, val, tiny_cfg, SMALL_SEARCH, record=record)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.w_embed, result.fitness_model.w_embed)
        np.testing.assert_array_equal(loaded.b_img, result.fitness_model.b_img)


class TestAblation:
    def test_grid_covers_all_cells(self, small_train, small_val):
        cfg = TrainConfig(epochs=2, batch_size=40, hidden_dim=8, seed=3)
        rows = ablation_grid(
            small_train, small_val, cfg, grid_sizes=(2, 4), loss_modes=("both", "image_only")
        )
        assert [(r.grid_size, r.loss_mode) for r in rows] == [
            (2, "both"),
            (2, "image_only"),
            (4, "both"),
            (4, "image_only"),
        ]
        for row in rows:
            assert math.isfinite(row.train_loss)
            assert 0.0 <= row.val_top1 <= 1.0
            assert 0.0 <= row.val_patch_acc <= 1.0

    def test_csv_lines(self):
        rows = [AblationRow(4, "both", 1.5, 0.75, 0.5)]
        assert ablation_csv_lines(rows) == [
            "grid_size,loss_mode,train_loss,val_top1,val_patch_acc",
            "4,both,1.5,0.75,0.5",
        ]

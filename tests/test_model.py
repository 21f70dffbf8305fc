import dataclasses
import threading

import numpy as np
import pytest

from patchmix.data import Dataset, synth_shapes
from patchmix.errors import ConfigError, FormatError, NumericError
from patchmix.losses import LOSS_MODES, log_softmax
from patchmix.mixing import MixedBatch, patchmix, patchmix_batch
from patchmix.model import (
    PARAM_FIELDS,
    EpochMetrics,
    ReferenceModel,
    TrainConfig,
    _train_loop,
    adversarial_accuracy,
    backward,
    batch_gradients,
    cosine_lr,
    evaluate_model,
    fgsm_attack_batch,
    forward_batch,
    init_velocity,
    load_metrics,
    load_model,
    metrics_csv_lines,
    patchify,
    save_metrics,
    save_model,
    sgd_nesterov_step,
    train_random_patchmix,
    unpatchify,
)
from patchmix.rng import RngKey


def tiny_model(seed=0, grid_size=2, class_count=3, hidden_dim=5, patch_pixels=4):
    return ReferenceModel.initialize(
        grid_size, class_count, hidden_dim, patch_pixels,
        np.random.default_rng(seed),
    )


def zero_model(**kwargs):
    model = tiny_model(**kwargs)
    for name in PARAM_FIELDS:
        getattr(model, name)[:] = 0.0
    return model


def mixed_batch(rng, n=3, grid_size=2, class_count=3, side=4):
    """``(images, batch)``: ``n`` per-sample composites as images, and the
    batch of their patch matrices that ``backward`` reads."""
    rows = []
    for _ in range(n):
        mask = rng.integers(0, 2, (grid_size, grid_size), dtype=np.uint8)
        rows.append(
            patchmix(
                rng.random((side, side, 1)),
                int(rng.integers(class_count)),
                rng.random((side, side, 1)),
                int(rng.integers(class_count)),
                mask,
                class_count,
            )
        )
    batch = MixedBatch(
        np.concatenate([row.patches for row in rows]),
        np.concatenate([row.image_labels for row in rows]),
        np.concatenate([row.patch_labels for row in rows]),
    )
    return unpatchify(batch.patches, (n, side, side, 1), grid_size), batch


class TestPatchify:
    def test_row_major_grid_order(self):
        # A 4x4 single-channel image whose pixel value encodes its patch.
        image = np.zeros((1, 4, 4, 1))
        image[0, :2, :2] = 0   # grid (0, 0) -> flat patch 0
        image[0, :2, 2:] = 1   # grid (0, 1) -> flat patch 1
        image[0, 2:, :2] = 2   # grid (1, 0) -> flat patch 2
        image[0, 2:, 2:] = 3   # grid (1, 1) -> flat patch 3
        patches = patchify(image, 2)
        assert patches.shape == (1, 4, 4)
        assert np.array_equal(patches[0].mean(axis=1), [0, 1, 2, 3])

    def test_unpatchify_inverts(self, rng):
        image = rng.random((2, 8, 8, 3))
        patches = patchify(image, 4)
        assert np.array_equal(unpatchify(patches, image.shape, 4), image)

    def test_non_divisible_rejected(self, rng):
        with pytest.raises(ConfigError):
            patchify(rng.random((1, 6, 6, 1)), 4)


class TestForward:
    def test_zero_model_gives_zero_logits(self):
        model = zero_model()
        patch_logits, image_logits = forward_batch(
            model, np.random.default_rng(1).random((1, 4, 4, 1))
        )
        assert np.array_equal(patch_logits[0], np.zeros((4, 3)))
        assert np.array_equal(image_logits[0], np.zeros(3))
        assert np.allclose(np.exp(log_softmax(image_logits[0])), 1 / 3)

    def test_patch_rows_follow_mask_order(self):
        # Identity embedding; class-0 logit = sum of patch pixels.  Mixing
        # an all-ones image over an all-zeros one with a single mask bit
        # must light up exactly the matching patch row.
        model = zero_model(hidden_dim=4, class_count=2)
        model.w_embed[:] = np.eye(4)
        model.w_patch[:, 0] = 1.0
        x_i = np.ones((4, 4, 1))
        x_j = np.zeros((4, 4, 1))
        for k in range(4):
            bits = np.zeros(4, dtype=np.uint8)
            bits[k] = 1
            row = patchmix(x_i, 0, x_j, 1, bits.reshape(2, 2), 2)
            patch_logits, _ = forward_batch(model, unpatchify(row.patches, (1, 4, 4, 1), 2))
            assert np.argmax(patch_logits[0, :, 0]) == k
            assert patch_logits[0, k, 0] == pytest.approx(4.0)

    def test_swapping_patches_permutes_rows_only(self, rng):
        model = tiny_model()
        image = rng.random((4, 4, 1))
        swapped = image.copy()
        swapped[:2, :2], swapped[:2, 2:] = image[:2, 2:].copy(), image[:2, :2].copy()
        (a_patch, b_patch), (a_image, b_image) = forward_batch(
            model, np.stack([image, swapped])
        )
        assert np.allclose(a_patch[[1, 0, 2, 3]], b_patch)
        assert np.allclose(a_image, b_image, atol=1e-12)

    def test_batch_matches_single(self, rng):
        model = tiny_model()
        images = rng.random((3, 4, 4, 1))
        patch_logits, image_logits = forward_batch(model, images)
        one_patch, one_image = forward_batch(model, images[1:2])
        assert np.allclose(patch_logits[1], one_patch[0])
        assert np.allclose(image_logits[1], one_image[0])

    def test_duplicate_inputs_identical_outputs(self, rng):
        model = tiny_model()
        image = rng.random((4, 4, 1))
        patch_logits, image_logits = forward_batch(model, np.stack([image, image]))
        assert np.array_equal(patch_logits[0], patch_logits[1])
        assert np.array_equal(image_logits[0], image_logits[1])

    def test_wrong_patch_pixels_rejected(self, rng):
        model = tiny_model()  # expects 2x2x1 patches
        with pytest.raises(ConfigError):
            forward_batch(model, rng.random((1, 4, 4, 3)))


def numeric_gradient(fn, array, index, h=1e-4):
    """Central finite difference of a scalar function at one coordinate."""
    original = array[index]
    array[index] = original + h
    up = fn()
    array[index] = original - h
    down = fn()
    array[index] = original
    return (up - down) / (2 * h)


class TestGradients:
    @pytest.mark.parametrize("loss_mode", LOSS_MODES)
    def test_matches_finite_differences(self, loss_mode):
        rng = np.random.default_rng(99)
        model = tiny_model(seed=4)
        images, batch = mixed_batch(rng)
        targets = batch.image_labels
        patch_labels = batch.patch_labels

        def loss_value():
            return batch_gradients(model, images, targets, patch_labels, loss_mode)[0]

        _, grads, input_grads = batch_gradients(
            model, images, targets, patch_labels, loss_mode
        )
        worst = 0.0
        for name in PARAM_FIELDS:
            block = getattr(model, name)
            for _ in range(6):
                index = tuple(rng.integers(0, s) for s in block.shape)
                numeric = numeric_gradient(loss_value, block, index)
                analytic = grads[name][index]
                err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
                worst = max(worst, err)
        for _ in range(10):
            index = tuple(rng.integers(0, s) for s in images.shape)
            numeric = numeric_gradient(loss_value, images, index)
            err = abs(input_grads[index] - numeric) / max(
                abs(input_grads[index]), abs(numeric), 1e-6
            )
            worst = max(worst, err)
        assert worst < 1e-4

    def test_stationary_when_targets_equal_predictions(self, rng):
        model = tiny_model(seed=8)
        images = rng.random((2, 4, 4, 1))
        _, image_logits = forward_batch(model, images)
        targets = np.exp(log_softmax(image_logits))
        _, grads, input_grads = batch_gradients(
            model, images, targets, None, "image_only"
        )
        total = sum(np.abs(g).sum() for g in grads.values()) + np.abs(input_grads).sum()
        assert total < 1e-6

    def test_batch_duplication_keeps_mean_gradient(self, rng):
        model = tiny_model(seed=2)
        _, batch = mixed_batch(rng)
        _, grads_once = backward(model, batch, "both")
        twice = MixedBatch(
            *(np.concatenate([a, a]) for a in (batch.patches, batch.image_labels, batch.patch_labels))
        )
        _, grads_twice = backward(model, twice, "both")
        for name in PARAM_FIELDS:
            assert np.allclose(grads_once[name], grads_twice[name], atol=1e-12)

    def test_patch_labels_required_outside_image_only(self, rng):
        model = tiny_model()
        images = rng.random((2, 4, 4, 1))
        targets = np.eye(3)[[0, 1]]
        with pytest.raises(ConfigError):
            batch_gradients(model, images, targets, None, "both")

    @pytest.mark.parametrize(
        "shape, error", [((3, 9, 4), "4 patches per sample"), ((3, 4, 3), "4 pixels per patch")]
    )
    def test_wrong_patch_matrix_rejected(self, rng, shape, error):
        model = tiny_model()  # grid 2: 4 patches of 4 pixels
        batch = MixedBatch(
            rng.random(shape), np.eye(3)[[0, 1, 2]], rng.integers(0, 3, (3, shape[1]))
        )
        with pytest.raises(ConfigError, match=error):
            backward(model, batch, "image_only")

    def test_non_finite_weights_raise(self, rng):
        model = tiny_model()
        model.w_img[0, 0] = np.inf
        _, batch = mixed_batch(rng)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            backward(model, batch, "both")


def random_batch(rng, size, grid_size, class_count=3, side=8, pool=20):
    """``size`` composites of random images under random grid masks."""
    images = rng.random((pool, side, side, 3))
    labels = rng.integers(0, class_count, pool)
    i, j = rng.integers(0, pool, size), rng.integers(0, pool, size)
    bits = rng.integers(0, 2, (size, grid_size, grid_size)).astype(np.uint8)
    return patchmix_batch(images, i, j, labels[i], labels[j], bits, class_count)


class TestBufferedStep:
    """``backward`` with a reused scratch dict against ``batch_gradients``,
    which forms everything afresh (the reference path)."""

    @pytest.mark.parametrize("grid_size", [1, 2, 4])
    def test_reused_buffers_match_reference_exactly(self, rng, grid_size):
        side = 8
        model = ReferenceModel.initialize(
            grid_size, 3, 5, (side // grid_size) ** 2 * 3, np.random.default_rng(grid_size)
        )
        buffers: dict = {}
        previous = None
        for size, mode in zip([100, 37, 100, 37, 100, 100], LOSS_MODES * 2):
            batch = random_batch(rng, size, grid_size, side=side)
            loss, grads = backward(model, batch, mode, buffers)
            images = unpatchify(batch.patches, (size, side, side, 3), grid_size)
            ref_loss, ref_grads, _ = batch_gradients(
                model, images, batch.image_labels, batch.patch_labels, mode
            )
            assert loss == ref_loss
            for name in PARAM_FIELDS:
                assert np.array_equal(grads[name], ref_grads[name]), (size, mode, name)
            if previous is not None:
                old_grads, old_copy = previous
                for name in PARAM_FIELDS:
                    assert np.array_equal(old_grads[name], old_copy[name]), (size, mode, name)
            previous = grads, {name: g.copy() for name, g in grads.items()}
        assert buffers, "backward never wrote into the scratch dict"

    def test_buffered_forward_and_evaluation_match(self, rng, small_model, small_val):
        buffers: dict = {}
        fresh = forward_batch(small_model, small_val.images)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(fresh, forward_batch(small_model, small_val.images, buffers))
        )
        reference = evaluate_model(small_model, small_val, batch_size=16)
        assert evaluate_model(small_model, small_val, batch_size=16, buffers=buffers) == reference

    def test_chunked_evaluation_into_a_scratch_equals_one_chunk(self, small_model, small_val):
        """Chunks of 7 rows (45 images leave a ragged chunk of 3) patchified
        into one scratch dict score as one fresh chunk of 256, for the
        trained model and for an untrained one whose scores are not 1.0."""
        assert len(small_val) % 7
        untrained = ReferenceModel.initialize(
            small_model.grid_size, small_model.class_count, small_model.hidden_dim,
            small_model.patch_pixels, np.random.default_rng(3),
        )
        for model in (small_model, untrained):
            buffers: dict = {}
            reference = evaluate_model(model, small_val, 256, None)
            assert evaluate_model(model, small_val, 7, buffers) == reference
            assert buffers["patches"].size == 7 * model.patch_count * model.patch_pixels
            assert evaluate_model(model, small_val, 7, buffers) == reference
        assert evaluate_model(untrained, small_val) != (1.0, 1.0)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_evaluation_batch_size_below_one_rejected(self, small_model, small_val, batch_size):
        with pytest.raises(ConfigError, match="batch_size must be at least 1"):
            evaluate_model(small_model, small_val, batch_size)

    def test_float32_images_match_their_float64_copy(self, small_model, small_val):
        images32 = small_val.images[:20]
        assert images32.dtype == np.float32
        images64 = images32.astype(np.float64)
        targets = np.eye(small_model.class_count)[small_val.labels[:20]]
        for got, want in zip(
            forward_batch(small_model, images32, {}), forward_batch(small_model, images64)
        ):
            assert np.array_equal(got, want)
        loss32, grads32, input32 = batch_gradients(small_model, images32, targets, None, "image_only")
        loss64, grads64, input64 = batch_gradients(small_model, images64, targets, None, "image_only")
        assert loss32 == loss64 and np.array_equal(input32, input64)
        assert all(np.array_equal(grads32[name], grads64[name]) for name in PARAM_FIELDS)


class TestCosineLr:
    def test_endpoints_exact(self):
        assert cosine_lr(0, 10, 0.1) == 0.1
        assert cosine_lr(10, 10, 0.1) == pytest.approx(0.0, abs=1e-17)
        assert cosine_lr(10, 10, 0.1, eta_min=0.001) == pytest.approx(0.001, abs=1e-12)

    def test_midpoint(self):
        assert cosine_lr(5, 10, 0.1, eta_min=0.02) == pytest.approx(0.06, abs=1e-12)

    def test_degenerate_schedule_returns_lr0(self):
        assert cosine_lr(0, 0, 0.1) == 0.1

    def test_monotone_decay(self):
        values = [cosine_lr(e, 20, 0.1) for e in range(21)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_epoch_rejected(self):
        with pytest.raises(ConfigError):
            cosine_lr(11, 10, 0.1)
        with pytest.raises(ConfigError):
            cosine_lr(-1, 10, 0.1)


class TestSgdNesterov:
    def test_reduces_to_vanilla_sgd(self):
        model = zero_model()
        model.w_img[:] = 1.0
        grads = {name: np.zeros_like(getattr(model, name)) for name in PARAM_FIELDS}
        grads["w_img"][:] = 0.5
        sgd_nesterov_step(model, grads, init_velocity(model), 0.1, 0.0, 0.0)
        assert np.allclose(model.w_img, 1.0 - 0.1 * 0.5)

    def test_zero_gradient_is_fixed_point(self):
        model = tiny_model(seed=3)
        before = {name: getattr(model, name).copy() for name in PARAM_FIELDS}
        grads = {name: np.zeros_like(getattr(model, name)) for name in PARAM_FIELDS}
        sgd_nesterov_step(model, grads, init_velocity(model), 0.1, 0.9, 0.0)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(model, name), before[name])

    def test_velocity_recurrence(self):
        # v after two constant-gradient steps at momentum 0.9 is 1.9 g.
        model = zero_model()
        grads = {name: np.zeros_like(getattr(model, name)) for name in PARAM_FIELDS}
        grads["w_patch"][:] = 2.0
        velocity = init_velocity(model)
        sgd_nesterov_step(model, grads, velocity, 0.01, 0.9, 0.0)
        sgd_nesterov_step(model, grads, velocity, 0.01, 0.9, 0.0)
        assert np.allclose(velocity["w_patch"], 1.9 * 2.0)

    def test_weight_decay_skips_biases(self):
        model = zero_model()
        model.w_img[:] = 1.0
        model.b_img[:] = 1.0
        grads = {name: np.zeros_like(getattr(model, name)) for name in PARAM_FIELDS}
        sgd_nesterov_step(model, grads, init_velocity(model), 0.1, 0.0, 0.01)
        assert np.allclose(model.w_img, 1.0 - 0.1 * 0.01)  # decayed
        assert np.allclose(model.b_img, 1.0)               # untouched

    def test_nesterov_lookahead_step(self):
        # Single step from zero velocity: w -= lr * (1 + momentum) * g.
        model = zero_model()
        grads = {name: np.zeros_like(getattr(model, name)) for name in PARAM_FIELDS}
        grads["b_embed"][:] = 1.0
        sgd_nesterov_step(model, grads, init_velocity(model), 0.1, 0.9, 0.0)
        assert np.allclose(model.b_embed, -0.1 * 1.9)


class TestTraining:
    def test_reaches_high_accuracy_fast(self, small_model, small_train, small_val):
        top1, _ = evaluate_model(small_model, small_val)
        assert top1 >= 0.9

    def test_metrics_one_row_per_epoch(self, small_train, small_val, small_cfg):
        _, metrics = train_random_patchmix(small_train, small_val, small_cfg)
        assert [m.epoch for m in metrics] == list(range(small_cfg.epochs))
        assert metrics[0].lr == small_cfg.lr0
        assert metrics[-1].lr == small_cfg.eta_min
        assert all(np.isfinite(m.train_loss) for m in metrics)

    def test_same_seed_bit_identical(self, small_train, small_val):
        cfg = TrainConfig(epochs=2, batch_size=40, hidden_dim=16, seed=9)
        a, _ = train_random_patchmix(small_train, small_val, cfg)
        b, _ = train_random_patchmix(small_train, small_val, cfg)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_unmixed_mode_stays_competitive(self, small_train, small_val, small_cfg):
        plain_cfg = dataclasses.replace(small_cfg, mix_probability=0.0)
        plain, _ = train_random_patchmix(small_train, small_val, plain_cfg)
        mixed, _ = train_random_patchmix(small_train, small_val, small_cfg)
        plain_top1, _ = evaluate_model(plain, small_val)
        mixed_top1, _ = evaluate_model(mixed, small_val)
        assert plain_top1 >= mixed_top1 - 0.05

    def test_unmixed_mode_consumes_no_mask_draws(self, small_train, small_val, monkeypatch):
        rows = []

        def counting_sampler(count, grid_size, rng):
            rows.append(count)
            return np.ones((count, grid_size, grid_size), dtype=np.uint8)

        monkeypatch.setattr("patchmix.model.sample_mask_bits", counting_sampler)
        cfg = TrainConfig(epochs=1, batch_size=40, hidden_dim=8, seed=0, mix_probability=0.0)
        train_random_patchmix(small_train, small_val, cfg)
        assert sum(rows) == 0
        # The patch reaches the sampler phase 1 uses: one mask per sample.
        rows.clear()
        mixing = dataclasses.replace(cfg, mix_probability=1.0)
        train_random_patchmix(small_train, small_val, mixing)
        assert sum(rows) == len(small_train)

    def test_incompatible_grid_rejected(self, small_train, small_val):
        cfg = TrainConfig(epochs=1, grid_size=5)
        with pytest.raises(ConfigError):
            train_random_patchmix(small_train, small_val, cfg)

    def test_class_count_mismatch_rejected(self, small_train):
        other = synth_shapes(4, 16, 3, 0)
        with pytest.raises(ConfigError):
            train_random_patchmix(small_train, other, TrainConfig(epochs=1))


class TestTrainLoop:
    """The shared driver checks every trainer's inputs, in one order, before
    it draws a batch."""

    @staticmethod
    def inputs(case, train, val):
        """``(train, val, cfg)`` with the faults ``case`` names."""
        cfg, none = TrainConfig(epochs=1, batch_size=40, hidden_dim=8), np.array([], dtype=np.int64)
        if case.startswith("config"):
            cfg = dataclasses.replace(cfg, epochs=0)
        if case.endswith("empty-train"):
            train = train.subset(none)
        if case == "empty-val":
            val = val.subset(none)
        if case == "image-shape":
            val = Dataset(np.zeros((3, 16, 8, 3), np.float32), np.arange(3), 3)
        if case == "class-count":
            val = synth_shapes(4, 16, 3, 0)
        if case == "grid":
            cfg = dataclasses.replace(cfg, grid_size=5)
        return train, val, cfg

    # Each case's error; a case with two faults reports the one checked first.
    ERRORS = {
        "config": "epochs must be at least 1",
        "config-and-empty-train": "epochs must be at least 1",
        "empty-train": "train and validation sets must be non-empty",
        "empty-val": "train and validation sets must be non-empty",
        "image-shape": "train and validation image shapes differ",
        "class-count": "train and validation class counts differ",
        "grid": "image 16x16 not divisible by grid size 5",
    }

    @pytest.mark.parametrize("case", list(ERRORS))
    def test_inputs_refused_before_a_batch_is_drawn(self, small_train, small_val, case):
        def source(rng, patches):
            raise AssertionError("the batch source ran")

        train, val, cfg = self.inputs(case, small_train, small_val)
        with pytest.raises(ConfigError, match=f"^{self.ERRORS[case]}$"):
            _train_loop(train, val, cfg, source, "test")

    def test_source_composes_into_one_batch_matrix(self, small_train, small_val):
        cfg = TrainConfig(epochs=2, batch_size=50, grid_size=2, hidden_dim=8)
        seen = []

        def source(rng, patches):
            seen.append(patches)
            idx = np.arange(7)
            yield patchmix_batch(
                small_train.images, idx, idx, small_train.labels[idx], small_train.labels[idx],
                np.ones((7, 2, 2)), 3, out=patches[:7],
            )

        _train_loop(small_train, small_val, cfg, source, "test")
        assert seen[0].shape == (50, 4, 192) and seen[0].dtype == np.float64
        assert len(seen) == 2 and seen[1] is seen[0]


class TestTrainLoopWorker:
    """The driver's worker thread lives exactly as long as its run."""

    @staticmethod
    def run(train, val, cfg, seen, batches=2, fail_at=None):
        """Train on a source that yields ``batches`` identity batches of the
        whole training set per epoch, or raises a ``ConfigError`` at batch
        ``fail_at``; ``seen`` gets the thread count at each batch request."""

        def source(rng, patches):
            idx = np.arange(len(train))
            for index in range(batches):
                seen.append(threading.active_count())
                if index == fail_at:
                    raise ConfigError("the source refused")
                yield patchmix_batch(
                    train.images, idx, idx, train.labels[idx], train.labels[idx],
                    np.ones((len(idx), cfg.grid_size, cfg.grid_size)), train.class_count,
                    out=patches[: len(idx)],
                )

        return _train_loop(train, val, cfg, source, "test")

    @pytest.fixture(scope="class")
    def cifar_sets(self):
        """100 training images of 32 px: a batch's (1600x192)x64 products
        reach the split floor."""
        return synth_shapes(10, 32, 10, 3), synth_shapes(10, 32, 2, 4)

    def test_normal_return_joins_the_worker(self, cifar_sets):
        before, seen = threading.active_count(), []
        self.run(*cifar_sets, TrainConfig(epochs=1, batch_size=100), seen)
        assert seen == [before, before + 1]
        assert threading.active_count() == before

    def test_numeric_error_joins_the_worker(self, cifar_sets):
        before, seen = threading.active_count(), []
        cfg = TrainConfig(epochs=1, batch_size=100, lr0=1e300)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericError, match="^epoch 0, batch 1: "
        ):
            self.run(*cifar_sets, cfg, seen)
        assert seen == [before, before + 1]
        assert threading.active_count() == before

    def test_source_error_joins_the_worker(self, cifar_sets):
        before, seen = threading.active_count(), []
        with pytest.raises(ConfigError, match="^the source refused$"):
            self.run(*cifar_sets, TrainConfig(epochs=1, batch_size=100), seen, 3, fail_at=2)
        assert seen == [before, before + 1, before + 1]
        assert threading.active_count() == before

    def test_quick_start_shape_starts_no_thread(self):
        # 16 px on grid 4: (1600x48)x64 products, below the split floor.
        train, val = synth_shapes(3, 16, 34, 5), synth_shapes(3, 16, 5, 6)
        before, seen = threading.active_count(), []
        self.run(train, val, TrainConfig(epochs=2, batch_size=102), seen)
        assert seen == [before] * 4
        assert threading.active_count() == before


class TestFgsm:
    def test_zero_epsilon_is_identity(self, small_model, small_val):
        images = small_val.images[:1]
        adv = fgsm_attack_batch(small_model, images, small_val.labels[:1], 0.0)
        assert np.array_equal(adv, images.astype(np.float64))

    def test_perturbation_bounded_and_clipped(self, small_model, small_val):
        eps = 0.1
        adv = fgsm_attack_batch(
            small_model, small_val.images[:8], small_val.labels[:8], eps
        )
        delta = np.abs(adv - small_val.images[:8].astype(np.float64))
        assert delta.max() <= eps + 1e-12
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_negative_epsilon_rejected(self, small_model, small_val):
        with pytest.raises(ConfigError):
            fgsm_attack_batch(small_model, small_val.images[:1], np.array([0]), -0.1)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_epsilon_rejected(self, small_model, small_val, epsilon):
        with pytest.raises(ConfigError, match="epsilon must be finite and non-negative"):
            fgsm_attack_batch(small_model, small_val.images[:1], np.array([0]), epsilon)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, small_model, small_val, batch_size):
        with pytest.raises(ConfigError, match=f"batch_size must be at least 1, got {batch_size}"):
            adversarial_accuracy(small_model, small_val, 0.1, batch_size=batch_size)

    def test_empty_batch_is_a_config_error(self, small_model, small_val):
        with pytest.raises(ConfigError, match="empty batch"):
            fgsm_attack_batch(small_model, small_val.images[:0], small_val.labels[:0], 0.1)

    def test_label_outside_class_range_rejected(self, small_model, small_val):
        for label in (-1, small_model.class_count):
            with pytest.raises(ConfigError, match="label outside"):
                fgsm_attack_batch(small_model, small_val.images[:1], np.array([label]), 0.1)


class TestModelCheckpoint:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "model.pmxm"
        save_model(tiny_model(seed=12), path)
        before = path.read_bytes()
        broken = tiny_model(seed=13)
        broken.w_img = np.array([["not a number"]], dtype=object)  # fails after w_embed..b_patch
        with pytest.raises(ValueError):
            save_model(broken, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.pmxm"]

    def test_roundtrip_bit_exact(self, tmp_path):
        model = tiny_model(seed=12)
        path = tmp_path / "model.pmxm"
        save_model(model, path)
        back = load_model(path)
        assert back.grid_size == model.grid_size
        assert back.class_count == model.class_count
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(back, name), getattr(model, name))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.pmxm"
        save_model(tiny_model(), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.pmxm"
        save_model(tiny_model(), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_model(path)


class TestMetricsFile:
    def test_roundtrip(self, tmp_path):
        rows = [
            EpochMetrics(0, 0.1, 2.345678901234567, 0.5, 0.25),
            EpochMetrics(1, 0.05, 1.1, 0.75, 0.5),
        ]
        path = tmp_path / "metrics.csv"
        save_metrics(rows, path)
        assert load_metrics(path) == rows

    def test_no_header_and_full_precision(self):
        lines = metrics_csv_lines([EpochMetrics(0, 0.1, 1 / 3, 0.5, 0.25)])
        assert lines == [f"0,0.1,{1/3!r},0.5,0.25"]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("0,0.1,1.0\n")
        with pytest.raises(FormatError):
            load_metrics(path)

    def test_non_numeric_field_rejected_naming_file_and_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("0,0.1,1.0,0.5,0.25\n1,0.1,x,0.5,0.25\n")
        with pytest.raises(FormatError) as err:
            load_metrics(path)
        assert str(err.value) == f"{path}: bad metrics line 2: '1,0.1,x,0.5,0.25'"

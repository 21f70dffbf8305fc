"""The loss terms as the pipeline computes them.

Training computes its losses inside ``model.backward``, so the cross-entropy
tests run ``backward`` on models built to output chosen logits, and the
patch-accuracy tests run ``model.evaluate_model``.
"""

import math

import numpy as np
import pytest

from patchmix.data import Dataset
from patchmix.errors import ConfigError, NumericError
from patchmix.losses import (
    combined_loss,
    log_softmax,
    loss_eval_count,
    record_loss_eval,
)
from patchmix.mixing import MixedBatch
from patchmix.model import ReferenceModel, backward, evaluate_model


def softmax(logits):
    return np.exp(log_softmax(logits))


def logit_model(grid_size, unit_logits, image_logits):
    """A model that gives a patch whose pixels are the m-th unit vector the
    patch logits ``unit_logits[m]``, and every image the ``image_logits``.

    The encoder is the identity, the patch head's weights are the unit
    logits, and the image head has zero weights and the image logits as
    its bias, so both heads output the chosen logits exactly.
    """
    unit_logits = np.asarray(unit_logits, dtype=np.float64)
    units, classes = unit_logits.shape
    model = ReferenceModel.initialize(grid_size, classes, units, units, np.random.default_rng(0))
    model.w_embed[:] = np.eye(units)
    model.w_patch[:] = unit_logits
    model.w_img[:] = 0.0
    model.b_img[:] = image_logits
    return model


def sample_loss(loss_mode, patch_logits, image_logits, target, patch_labels):
    """``backward``'s loss for one sample with these (P^2, C) patch logits
    and (C,) image logits: patch n of the sample is the n-th unit vector."""
    n = len(patch_logits)
    p = math.isqrt(n)
    model = logit_model(p, patch_logits, image_logits)
    labels = None if patch_labels is None else np.asarray(patch_labels)[None]
    batch = MixedBatch(np.eye(n)[None], np.asarray(target, dtype=np.float64)[None], labels)
    loss, _ = backward(model, batch, loss_mode)
    return loss


def image_loss(image_logits, target):
    """Soft-target image cross-entropy: ``backward`` in image-only mode."""
    classes = len(image_logits)
    return sample_loss("image_only", np.zeros((1, classes)), image_logits, target, None)


def patch_loss(patch_logits, patch_labels):
    """Summed patch cross-entropy: ``backward`` in patch-only mode, which
    divides the sum by the patch count."""
    n, classes = np.shape(patch_logits)
    uniform = np.full(classes, 1.0 / classes)
    return n * sample_loss("patch_only", patch_logits, np.zeros(classes), uniform, patch_labels)


def patch_accuracy(patch_logits, patch_labels):
    """``evaluate_model``'s patch accuracy on single-patch images, image k
    with patch logits ``patch_logits[k]`` and label ``patch_labels[k]``."""
    count, classes = np.shape(patch_logits)
    model = logit_model(1, patch_logits, np.zeros(classes))
    images = np.eye(count).reshape(count, 1, 1, count)
    _, patch_acc = evaluate_model(model, Dataset(images, patch_labels, classes))
    return patch_acc


class TestSoftmax:
    def test_symmetric_pair(self):
        assert softmax(np.array([0.0, 0.0])).tolist() == [0.5, 0.5]

    def test_no_overflow_on_large_logits(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=10)
        assert np.allclose(softmax(logits), softmax(logits + 123.4), atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            softmax(np.array([np.inf, 0.0]))
        for bad in (np.nan, np.inf, -np.inf):
            for shape in ((2,), (100, 16, 3)):
                logits = np.zeros(shape)
                logits.reshape(-1)[-1] = bad
                with pytest.raises(NumericError, match="non-finite logits"):
                    log_softmax(logits)


def reduction_log_softmax(logits):
    """Reference: the log-softmax with its row maximum from ``max(axis=-1)``."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class TestLogSoftmaxOracle:
    """``log_softmax`` takes the row maximum one column at a time; a maximum
    is exact, so every result equals the reduction's."""

    @pytest.mark.parametrize(
        "shape", [(100, 16, 3), (100, 16, 10), (100, 10), (7, 3), (2000, 2), (5, 4, 1), (3, 1)]
    )
    def test_random_logits(self, rng, shape):
        for scale in (1.0, 1e3, 1e300):
            logits = rng.normal(size=shape) * scale
            got = log_softmax(logits)
            assert got.shape == logits.shape and (got == reduction_log_softmax(logits)).all()

    def test_ties_and_signed_zeros(self, rng):
        logits = rng.integers(-2, 3, size=(400, 16, 4)).astype(np.float64)
        logits[0, 0] = [0.0, -0.0, 0.0, -0.0]
        logits[0, 1] = [-0.0, 0.0, -0.0, 0.0]
        logits[0, 2] = [-1e300, 1e300, 1e300, -1e300]
        got, want = log_softmax(logits), reduction_log_softmax(logits)
        assert (got == want).all() and (np.signbit(got) == np.signbit(want)).all()

    def test_rows_that_are_not_contiguous(self, rng):
        base = rng.normal(size=(200, 16, 12))
        for logits in (base[:, :, ::3], base[::2, ::-1, 1:5], base.transpose(1, 0, 2)):
            assert not logits.flags.c_contiguous
            assert (log_softmax(logits) == reduction_log_softmax(logits)).all()


class TestImageLoss:
    def test_uniform_logits_give_log_class_count(self):
        target = np.zeros(10)
        target[3] = 1.0
        assert image_loss(np.zeros(10), target) == pytest.approx(math.log(10), abs=1e-12)

    def test_dominant_correct_logit_near_zero(self):
        logits = np.zeros(5)
        logits[2] = 30.0
        target = np.zeros(5)
        target[2] = 1.0
        assert image_loss(logits, target) < 1e-10

    def test_linear_in_target(self, rng):
        logits = rng.normal(size=6)
        e0, e1 = np.eye(6)[0], np.eye(6)[1]
        blended = image_loss(logits, 0.5 * e0 + 0.5 * e1)
        parts = 0.5 * image_loss(logits, e0) + 0.5 * image_loss(logits, e1)
        assert blended == pytest.approx(parts, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            image_loss(np.zeros(3), np.zeros(4))


class TestPatchLoss:
    def test_uniform_logits_sum(self):
        # 16 patches, each contributing ln 10.
        logits = np.zeros((16, 10))
        labels = np.arange(16) % 10
        assert patch_loss(logits, labels) == pytest.approx(16 * math.log(10), abs=1e-9)

    def test_perfect_predictions_near_zero(self):
        logits = np.full((4, 3), -30.0)
        labels = np.array([0, 1, 2, 0])
        logits[np.arange(4), labels] = 30.0
        assert patch_loss(logits, labels) < 1e-9

    def test_single_patch_reduces_to_image_loss(self, rng):
        logits = rng.normal(size=5)
        target = np.zeros(5)
        target[4] = 1.0
        assert patch_loss(logits[None, :], np.array([4])) == pytest.approx(
            image_loss(logits, target), abs=1e-12
        )

    def test_is_a_sum_not_a_mean(self):
        one = patch_loss(np.zeros((1, 4)), np.array([0]))
        four = patch_loss(np.zeros((4, 4)), np.zeros(4, dtype=int))
        assert four == pytest.approx(4 * one, abs=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="patch label outside"):
            patch_loss(np.zeros((4, 3)), np.array([0, 3, 0, 0]))

    def test_non_negative(self, rng):
        logits = rng.normal(size=(9, 4))
        labels = rng.integers(0, 4, 9)
        assert patch_loss(logits, labels) >= 0.0


class TestTotalLoss:
    def test_worked_example(self):
        # (2.0 + 32.0/16) / 2 = 2.0 with a 4x4 grid.
        assert combined_loss(2.0, 32.0, 4, "both") == 2.0

    def test_zero_patch_term(self):
        assert combined_loss(3.0, 0.0, 4, "both") == 1.5

    def test_single_patch_grid_averages_the_terms(self):
        assert combined_loss(1.25, 1.25, 1, "both") == 1.25

    def test_ablation_modes(self):
        assert combined_loss(2.0, 32.0, 4, "both") == 2.0
        assert combined_loss(2.0, 32.0, 4, "image_only") == 2.0
        assert combined_loss(2.0, 32.0, 4, "patch_only") == 2.0
        assert combined_loss(5.0, 16.0, 2, "patch_only") == 4.0
        with pytest.raises(ConfigError):
            combined_loss(1.0, 1.0, 4, "bogus")


class TestPatchAccuracy:
    def test_all_correct(self):
        logits = np.eye(4) * 5
        assert patch_accuracy(logits, np.arange(4)) == 1.0

    def test_none_correct(self):
        logits = np.eye(4) * 5
        assert patch_accuracy(logits, (np.arange(4) + 1) % 4) == 0.0

    def test_counting(self):
        logits = np.zeros((16, 3))
        logits[:4, 1] = 1.0
        labels = np.full(16, 1)
        # Rows 4..15 are all-zero logits; argmax ties resolve to class 0.
        assert patch_accuracy(logits, labels) == 0.25

    def test_tie_breaks_to_lowest_index(self):
        assert patch_accuracy(np.zeros((1, 5)), np.array([0])) == 1.0
        assert patch_accuracy(np.zeros((1, 5)), np.array([1])) == 0.0


class TestEvalCounters:
    def test_counts_track_loss_calls(self):
        image, patch = loss_eval_count("image"), loss_eval_count("patch")
        image_loss(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        image_loss(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        patch_loss(np.zeros((4, 3)), np.array([0, 1, 2, 0]))
        assert loss_eval_count("image") - image == 2
        assert loss_eval_count("patch") - patch == 1

    def test_manual_recording(self):
        patch = loss_eval_count("patch")
        record_loss_eval("patch", 5)
        assert loss_eval_count("patch") - patch == 5

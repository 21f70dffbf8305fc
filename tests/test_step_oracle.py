"""The training step against the step it replaced, bit for bit.

``reference_forward_arrays`` and ``reference_gradients`` are the step as it
stood before ``model._gradients`` computed only the heads its loss mode
reads: both heads in every mode, a zero-filled ``d_pre`` that each term is
added into before the ReLU gate, the patch term picked and corrected with
``take_along_axis`` / ``put_along_axis``, and zero arrays for all six
gradient blocks.  It also forms ``w_embed`` and ``w_patch`` with
``np.tensordot``, where the production step multiplies transposed views.
The production step must return the same loss, the same six gradient
blocks and the same pre-activation gradient, byte for byte, in every loss
mode, grid size, batch size and class count, with scratch buffers fresh or
reused, and at the CIFAR shape the benchmark trains.
"""

import numpy as np
import pytest

from patchmix import losses
from patchmix.errors import ConfigError, NumericError
from patchmix.losses import LOSS_MODES
from patchmix.model import (
    PARAM_FIELDS,
    ReferenceModel,
    _forward_arrays,
    _gradients,
    _scratch,
)


def reference_forward_arrays(model: ReferenceModel, patches: np.ndarray, buffers: dict | None):
    """Forward pass of a (B, P*P, patch_pixels) float64 patch matrix, into ``buffers``."""
    if patches.ndim != 3 or patches.shape[1] != model.patch_count:
        raise ConfigError(
            f"model expects {model.patch_count} patches per sample, "
            f"input has shape {patches.shape}"
        )
    if patches.shape[2] != model.patch_pixels:
        raise ConfigError(
            f"model expects {model.patch_pixels} pixels per patch, "
            f"input provides {patches.shape[2]}"
        )
    feats = _scratch(buffers, "feats", (len(patches), model.patch_count, model.hidden_dim))
    np.matmul(patches, model.w_embed, out=feats)
    feats += model.b_embed
    np.maximum(feats, 0.0, out=feats)
    mean_feats = feats.mean(axis=1)
    patch_logits = feats @ model.w_patch + model.b_patch
    image_logits = mean_feats @ model.w_img + model.b_img
    return feats, mean_feats, patch_logits, image_logits


def reference_gradients(model: ReferenceModel, patches, image_targets, patch_labels, loss_mode, buffers):
    """``(loss, grads, d_pre)`` of a patch matrix, with ``d_pre`` the
    gradient of the loss with respect to the pre-activations; ``d_pre``
    lives in ``buffers``."""
    if loss_mode not in losses.LOSS_MODES:
        raise ConfigError(f"unknown loss mode {loss_mode!r}")
    patches = np.asarray(patches)
    b = patches.shape[0]
    if b < 1:
        raise ConfigError("empty batch")
    n = model.patch_count
    need_patch = loss_mode != "image_only"
    need_image = loss_mode != "patch_only"
    if need_patch:
        if patch_labels is None:
            raise ConfigError(f"loss mode {loss_mode!r} requires patch labels")
        patch_labels = np.asarray(patch_labels, dtype=np.int64)
        if patch_labels.shape != (b, n):
            raise ConfigError(
                f"patch labels shape {patch_labels.shape}, expected {(b, n)}"
            )
        if patch_labels.min() < 0 or patch_labels.max() >= model.class_count:
            raise ConfigError(f"patch label outside [0, {model.class_count})")
    image_targets = np.asarray(image_targets, dtype=np.float64)
    if image_targets.shape != (b, model.class_count):
        raise ConfigError(
            f"image targets shape {image_targets.shape}, "
            f"expected {(b, model.class_count)}"
        )

    feats, mean_feats, patch_logits, image_logits = reference_forward_arrays(model, patches, buffers)

    # Per-sample losses, and the chain rule scaled for the batch mean and the mode.
    s_img, s_patch = {"both": (0.5 / b, 0.5 / (b * n)), "image_only": (1.0 / b, 0.0),
                      "patch_only": (0.0, 1.0 / (b * n))}[loss_mode]
    grads = {name: np.zeros_like(getattr(model, name)) for name in PARAM_FIELDS}
    d_pre = _scratch(buffers, "d_feats", feats.shape)
    d_pre.fill(0.0)
    l_image = l_patch = None
    if need_image:
        img_logp = losses.log_softmax(image_logits)
        l_image = -(image_targets * img_logp).sum(axis=1)
        g_img = (np.exp(img_logp) - image_targets) * s_img      # (B, C)
        losses.record_loss_eval("image", b)
        grads["w_img"] = mean_feats.T @ g_img
        grads["b_img"] = g_img.sum(axis=0)
        d_pre += (g_img @ model.w_img.T)[:, None, :] / n
    if need_patch:
        patch_logp = losses.log_softmax(patch_logits)
        picked = np.take_along_axis(patch_logp, patch_labels[..., None], axis=2)
        l_patch = -picked[..., 0].sum(axis=1)
        g_patch = np.exp(patch_logp)                            # (B, n, C)
        np.put_along_axis(
            g_patch,
            patch_labels[..., None],
            np.take_along_axis(g_patch, patch_labels[..., None], axis=2) - 1.0,
            axis=2,
        )
        g_patch *= s_patch
        losses.record_loss_eval("patch", b)
        grads["w_patch"] = np.tensordot(feats, g_patch, axes=([0, 1], [0, 1]))
        grads["b_patch"] = g_patch.sum(axis=(0, 1))
        d_pre += g_patch @ model.w_patch.T
    loss = float(losses.combined_loss(l_image, l_patch, model.grid_size, loss_mode).mean())
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss}")
    # feats > 0 exactly where the pre-activation is, so this is the ReLU gate.
    d_pre *= np.greater(feats, 0.0, out=_scratch(buffers, "relu_mask", feats.shape, bool))
    grads["w_embed"] = np.tensordot(patches, d_pre, axes=([0, 1], [0, 1]))
    grads["b_embed"] = d_pre.sum(axis=(0, 1))
    return loss, grads, d_pre


SIDE = 8
BATCH_SIZES = (1, 7, 100)


def step_inputs(rng, batch_size, grid_size, class_count, side=SIDE):
    """A patch matrix of random pixels, soft image targets and patch labels."""
    ppc = (side // grid_size) ** 2 * 3
    patches = rng.random((batch_size, grid_size**2, ppc))
    targets = rng.dirichlet(np.ones(class_count), size=batch_size)
    labels = rng.integers(0, class_count, (batch_size, grid_size**2))
    return patches, targets, labels


def step_model(grid_size, class_count, seed, side=SIDE, hidden_dim=16):
    model = ReferenceModel.initialize(
        grid_size, class_count, hidden_dim, (side // grid_size) ** 2 * 3,
        np.random.default_rng(seed),
    )
    # Shift the embedding so that a share of the pre-activations is negative.
    model.b_embed[:] = np.random.default_rng(seed + 1).normal(-1.0, 1.0, model.hidden_dim)
    return model


def assert_same_bytes(got, want, what):
    assert got.shape == want.shape and got.dtype == want.dtype, what
    assert got.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("class_count", [2, 3, 10])
@pytest.mark.parametrize("grid_size", [1, 2, 4])
@pytest.mark.parametrize("loss_mode", LOSS_MODES)
def test_step_equals_reference(loss_mode, grid_size, class_count):
    """Each batch size with no buffers and with a fresh dict, then a run of
    steps of growing and shrinking batches through one reused dict each."""
    model = step_model(grid_size, class_count, seed=10 * grid_size + class_count)
    rng = np.random.default_rng(grid_size * 100 + class_count)
    runs = [(size, None, None) for size in BATCH_SIZES]
    runs += [(size, {}, {}) for size in BATCH_SIZES]
    reused, reused_ref = {}, {}
    runs += [(size, reused, reused_ref) for size in (100, 7, 1, 100, 1, 7)]
    for size, buffers, ref_buffers in runs:
        patches, targets, labels = step_inputs(rng, size, grid_size, class_count)
        if loss_mode == "image_only":
            labels = None
        before = {kind: losses.loss_eval_count(kind) for kind in ("image", "patch")}
        ref_loss, ref_grads, ref_d_pre = reference_gradients(
            model, patches, targets, labels, loss_mode, ref_buffers
        )
        ref_counts = {k: losses.loss_eval_count(k) - v for k, v in before.items()}
        before = {kind: losses.loss_eval_count(kind) for kind in ("image", "patch")}
        loss, grads, d_pre = _gradients(model, patches, targets, labels, loss_mode, buffers)
        counts = {k: losses.loss_eval_count(k) - v for k, v in before.items()}
        what = (loss_mode, grid_size, class_count, size, buffers is reused)
        assert loss == ref_loss, what
        assert list(grads) == list(PARAM_FIELDS), what
        for name in PARAM_FIELDS:
            assert_same_bytes(grads[name], ref_grads[name], (*what, name))
        assert_same_bytes(d_pre, ref_d_pre, (*what, "d_pre"))
        assert counts == ref_counts, what


@pytest.mark.parametrize("loss_mode", LOSS_MODES)
def test_cifar_shaped_step_equals_reference(loss_mode):
    """Grid 4, 32 px, 10 classes, hidden 64: batches of 100 and of 37 rows,
    fresh and through one reused dict."""
    model = step_model(4, 10, seed=32, side=32, hidden_dim=64)
    rng = np.random.default_rng(32)
    reused = {}
    for size, buffers in ((100, None), (37, None), (100, reused), (37, reused)):
        patches, targets, labels = step_inputs(rng, size, 4, 10, side=32)
        if loss_mode == "image_only":
            labels = None
        ref_loss, ref_grads, ref_d_pre = reference_gradients(
            model, patches, targets, labels, loss_mode, None
        )
        loss, grads, d_pre = _gradients(model, patches, targets, labels, loss_mode, buffers)
        what = (loss_mode, size, buffers is reused)
        assert loss == ref_loss, what
        for name in PARAM_FIELDS:
            assert_same_bytes(grads[name], ref_grads[name], (*what, name))
        assert_same_bytes(d_pre, ref_d_pre, (*what, "d_pre"))


@pytest.mark.parametrize("grid_size", [1, 2, 4])
def test_forward_heads_follow_their_flags(grid_size):
    """Both heads by default, as the reference computes them; a head left
    out is None and the rest stay the same bytes."""
    model = step_model(grid_size, 3, seed=grid_size)
    patches, _, _ = step_inputs(np.random.default_rng(grid_size), 7, grid_size, 3)
    want = [a.copy() for a in reference_forward_arrays(model, patches, None)]
    for need_patch, need_image in ((True, True), (True, False), (False, True)):
        got = _forward_arrays(model, patches, {}, need_patch, need_image)
        kept = (True, need_image, need_patch, need_image)
        for keep, array, expected in zip(kept, got, want):
            if keep:
                assert_same_bytes(array, expected, (need_patch, need_image))
            else:
                assert array is None

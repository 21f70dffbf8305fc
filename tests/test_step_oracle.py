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

The row-split GEMM (``model._matmul_halves``) is held to ``np.matmul`` in
one call, and ``backward`` with the training driver's worker to
``backward`` without it.
"""

import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from patchmix import losses
from patchmix.errors import ConfigError, NumericError
from patchmix.losses import LOSS_MODES
from patchmix.mixing import MixedBatch
from patchmix.model import (
    PARAM_FIELDS,
    SPLIT_FLOOR,
    ReferenceModel,
    _forward_arrays,
    _gradients,
    _matmul_halves,
    _scratch,
    backward,
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


class CountingWorker(ThreadPoolExecutor):
    """A one-thread executor that counts the halves handed to it."""

    def __init__(self):
        super().__init__(1)
        self.submits = 0

    def submit(self, *args, **kwargs):
        self.submits += 1
        return super().submit(*args, **kwargs)


def _operands(rng, case):
    """``(a, b)`` of a split case; 64 columns, the model's default width."""
    if case == "odd-rows":              # 75 rows (5x5x3 patches), cut at 24
        return rng.random((75, 3200)), rng.random((3200, 64))
    if case == "one-row":               # a batch of one sample: no cut
        return rng.random((1, 16, 8192)), rng.random((8192, 64))
    if case == "weight-gradient":       # patches.T @ d_pre at the CIFAR shape
        return rng.random((1600, 192)).T, rng.random((1600, 64))
    if case == "embedding":             # patches @ w_embed at the CIFAR shape
        return rng.random((100, 16, 192)), rng.random((192, 64))
    if case == "at-floor":              # exactly SPLIT_FLOOR multiply-adds
        assert 128 * 1024 * 64 == SPLIT_FLOOR
        return rng.random((128, 1024)), rng.random((1024, 64))
    if case == "below-floor":           # one row fewer
        return rng.random((127, 1024)), rng.random((1024, 64))
    if case == "small-embedding":       # patches @ w_embed at the quick-start shape
        return rng.random((100, 16, 48)), rng.random((48, 64))
    raise AssertionError(case)


SPLIT_CASES = {  # case: halves handed to the worker
    "odd-rows": 1, "one-row": 0, "weight-gradient": 1, "embedding": 1,
    "at-floor": 1, "below-floor": 0, "small-embedding": 0,
}


@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_matmul_halves_equal_one_matmul(case):
    a, b = _operands(np.random.default_rng(len(case)), case)
    want = np.matmul(a, b)
    out = np.empty_like(want)
    with CountingWorker() as worker:
        got = _matmul_halves(a, b, out, worker)
    assert got is out
    assert worker.submits == SPLIT_CASES[case]
    assert_same_bytes(got, want, case)
    assert_same_bytes(_matmul_halves(a, b, np.empty_like(want), None), want, (case, "no worker"))


def test_cut_on_a_tile_boundary_keeps_wide_products_with_one_blas_thread():
    """75 rows by 197 columns, the shape of 5x5x3 patches and a hidden width
    past 192, in a fresh interpreter started with one BLAS thread: the cut
    at 24 rows gives the single call's bytes.  (With OpenBLAS's SkylakeX
    kernels the half cut, at 37, changes the last bits of its tail rows.)"""
    code = textwrap.dedent("""
        from concurrent.futures import ThreadPoolExecutor
        import numpy as np
        from patchmix.model import _matmul_halves
        rng = np.random.default_rng(75)
        for a in (rng.random((1600, 75)).T, rng.random((75, 1600))):
            b = rng.random((1600, 197))
            want = np.matmul(a, b)
            with ThreadPoolExecutor(1) as worker:
                got = _matmul_halves(a, b, np.empty_like(want), worker)
            assert got.tobytes() == want.tobytes(), a.flags.c_contiguous
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = {**os.environ, **one_thread, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("loss_mode", LOSS_MODES)
def test_backward_with_worker_equals_without(loss_mode):
    """A CIFAR-shaped batch (100 rows, grid 4, 8x8x3 patches, hidden 64):
    the embedding and its weight gradient split, the same loss and
    gradients to the byte."""
    model = step_model(4, 10, seed=33, side=32, hidden_dim=64)
    patches, targets, labels = step_inputs(np.random.default_rng(33), 100, 4, 10, side=32)
    batch = MixedBatch(patches, targets, None if loss_mode == "image_only" else labels)
    want_loss, want = backward(model, batch, loss_mode, {})
    with CountingWorker() as worker:
        loss, grads = backward(model, batch, loss_mode, {}, worker)
    assert worker.submits == 2
    assert loss == want_loss
    for name in PARAM_FIELDS:
        assert_same_bytes(grads[name], want[name], (loss_mode, name))

"""Minimal patch classifier with hand-written gradients.

A shared linear+ReLU encoder embeds each (H/P) x (W/P) patch; a patch
head scores every embedding separately and an image head scores the mean
embedding:

    f_n          = relu(W_embed^T vec(patch_n) + b_embed)
    patch_logits = W_patch^T f_n + b_patch          (one row per patch)
    image_logits = W_img^T mean_n(f_n) + b_img

Gradients for all parameter blocks and for the input pixels are computed
analytically, which keeps training, gradient checking, and sign-based
adversarial probing free of autodiff dependencies.  All parameters and
intermediate activations are float64.

Training reads each batch as the (B, P*P, patch_pixels) patch matrix that
the composers of ``mixing`` return (:func:`backward`), so no image-layout
copy is made.  :func:`forward_batch` and :func:`batch_gradients` take
(B, H, W, C) images and patchify them first (``mixing.patchify``, which
this module re-exports with ``unpatchify``).  Only the sign attack
and the gradient checks form input gradients (:func:`batch_gradients`);
training stops at parameter gradients.  Every trainer runs through one
driver (:func:`_train_loop`) that checks its inputs, sizes the model and
owns the run's float64 batch matrix.  A trainer's batch source yields
plans: each makes its random draws when it is yielded and composes its
batch when the driver calls it.  Validation patchifies each chunk into
the same matrix.

A training step computes only the heads its loss mode reads: ``both``
computes both, ``image_only`` only the mean embedding and the image head,
``patch_only`` only the patch head; a head the mode does not train gets
zero gradients.  The pre-activation gradient is written in place into its
buffer: the patch term, plus the image term, then the ReLU gate, or under
``image_only`` the gated image term in one pass.  :func:`forward_batch`
always computes both heads.

The driver owns one worker thread for its run (a one-thread executor in a
``with`` block, joined on every exit) and hands it beside its scratch dict
to the steps and to validation.  The worker has two jobs, both only in a
run whose products reach ``SPLIT_FLOOR`` multiply-adds; a run whose
products all fall below it starts no thread, since there the hand-off
costs more than it saves.
- The encoder's two large GEMMs, the embedding ``patches @ w_embed`` and
  its weight gradient ``patches.T @ d_pre``, run as two row halves, the
  second on the worker, so a run with one BLAS thread uses a second core.
- While step k runs, the worker composes batch k+1: its plan, handed over
  once the embedding is done, composes into the run's second float64
  batch matrix, the one step k does not read.
Every draw, the rest of each step, and every call without the driver (the
fitness table, the sign attack, the demo's raster) stay on the calling
thread.  The worker calls only private functions and numpy, so the
loss-evaluation counters of ``losses`` and every public function stay on
the main thread.  With one BLAS thread the split cannot move a byte: every
output row keeps the single call's reduction, and the cut falls on a
kernel tile boundary, so each row is summed in the same tile and order
(:func:`_matmul_halves`).  A multi-threaded BLAS divides each call by its
own shape, so there a product's last bits can depend on the split, as
they already depend on the BLAS thread count.  Composing ahead moves no
byte either way: a plan's draws are made in the same order wherever it
composes, into a matrix of the same type.
"""

from __future__ import annotations

import struct
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import losses
from .data import Dataset, _write_atomic
from .errors import ConfigError, FormatError, NumericError
from .masks import _check_divisible, sample_mask_bits
from .mixing import MixedBatch, _patchmix_batch, patchify, unpatchify
from .rng import RngKey

PARAM_FIELDS = ("w_embed", "b_embed", "w_patch", "b_patch", "w_img", "b_img")
WEIGHT_FIELDS = ("w_embed", "w_patch", "w_img")

MODEL_MAGIC = b"PMXM"
MODEL_VERSION = 1
# magic, version, grid_size, class_count, hidden_dim, patch_pixels
_MODEL_HEADER = struct.Struct("<4sIIIII")

# Multiply-adds from which a product runs as two row halves.  Measured per
# training step (batch 100, grid 4, hidden 64; two cores, one BLAS thread):
# split, the CIFAR shape's (1600x192)x64 products take a step from 1190 to
# 900 us; the quick-start shape's (1600x48)x64 ones would save about 4%
# (669 -> 641 us), too little to resolve end to end, so they stay whole.
# A run whose batch products reach it also composes each batch ahead, on
# the worker (_train_loop).
SPLIT_FLOOR = 2**23
# Row count the cut is a multiple of, so no output row changes kernel tile.
# With OpenBLAS 0.3.31 (SkylakeX kernels, one thread), products of more than
# 192 columns kept their bytes only for cuts on multiples of 12; cuts on
# multiples of 24 matched the single call in 600 random shapes past the floor.
_SPLIT_ROWS = 24


def _param_shapes(class_count: int, hidden_dim: int, patch_pixels: int) -> dict:
    """Each parameter block's shape, in :data:`PARAM_FIELDS` order."""
    h, c = hidden_dim, class_count
    return dict(zip(PARAM_FIELDS, ((patch_pixels, h), (h,), (h, c), (c,), (h, c), (c,))))


@dataclass
class ReferenceModel:
    grid_size: int
    class_count: int
    hidden_dim: int
    patch_pixels: int
    w_embed: np.ndarray  # the six parameter blocks, shaped by _param_shapes
    b_embed: np.ndarray
    w_patch: np.ndarray
    b_patch: np.ndarray
    w_img: np.ndarray
    b_img: np.ndarray

    @classmethod
    def initialize(
        cls,
        grid_size: int,
        class_count: int,
        hidden_dim: int,
        patch_pixels: int,
        rng: np.random.Generator,
    ) -> "ReferenceModel":
        """Gaussian weights with std sqrt(2 / fan_in), drawn in
        :data:`PARAM_FIELDS` order; zero biases."""
        if min(grid_size, class_count, hidden_dim, patch_pixels) < 1:
            raise ConfigError("model dimensions must be positive")
        blocks = {
            name: rng.normal(0.0, np.sqrt(2.0 / shape[0]), shape)
            if name in WEIGHT_FIELDS else np.zeros(shape)
            for name, shape in _param_shapes(class_count, hidden_dim, patch_pixels).items()
        }
        return cls(grid_size, class_count, hidden_dim, patch_pixels, **blocks)

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    @property
    def patch_count(self) -> int:
        return self.grid_size**2


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 100
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    grid_size: int = 4
    eta_min: float = 0.0
    loss_mode: str = "both"
    mix_probability: float = 1.0
    hidden_dim: int = 64
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.lr0 <= 0:
            raise ConfigError("lr0 must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if self.grid_size < 1:
            raise ConfigError("grid_size must be at least 1")
        if self.eta_min < 0 or self.eta_min > self.lr0:
            raise ConfigError("eta_min must lie in [0, lr0]")
        if self.loss_mode not in losses.LOSS_MODES:
            raise ConfigError(f"unknown loss mode {self.loss_mode!r}")
        if not 0.0 <= self.mix_probability <= 1.0:
            raise ConfigError("mix_probability must lie in [0, 1]")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    train_loss: float
    val_top1: float
    val_patch_acc: float


def _scratch(buffers: dict | None, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """A ``shape`` view of ``buffers[name]``, grown to the largest shape asked
    for (one run's largest batch); a fresh array when ``buffers`` is None."""
    if buffers is None:
        return np.empty(shape, dtype)
    size = int(np.prod(shape))
    buf = buffers.get(name)
    if buf is None or buf.size < size:
        buf = buffers[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _matmul_halves(a: np.ndarray, b: np.ndarray, out: np.ndarray, worker: Executor | None):
    """``np.matmul(a, b, out=out)``, with the rows of ``a`` and ``out``
    (the leading axis) in two halves, the second computed on ``worker``,
    when there is one and the product reaches ``SPLIT_FLOOR``.

    The cut is a multiple of ``_SPLIT_ROWS`` rows, so with one BLAS thread
    every output row keeps the kernel tile and the summation order of the
    single call, and the result is bitwise the same.
    """
    cut = len(a) // 2 // _SPLIT_ROWS * _SPLIT_ROWS
    if worker is None or cut == 0 or a.size * b.shape[-1] < SPLIT_FLOOR:
        return np.matmul(a, b, out=out)
    tail = worker.submit(np.matmul, a[cut:], b, out=out[cut:])
    try:
        np.matmul(a[:cut], b, out=out[:cut])
    finally:
        tail.result()
    return out


def _forward_arrays(
    model: ReferenceModel,
    patches: np.ndarray,
    buffers: dict | None,
    need_patch: bool = True,
    need_image: bool = True,
    worker: Executor | None = None,
    after_embedding: Callable[[], object] | None = None,
):
    """Forward pass of a (B, P*P, patch_pixels) float64 patch matrix, into
    ``buffers``: ``(feats, mean_feats, patch_logits, image_logits)``.  The
    patch logits are None unless ``need_patch``; the mean embedding and the
    image logits are None unless ``need_image``.  The embedding is split
    over the batch on ``worker`` (:func:`_matmul_halves`);
    ``after_embedding()``, if given, is called as soon as it is done."""
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
    _matmul_halves(patches, model.w_embed, feats, worker)
    if after_embedding is not None:
        after_embedding()
    feats += model.b_embed
    np.maximum(feats, 0.0, out=feats)
    mean_feats = patch_logits = image_logits = None
    if need_patch:
        patch_logits = feats @ model.w_patch + model.b_patch
    if need_image:
        mean_feats = feats.mean(axis=1)
        image_logits = mean_feats @ model.w_img + model.b_img
    return feats, mean_feats, patch_logits, image_logits


def _patchify_scratch(images, grid_size: int, buffers: dict | None) -> np.ndarray:
    """``images`` as a float64 patch matrix in ``buffers``; ``patchify`` casts as it copies."""
    images = np.asarray(images)
    b, h, w, c = images.shape
    ppc = (h // grid_size) * (w // grid_size) * c
    return patchify(images, grid_size, _scratch(buffers, "patches", (b, grid_size**2, ppc)))


def forward_batch(
    model: ReferenceModel,
    images: np.ndarray,
    buffers: dict | None = None,
    worker: Executor | None = None,
):
    """Return (patch_logits, image_logits) of (B, H, W, C) images;
    ``buffers`` and ``worker`` as in :func:`backward`."""
    patches = _patchify_scratch(images, model.grid_size, buffers)
    out = _forward_arrays(model, patches, buffers, worker=worker)
    return out[2], out[3]


def _gradients(
    model: ReferenceModel, patches, image_targets, patch_labels, loss_mode, buffers, worker=None,
    after_embedding=None,
):
    """``(loss, grads, d_pre)`` of a patch matrix, with ``d_pre`` the
    gradient of the loss with respect to the pre-activations; ``d_pre``
    lives in ``buffers``.  The embedding and its weight gradient are split
    on ``worker`` (:func:`_matmul_halves`); ``after_embedding`` as in
    :func:`_forward_arrays`."""
    if loss_mode not in losses.LOSS_MODES:
        raise ConfigError(f"unknown loss mode {loss_mode!r}")
    patches = np.asarray(patches)
    b = patches.shape[0]
    if b < 1:
        raise ConfigError("empty batch")
    n, hidden = model.patch_count, model.hidden_dim
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

    feats, mean_feats, patch_logits, image_logits = _forward_arrays(
        model, patches, buffers, need_patch, need_image, worker, after_embedding
    )

    # Per-sample losses, and the chain rule scaled for the batch mean and the mode.
    s_img, s_patch = {"both": (0.5 / b, 0.5 / (b * n)), "image_only": (1.0 / b, 0.0),
                      "patch_only": (0.0, 1.0 / (b * n))}[loss_mode]
    # feats > 0 exactly where the pre-activation is, so this is the ReLU gate.
    relu_mask = np.greater(feats, 0.0, out=_scratch(buffers, "relu_mask", feats.shape, bool))
    d_pre = _scratch(buffers, "d_feats", feats.shape)
    grads = dict.fromkeys(PARAM_FIELDS)
    l_image = l_patch = None
    if need_patch:
        patch_logp = losses.log_softmax(patch_logits)
        # The flat index of every patch's label entry in the (B, n, C) arrays.
        picks = np.arange(0, b * n * model.class_count, model.class_count) + patch_labels.ravel()
        l_patch = -patch_logp.reshape(-1)[picks].reshape(b, n).sum(axis=1)
        g_patch = np.exp(patch_logp)                            # (B, n, C)
        g_patch.reshape(-1)[picks] -= 1.0
        g_patch *= s_patch
        losses.record_loss_eval("patch", b)
        # Transposed-view GEMMs: ``tensordot`` would copy the left operand.
        grads["w_patch"] = feats.reshape(-1, hidden).T @ g_patch.reshape(-1, model.class_count)
        grads["b_patch"] = g_patch.sum(axis=(0, 1))
        np.matmul(g_patch, model.w_patch.T, out=d_pre)
    else:
        grads["w_patch"] = np.zeros_like(model.w_patch)
        grads["b_patch"] = np.zeros_like(model.b_patch)
    if need_image:
        img_logp = losses.log_softmax(image_logits)
        l_image = -(image_targets * img_logp).sum(axis=1)
        g_img = (np.exp(img_logp) - image_targets) * s_img      # (B, C)
        losses.record_loss_eval("image", b)
        grads["w_img"] = mean_feats.T @ g_img
        grads["b_img"] = g_img.sum(axis=0)
        d_img = g_img @ model.w_img.T
        d_img /= n
        if need_patch:
            d_pre += d_img[:, None, :]
        else:
            np.multiply(d_img[:, None, :], relu_mask, out=d_pre)
    else:
        grads["w_img"] = np.zeros_like(model.w_img)
        grads["b_img"] = np.zeros_like(model.b_img)
    loss = float(losses.combined_loss(l_image, l_patch, model.grid_size, loss_mode).mean())
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss}")
    if need_patch:
        d_pre *= relu_mask
    grads["w_embed"] = _matmul_halves(
        patches.reshape(-1, model.patch_pixels).T, d_pre.reshape(-1, hidden),
        np.empty((model.patch_pixels, hidden)), worker,
    )
    grads["b_embed"] = d_pre.sum(axis=(0, 1))
    return loss, grads, d_pre


def batch_gradients(
    model: ReferenceModel,
    images: np.ndarray,
    image_targets: np.ndarray,
    patch_labels: np.ndarray | None,
    loss_mode: str,
):
    """Mean-over-batch loss with parameter and per-sample input gradients.

    Returns ``(loss, grads, input_grads)`` where ``grads`` maps parameter
    names to arrays of matching shape and ``input_grads`` has the shape
    of ``images``.  All gradients are of the mean-over-batch objective.
    Training calls :func:`backward`, which skips ``input_grads``.
    """
    patches = _patchify_scratch(images, model.grid_size, None)
    loss, grads, d_pre = _gradients(model, patches, image_targets, patch_labels, loss_mode, None)
    input_grads = unpatchify(d_pre @ model.w_embed.T, np.shape(images), model.grid_size)
    return loss, grads, input_grads


def backward(
    model: ReferenceModel,
    batch: MixedBatch,
    loss_mode: str,
    buffers: dict | None = None,
    worker: Executor | None = None,
    *,
    after_embedding: Callable[[], object] | None = None,
):
    """``(loss, grads)`` of the mean loss over a batch of mixed samples,
    read from its patch matrix.

    No input gradients are formed.  The batch-sized arrays are written into
    ``buffers``, a scratch dict the caller may keep across steps; the
    returned arrays never alias it.  With a ``worker`` executor, the
    encoder's large GEMMs compute half their rows on it, with the same
    bytes (:func:`_matmul_halves`).  ``after_embedding()``, if given, is
    called once the embedding GEMM is done; the training driver hands the
    next batch's composition to the worker there (:func:`_train_loop`).
    """
    loss, grads, _ = _gradients(
        model, batch.patches, batch.image_labels, batch.patch_labels, loss_mode, buffers, worker,
        after_embedding,
    )
    return loss, grads


def cosine_lr(epoch: int, total_epochs: int, lr0: float, eta_min: float = 0.0) -> float:
    """Cosine annealing from lr0 (epoch 0) down to eta_min (epoch = total)."""
    if epoch < 0 or (total_epochs >= 0 and epoch > total_epochs):
        raise ConfigError(f"epoch {epoch} outside [0, {total_epochs}]")
    if total_epochs <= 0:
        return lr0
    return eta_min + (lr0 - eta_min) * (1.0 + np.cos(np.pi * epoch / total_epochs)) / 2.0


def init_velocity(model: ReferenceModel) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(getattr(model, name)) for name in PARAM_FIELDS}


def sgd_nesterov_step(
    model: ReferenceModel,
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float,
) -> ReferenceModel:
    """One Nesterov momentum step, updating model and velocity in place.

    Weight decay applies to weight matrices only, never to biases:

        g' = g + wd * w
        v  = momentum * v + g'
        w  = w - lr * (g' + momentum * v)
    """
    for name in PARAM_FIELDS:
        w = getattr(model, name)
        g = grads[name]
        if weight_decay != 0.0 and name in WEIGHT_FIELDS:
            g = g + weight_decay * w
        v = velocity[name]
        v *= momentum
        v += g
        w -= lr * (g + momentum * v)
    return model


def _check_classes(model: ReferenceModel, dataset: Dataset) -> None:
    if model.class_count != dataset.class_count:
        raise ConfigError(
            f"model scores {model.class_count} classes, dataset has {dataset.class_count}"
        )


def _check_eval(model: ReferenceModel, dataset: Dataset, batch_size: int) -> None:
    if len(dataset) == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be at least 1, got {batch_size}")
    _check_classes(model, dataset)


def evaluate_model(
    model: ReferenceModel, dataset: Dataset, batch_size: int = 256, buffers=None, worker=None
):
    """(top-1 accuracy, patch accuracy) with every patch labeled by the image,
    forwarded in chunks of ``batch_size`` rows; ``buffers`` and ``worker``
    as in :func:`backward`."""
    _check_eval(model, dataset, batch_size)
    correct = 0
    patch_correct = 0
    for start in range(0, len(dataset), batch_size):
        stop = min(start + batch_size, len(dataset))
        patch_logits, image_logits = forward_batch(
            model, dataset.images[start:stop], buffers, worker
        )
        labels = dataset.labels[start:stop]
        correct += int((np.argmax(image_logits, axis=1) == labels).sum())
        patch_preds = np.argmax(patch_logits, axis=2)
        patch_correct += int((patch_preds == labels[:, None]).sum())
    top1 = correct / len(dataset)
    patch_acc = patch_correct / (len(dataset) * model.patch_count)
    return top1, patch_acc


def _train_loop(
    train: Dataset,
    val: Dataset,
    cfg: TrainConfig,
    batch_source: Callable[
        [np.random.Generator, np.ndarray], Iterable[Callable[[np.ndarray], MixedBatch]]
    ],
    stream_tag: str,
) -> tuple[ReferenceModel, list[EpochMetrics]]:
    """Shared SGD driver: ``(model, per-epoch metrics)`` of a model of the
    shape ``cfg`` trains on ``train``, initialized from the stream
    ``(stream_tag, "init")``.  ``batch_source(rng, patches)`` yields one
    epoch's batch plans; epoch ``e`` draws from the stream
    ``(stream_tag, "epoch", e)``.

    ``patches`` is the run's (batch_size, P*P, patch_pixels) float64 batch
    matrix.  A plan is a callable whose random draws were all made when it
    was yielded: ``plan(out)`` composes its batch into the leading rows of
    ``out``, a float64 matrix of the shape of ``patches``, and returns it.
    A plan may run on the worker thread, so it draws nothing and calls only
    private functions.

    The config and both sets are checked before the model is built or a
    plan drawn.  Each epoch's first plan composes into ``patches`` on the
    main thread.  A run whose products stay below ``SPLIT_FLOOR`` draws and
    composes each later plan on the main thread after the step before it,
    into the same matrix.  A run whose products reach it keeps a second
    batch matrix: plan k+1, drawn before step k, composes on the worker
    into the matrix step k does not read, handed over once step k's
    embedding GEMM is done, and step k+1 reads it there.  Steps and
    validation share one scratch dict and one worker thread, which the
    run's executor starts at its first task and joins on return or raise.
    Validation patchifies ``cfg.batch_size`` rows at a time into
    ``patches``.  The schedule spans epochs 0 .. epochs-1, so the last
    epoch runs at eta_min.
    """
    cfg.validate()
    if len(train) == 0 or len(val) == 0:
        raise ConfigError("train and validation sets must be non-empty")
    if train.images.shape[1:] != val.images.shape[1:]:
        raise ConfigError("train and validation image shapes differ")
    if train.class_count != val.class_count:
        raise ConfigError("train and validation class counts differ")
    p = cfg.grid_size
    _check_divisible(train.width, train.height, p)
    ppc = (train.height // p) * (train.width // p) * train.channels
    key = RngKey(cfg.seed)
    model = ReferenceModel.initialize(
        p, train.class_count, cfg.hidden_dim, ppc, key.child(stream_tag, "init").generator()
    )
    velocity = init_velocity(model)
    buffers: dict = {}
    patches = _scratch(buffers, "patches", (cfg.batch_size, p * p, ppc))
    # The multiply-adds of a full batch's embedding: the run that splits its
    # GEMMs composes ahead too, into a spare matrix; below the floor no
    # thread starts, and the spare is ``patches`` itself.
    ahead = patches.size * cfg.hidden_dim >= SPLIT_FLOOR
    spare = np.empty_like(patches) if ahead else patches
    span = cfg.epochs - 1
    metrics: list[EpochMetrics] = []

    def compose(plans, out):
        """The next plan's batch, composed into ``out`` on this thread; None
        after the last."""
        plan = next(plans, None)
        return None if plan is None else plan(out)

    with ThreadPoolExecutor(1) as worker:
        for epoch in range(cfg.epochs):
            lr = cosine_lr(epoch, span, cfg.lr0, cfg.eta_min)
            rng = key.child(stream_tag, "epoch", epoch).generator()
            plans = iter(batch_source(rng, patches))
            front, back = patches, spare
            batch = compose(plans, front)
            batch_losses = []
            while batch is not None:
                # Only a run that composes ahead draws plan k+1 before step k.
                plan = next(plans, None) if ahead else None
                composed, hand_off = [], None
                if plan is not None:
                    hand_off = lambda: composed.append(worker.submit(plan, back))
                try:
                    loss, grads = backward(
                        model, batch, cfg.loss_mode, buffers, worker, after_embedding=hand_off
                    )
                except NumericError as err:
                    raise NumericError(f"epoch {epoch}, batch {len(batch_losses)}: {err}") from err
                sgd_nesterov_step(model, grads, velocity, lr, cfg.momentum, cfg.weight_decay)
                batch_losses.append(loss)
                front, back = back, front
                if ahead:
                    batch = None if plan is None else composed[0].result()
                else:
                    batch = compose(plans, front)
            if not batch_losses:
                raise ConfigError("training produced no batches")
            top1, patch_acc = evaluate_model(model, val, cfg.batch_size, buffers, worker)
            metrics.append(
                EpochMetrics(epoch, float(lr), float(np.mean(batch_losses)), top1, patch_acc)
            )
    return model, metrics


def _shuffled_pairs(
    n: int, batch_size: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One epoch of ``(idx, partner)`` index batches: shuffle, cut into
    batches, and pair each element with a random partner from its batch."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield idx, idx[rng.permutation(len(idx))]


def _compose_pairs(data: Dataset, i, j, bits, out: np.ndarray) -> MixedBatch:
    """A plan's composition: images ``i[k]`` and ``j[k]`` of ``data`` under
    ``bits[k]``, into the leading rows of ``out``."""
    return _patchmix_batch(
        data.images, i, j, data.labels[i], data.labels[j], bits, data.class_count, out[: len(i)]
    )


def train_random_patchmix(train: Dataset, val: Dataset, cfg: TrainConfig):
    """Train a model on randomly grid-mixed batches.

    Every epoch shuffles the training set, pairs each batch element with
    a random partner from the same batch, and composes the pair under a
    fresh random mask (an all-ones mask when the per-sample mix draw
    fails, so mix_probability = 0 reduces to plain classifier training).
    Each batch's plan draws its partners, then all its mix decisions in one
    call, then the masks of the mixed rows in one more, and composes into
    the leading rows of the matrix it is handed (:func:`_train_loop`).

    Returns ``(model, per-epoch metrics)``.
    """
    p = cfg.grid_size

    def batches(rng: np.random.Generator, patches: np.ndarray):
        for idx, partner in _shuffled_pairs(len(train), cfg.batch_size, rng):
            bits = np.ones((len(idx), p, p), dtype=np.uint8)
            mixed = rng.random(len(idx)) < cfg.mix_probability
            bits[mixed] = sample_mask_bits(int(mixed.sum()), p, rng)
            yield partial(_compose_pairs, train, idx, partner, bits)

    return _train_loop(train, val, cfg, batches, "rand-train")


def _check_epsilon(epsilon: float) -> None:
    if not 0 <= epsilon < np.inf:
        raise ConfigError(f"epsilon must be finite and non-negative, got {epsilon}")


def fgsm_attack_batch(
    model: ReferenceModel, images: np.ndarray, labels: np.ndarray, epsilon: float
) -> np.ndarray:
    """One-step sign attack against the image head, per image:

    x_adv = clip(x + epsilon * sign(d image_loss / d x), 0, 1)
    """
    _check_epsilon(epsilon)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and not 0 <= labels.min() <= labels.max() < model.class_count:
        raise ConfigError(f"label outside [0, {model.class_count})")
    targets = np.eye(model.class_count)[labels]
    _, _, input_grads = batch_gradients(model, images, targets, None, "image_only")
    adv = images.astype(np.float64) + epsilon * np.sign(input_grads)
    return np.clip(adv, 0.0, 1.0)


def adversarial_accuracy(
    model: ReferenceModel, dataset: Dataset, epsilon: float, batch_size: int = 256
) -> float:
    """Top-1 accuracy under the one-step sign attack, in chunks of ``batch_size`` rows."""
    _check_eval(model, dataset, batch_size)
    correct = 0
    for start in range(0, len(dataset), batch_size):
        stop = min(start + batch_size, len(dataset))
        labels = dataset.labels[start:stop]
        adv = fgsm_attack_batch(model, dataset.images[start:stop], labels, epsilon)
        _, image_logits = forward_batch(model, adv)
        correct += int((np.argmax(image_logits, axis=1) == labels).sum())
    return correct / len(dataset)


def save_model(model: ReferenceModel, path) -> None:
    """Write a model checkpoint (magic ``PMXM``).

    Header u32 fields: version, grid size, class count, hidden dim, patch
    pixels; then each parameter block as little-endian float64 in
    declaration order.
    """
    header = _MODEL_HEADER.pack(
        MODEL_MAGIC,
        MODEL_VERSION,
        model.grid_size,
        model.class_count,
        model.hidden_dim,
        model.patch_pixels,
    )
    blocks = (np.ascontiguousarray(getattr(model, n), dtype="<f8").tobytes() for n in PARAM_FIELDS)
    _write_atomic(path, [header], blocks)


def load_model(path) -> ReferenceModel:
    raw = Path(path).read_bytes()
    if len(raw) < _MODEL_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, grid_size, class_count, hidden_dim, patch_pixels = (
        _MODEL_HEADER.unpack_from(raw)
    )
    if magic != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    shapes = _param_shapes(class_count, hidden_dim, patch_pixels)
    expected = _MODEL_HEADER.size + sum(
        8 * int(np.prod(shape)) for shape in shapes.values()
    )
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    offset = _MODEL_HEADER.size
    blocks = {}
    for name, shape in shapes.items():
        count = int(np.prod(shape))
        blocks[name] = (
            np.frombuffer(raw, "<f8", count=count, offset=offset)
            .reshape(shape)
            .copy()
        )
        offset += 8 * count
    return ReferenceModel(
        grid_size=grid_size,
        class_count=class_count,
        hidden_dim=hidden_dim,
        patch_pixels=patch_pixels,
        **blocks,
    )


def metrics_csv_lines(metrics: Sequence[EpochMetrics]) -> list[str]:
    """One comma-separated line per epoch: epoch, lr, train_loss, val_top1, val_patch_acc."""
    return [
        f"{m.epoch},{m.lr!r},{m.train_loss!r},{m.val_top1!r},{m.val_patch_acc!r}"
        for m in metrics
    ]


def save_metrics(metrics: Sequence[EpochMetrics], path) -> None:
    _write_atomic(path, ["\n".join(metrics_csv_lines(metrics)) + "\n"])


def load_metrics(path) -> list[EpochMetrics]:
    rows = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:  # a field count other than five raises ValueError too
            epoch, lr, loss, top1, patch_acc = line.split(",")
            row = EpochMetrics(int(epoch), float(lr), float(loss), float(top1), float(patch_acc))
        except ValueError as err:
            raise FormatError(f"{path}: bad metrics line {number}: {line!r}") from err
        rows.append(row)
    return rows

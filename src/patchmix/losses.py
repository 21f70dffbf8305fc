"""Image-level and patch-level objectives.

The combined objective halves the sum of the image cross-entropy and the
patch cross-entropy divided by the patch count:

    combined = (image + patch / P^2) / 2

Ablation modes drop one of the two terms; the patch term keeps its 1/P^2
normalization when used alone.

The module counts how many per-sample loss evaluations happen per kind
("image" / "patch") so training phases can assert which objectives they
actually touched.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError

LOSS_MODES = ("both", "image_only", "patch_only")

_EVAL_COUNTS = {"image": 0, "patch": 0}


def record_loss_eval(kind: str, count: int = 1) -> None:
    _EVAL_COUNTS[kind] += count


def loss_eval_count(kind: str) -> int:
    return _EVAL_COUNTS[kind]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Stable log-softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def image_loss(image_logits: np.ndarray, target: np.ndarray) -> float:
    """Cross-entropy of the image head against a soft label vector."""
    image_logits = np.asarray(image_logits, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if image_logits.shape != target.shape or image_logits.ndim != 1:
        raise ConfigError(
            f"logits shape {image_logits.shape} does not match target {target.shape}"
        )
    record_loss_eval("image")
    return float(-(target * log_softmax(image_logits)).sum())


def patch_loss(patch_logits: np.ndarray, patch_labels: np.ndarray) -> float:
    """Sum of one-hot cross-entropies over all patches (not the mean)."""
    patch_logits = np.asarray(patch_logits, dtype=np.float64)
    patch_labels = np.asarray(patch_labels, dtype=np.int64)
    if patch_logits.ndim != 2:
        raise ConfigError(f"patch logits must be 2-D, got shape {patch_logits.shape}")
    if patch_labels.shape != (patch_logits.shape[0],):
        raise ConfigError(
            f"{patch_logits.shape[0]} patches but labels shape {patch_labels.shape}"
        )
    class_count = patch_logits.shape[1]
    if len(patch_labels) and (patch_labels.min() < 0 or patch_labels.max() >= class_count):
        raise ConfigError(f"patch label outside [0, {class_count})")
    record_loss_eval("patch")
    logp = log_softmax(patch_logits)
    picked = np.take_along_axis(logp, patch_labels[:, None], axis=1)
    return float(-picked.sum())


def total_loss(l_image: float, l_patch: float, grid_size: int) -> float:
    """Combined objective: (image + patch / P^2) / 2."""
    if grid_size < 1:
        raise ConfigError(f"grid size must be at least 1, got {grid_size}")
    return (l_image + l_patch / grid_size**2) / 2.0


def combined_loss(l_image: float, l_patch: float, grid_size: int, loss_mode: str) -> float:
    """Apply the ablation mode; "both" gives the full combined objective."""
    if loss_mode == "both":
        return total_loss(l_image, l_patch, grid_size)
    if loss_mode == "image_only":
        return l_image
    if loss_mode == "patch_only":
        if grid_size < 1:
            raise ConfigError(f"grid size must be at least 1, got {grid_size}")
        return l_patch / grid_size**2
    raise ConfigError(f"unknown loss mode {loss_mode!r}")


def patch_accuracy(patch_logits: np.ndarray, patch_labels: np.ndarray) -> float:
    """Fraction of patches whose argmax matches the label.

    Argmax ties resolve to the lowest class index.
    """
    patch_logits = np.asarray(patch_logits, dtype=np.float64)
    patch_labels = np.asarray(patch_labels, dtype=np.int64)
    if patch_logits.ndim != 2 or patch_labels.shape != (patch_logits.shape[0],):
        raise ConfigError("patch logits and labels shapes do not align")
    preds = np.argmax(patch_logits, axis=1)
    return float((preds == patch_labels).mean())

"""How the image-level and patch-level objectives combine.

The per-sample terms are computed where they are used, a batch at a time:
the image term is the soft-target cross-entropy of the image head, and the
patch term is the SUM of the one-hot cross-entropies of all patches
(``model.backward`` for training, ``evolution.evaluate_fitness`` for the
loss objectives).  Both take :func:`log_softmax` of the logits.  The
combined objective halves the sum of the image term and the patch term
divided by the patch count:

    combined = (image + patch / P^2) / 2

Ablation modes drop one of the two terms; the patch term keeps its 1/P^2
normalization when used alone.

The module counts how many per-sample loss evaluations happen per kind
("image" / "patch").  No phase reads the counts; the tests and the
benchmark harness do, to check which objectives a phase touched (phase 4
must evaluate no patch loss).
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


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Stable log-softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def combined_loss(l_image: float, l_patch: float, grid_size: int, loss_mode: str) -> float:
    """Apply the ablation mode; "both" gives the full combined objective,
    (image + patch / P^2) / 2."""
    if loss_mode not in LOSS_MODES:
        raise ConfigError(f"unknown loss mode {loss_mode!r}")
    if loss_mode == "image_only":
        return l_image
    if grid_size < 1:
        raise ConfigError(f"grid size must be at least 1, got {grid_size}")
    if loss_mode == "patch_only":
        return l_patch / grid_size**2
    return (l_image + l_patch / grid_size**2) / 2.0

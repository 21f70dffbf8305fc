"""Pairwise sample interpolation.

Three ways to compose two labeled images into one training sample:

* grid-mask composition — each patch region comes wholly from one source,
  the soft label weight equals the fraction of kept cells, and every
  patch carries the class of the image that supplied it;
* whole-image blending — a convex pixel blend (no patch labels);
* rectangle transplant — a fixed-size crop of the second image pasted at
  a Gaussian-drawn center (no patch labels).

Training consumes :class:`MixedBatch` patch matrices, the (B, P*P,
patch_pixels) layout the model's encoder reads.  :func:`patchmix_batch`
composes a whole batch straight into that layout, row for row equal to
``model.patchify`` of :func:`patchmix`'s image.  Neither expands a mask
to pixels: :func:`patchmix` selects whole grid cells of the two sources,
:func:`patchmix_batch` gathers them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _check_label, one_hot
from .errors import ConfigError
from .masks import _check_divisible, _check_mask, _ratio


@dataclass
class MixedSample:
    """One composed training sample.

    ``patch_labels`` is None when the composition does not align with the
    patch grid (blending, rectangle transplant).
    """

    image: np.ndarray            # (H, W, C) float64
    image_label: np.ndarray      # (class_count,) float64, sums to 1
    patch_labels: np.ndarray | None  # (P*P,) int64, row-major grid order
    lam: float                   # weight of the first source image


@dataclass
class MixedBatch:
    """A batch of composed training samples as patch matrices, one row per
    sample.

    ``patch_labels`` is None when the composition does not align with the
    patch grid (blending, rectangle transplant).
    """

    patches: np.ndarray              # (B, P*P, patch_pixels); float64 from the composers
    image_labels: np.ndarray         # (B, class_count) float64, rows sum to 1
    patch_labels: np.ndarray | None  # (B, P*P) int64, row-major grid order

    def __len__(self) -> int:
        return len(self.patches)


def _check_pair(x_i: np.ndarray, x_j: np.ndarray) -> None:
    if x_i.shape != x_j.shape:
        raise ConfigError(f"source shapes differ: {x_i.shape} vs {x_j.shape}")
    if x_i.ndim != 3:
        raise ConfigError("images must have shape (height, width, channels)")


def patchmix(
    x_i: np.ndarray,
    y_i: int,
    x_j: np.ndarray,
    y_j: int,
    mask: np.ndarray,
    class_count: int,
) -> MixedSample:
    """Compose two images under a grid mask.

    ``mask`` is a (P, P) 0/1 grid: bit 1 keeps ``x_i`` pixels, bit 0 takes
    ``x_j``, so pixel (s, t) comes from the source that bit
    ``mask[s * P // H, t * P // W]`` names (``masks.expand_to_pixel_mask``).
    Each grid cell is taken whole from the (P, H/P, P, W/P, C) view of its
    source, with no pixel-level mask.  The soft image label weights the
    two one-hot labels by the kept-cell fraction (``masks.mixing_ratio``),
    and patch n (row-major) is labeled with the class of its source image.
    """
    _check_pair(x_i, x_j)
    bits = _check_mask(mask)
    height, width, channels = x_i.shape
    p = bits.shape[0]
    _check_divisible(width, height, p)
    y_i, y_j = _check_label(y_i, class_count), _check_label(y_j, class_count)
    cells = (p, height // p, p, width // p, channels)
    keep = (bits == 1).reshape(p, 1, p, 1, 1)
    image = np.where(keep, x_i.reshape(cells), x_j.reshape(cells))
    image = image.astype(np.float64, copy=False).reshape(height, width, channels)
    lam = _ratio(bits)
    # lam * onehot(y_i) + (1 - lam) * onehot(y_j), entry for entry: a sum
    # with 0.0, or lam + (1 - lam) in the other order when y_i == y_j.
    image_label = np.zeros(class_count)
    image_label[y_j] = 1.0 - lam
    image_label[y_i] += lam
    patch_labels = np.where(bits.reshape(-1) == 1, y_i, y_j).astype(np.int64)
    return MixedSample(image, image_label, patch_labels, lam)


def patchmix_batch(
    images: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    y_i: np.ndarray,
    y_j: np.ndarray,
    bits: np.ndarray,
    class_count: int,
    out: np.ndarray | None = None,
) -> MixedBatch:
    """Compose ``images[i[k]]`` and ``images[j[k]]`` under the grid mask
    ``bits[k]`` for every row k of a batch, as patch matrices.

    Row k of the patches equals ``model.patchify`` of ``patchmix(images[i[k]],
    y_i[k], images[j[k]], y_j[k], bits[k], class_count).image``;
    its labels equal that sample's.  All-ones bits give identity rows.  The
    patches are float64 whatever the source type, written into ``out`` (a
    (B, P*P, patch_pixels) float64 array) if given; each grid cell is copied
    whole from the source its bit names, with no pixel-level mask.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.max(initial=0) > 1:
        raise ConfigError("mask bits must contain only 0/1 values")
    y_i = np.asarray(y_i, dtype=np.int64)
    y_j = np.asarray(y_j, dtype=np.int64)
    if not len(i) == len(j) == len(y_i) == len(y_j) == len(bits):
        raise ConfigError("sources, labels and masks must have one entry per row")
    labels = np.concatenate([y_i, y_j])
    if len(labels) and (labels.min() < 0 or labels.max() >= class_count):
        raise ConfigError(f"label outside [0, {class_count})")
    height, width, channels = images.shape[1:]
    b, p = len(bits), bits.shape[-1]
    _check_divisible(width, height, p)
    # Row r of the (N*H*P, W/P*C) view of the sources is one pixel row of
    # one cell: image r // (H*P), pixel row (r // P) % H, grid column r % P.
    # List the rows of every patch of the batch, in patch order, from the
    # image its bit names; one gather then yields the patch matrix.
    ph, pw = height // p, width // p
    source = np.where(bits == 1, np.asarray(i)[:, None, None], np.asarray(j)[:, None, None])
    grid = np.arange(p)
    rows = source[..., None] * (height * p) + (grid[:, None, None] * ph + np.arange(ph)) * p
    rows += grid[:, None]
    picked = np.take(images.reshape(-1, pw * channels), rows.reshape(-1), axis=0)
    if out is None:
        out = np.empty((b, p * p, ph * pw * channels))
    np.copyto(out.reshape(picked.shape), picked)
    flat = bits.reshape(b, p * p)
    lam = (flat.sum(axis=1) / flat.shape[1])[:, None]
    eye = np.eye(class_count)
    image_labels = lam * eye[y_i] + (1.0 - lam) * eye[y_j]
    patch_labels = np.where(flat == 1, y_i[:, None], y_j[:, None])
    return MixedBatch(out, image_labels, patch_labels)


def mixup(
    x_i: np.ndarray,
    y_i: int,
    x_j: np.ndarray,
    y_j: int,
    lam: float,
    class_count: int,
) -> MixedSample:
    """Convex pixel blend; the caller supplies the blend weight."""
    _check_pair(x_i, x_j)
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"blend weight must lie in [0, 1], got {lam}")
    lam = float(lam)
    image = lam * x_i.astype(np.float64) + (1.0 - lam) * x_j.astype(np.float64)
    image_label = lam * one_hot(y_i, class_count) + (1.0 - lam) * one_hot(y_j, class_count)
    return MixedSample(image, image_label, None, lam)


def cutmix(
    x_i: np.ndarray,
    y_i: int,
    x_j: np.ndarray,
    y_j: int,
    rng: np.random.Generator,
    region_w: int,
    region_h: int,
    class_count: int,
) -> MixedSample:
    """Paste a region_w x region_h crop of ``x_j`` into ``x_i``.

    The region center is drawn from a Gaussian at the image center with
    std one quarter of each dimension (horizontal first, then vertical),
    then clamped so the rectangle stays inside the image.  The label
    weight is one minus the pasted-area fraction.
    """
    _check_pair(x_i, x_j)
    height, width = x_i.shape[:2]
    if not 0 <= region_w <= width or not 0 <= region_h <= height:
        raise ConfigError(
            f"region {region_w}x{region_h} does not fit a {width}x{height} image"
        )
    image = x_i.astype(np.float64).copy()
    if region_w == 0 or region_h == 0:
        return MixedSample(image, one_hot(y_i, class_count), None, 1.0)
    cx = rng.normal(width / 2.0, width / 4.0)
    cy = rng.normal(height / 2.0, height / 4.0)
    x0 = int(np.clip(round(cx - region_w / 2.0), 0, width - region_w))
    y0 = int(np.clip(round(cy - region_h / 2.0), 0, height - region_h))
    image[y0 : y0 + region_h, x0 : x0 + region_w] = x_j[
        y0 : y0 + region_h, x0 : x0 + region_w
    ]
    lam = 1.0 - (region_w * region_h) / (width * height)
    image_label = lam * one_hot(y_i, class_count) + (1.0 - lam) * one_hot(y_j, class_count)
    return MixedSample(image, image_label, None, lam)

"""Pairwise sample interpolation.

Three ways to compose pairs of labeled images into training samples:

* grid-mask composition — each patch region comes wholly from one source,
  the soft label weight equals the fraction of kept cells, and every
  patch carries the class of the image that supplied it;
* whole-image blending — a convex pixel blend (no patch labels);
* rectangle transplant — a fixed-size crop of the second image pasted at
  a Gaussian-drawn center (no patch labels).

Every composer returns a :class:`MixedBatch` of (B, P*P, patch_pixels)
patch matrices in :func:`patchify` order, the layout the model's encoder
reads.  :func:`patchmix` composes one row from two images by selecting
whole grid cells, :func:`patchmix_batch` a batch by gathering them, row for
row equal; neither expands a mask to pixels.  :func:`mixup` and
:func:`cutmix` compose a batch in pixel space and patchify it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _check_label
from .errors import ConfigError
from .masks import _check_bits, _check_divisible


@dataclass
class MixedBatch:
    """A batch of composed training samples as patch matrices, one row per
    sample.

    ``patch_labels`` is None when the composition does not align with the
    patch grid (blending, rectangle transplant).
    """

    patches: np.ndarray              # (B, P*P, patch_pixels); float64, or ``out``'s type
    image_labels: np.ndarray         # (B, class_count) float64, rows sum to 1
    patch_labels: np.ndarray | None  # (B, P*P) int64, row-major grid order

    def __len__(self) -> int:
        return len(self.patches)


def _cells(images: np.ndarray, grid_size: int) -> np.ndarray:
    """The (B, P, P, H/P, W/P, C) view of (B, H, W, C) images: grid cell
    (r, s) of every image."""
    b, h, w, c = images.shape
    _check_divisible(w, h, grid_size)
    x = images.reshape(b, grid_size, h // grid_size, grid_size, w // grid_size, c)
    return x.transpose(0, 1, 3, 2, 4, 5)


def _out(out, shape: tuple) -> np.ndarray:
    """``out``, refused unless it is a C-contiguous array of ``shape`` (a
    reshape of another may copy); a new float64 array when it is None."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape or not out.flags.c_contiguous:
        got = f"shape {out.shape}" if out.shape != shape else "a non-contiguous one"
        raise ConfigError(f"out must be a C-contiguous array of shape {shape}, got {got}")
    return out


def patchify(images: np.ndarray, grid_size: int, out: np.ndarray | None = None) -> np.ndarray:
    """(B, H, W, C) -> (B, P*P, patch_pixels) in row-major grid order, into ``out`` if given."""
    x = _cells(images, grid_size)
    shape = (len(x), grid_size**2, int(np.prod(x.shape[3:])))
    if out is None:
        return x.reshape(shape)
    np.copyto(_out(out, shape).reshape(x.shape), x)
    return out


def unpatchify(patch_grads: np.ndarray, shape: tuple, grid_size: int) -> np.ndarray:
    """Inverse of :func:`patchify` for gradient layouts."""
    b, h, w, c = shape
    x = patch_grads.reshape(b, grid_size, grid_size, h // grid_size, w // grid_size, c)
    return x.transpose(0, 1, 3, 2, 4, 5).reshape(shape)


def _check_rows(class_count: int, y_i, y_j, *columns) -> tuple[np.ndarray, np.ndarray]:
    """``y_i`` and ``y_j`` as int64 arrays, rejected unless they and every per-row
    column have one entry per row and every label lies in [0, class_count)."""
    y_i, y_j = np.asarray(y_i, dtype=np.int64), np.asarray(y_j, dtype=np.int64)
    if len({len(y_i), len(y_j), *map(len, columns)}) > 1:
        raise ConfigError("sources, labels and mixing parameters must have one entry per row")
    labels = np.concatenate([y_i, y_j])
    if len(labels) and (labels.min() < 0 or labels.max() >= class_count):
        raise ConfigError(f"label outside [0, {class_count})")
    return y_i, y_j


def _check_sources(i, j, count: int) -> np.ndarray:
    """The (B, 2) stack of source indices ``i`` and ``j``, refused unless every
    one lies in [0, count); call after :func:`_check_rows`."""
    sources = np.stack([np.asarray(i), np.asarray(j)], axis=1)
    if len(sources) and (sources.min() < 0 or sources.max() >= count):
        row, side = np.argwhere((sources < 0) | (sources >= count))[0]
        raise ConfigError(
            f"row {row}: source index {sources[row, side]} lies outside [0, {count})"
        )
    return sources


def _soft_labels(lam: np.ndarray, y_i: np.ndarray, y_j: np.ndarray, class_count: int):
    """(B, class_count) rows ``lam * onehot(y_i) + (1 - lam) * onehot(y_j)``."""
    eye, lam = np.eye(class_count), lam[:, None]
    return lam * eye[y_i] + (1.0 - lam) * eye[y_j]


def patchmix(
    x_i: np.ndarray, y_i: int, x_j: np.ndarray, y_j: int, mask, class_count: int, out=None
) -> MixedBatch:
    """Compose two images under a grid mask into a one-row batch.

    ``mask`` is a (P, P) 0/1 grid: bit 1 keeps ``x_i`` pixels, bit 0 takes
    ``x_j``, so pixel (s, t) comes from the source that bit
    ``mask[s * P // H, t * P // W]`` names.  Each grid cell is taken whole
    from its source into patch n (row-major) of the (1, P*P, patch_pixels)
    patches, with no pixel-level mask: into ``out``, in its type, if given,
    else a new float64 array.  The soft image label weights the two one-hot
    labels by the kept-cell fraction, and patch n is labeled with the class
    of its source image.
    """
    if x_i.shape != x_j.shape:
        raise ConfigError(f"source shapes differ: {x_i.shape} vs {x_j.shape}")
    if x_i.ndim != 3:
        raise ConfigError("images must have shape (height, width, channels)")
    bits = _check_bits(mask, 2)
    height, width, channels = x_i.shape
    p = bits.shape[0]
    _check_divisible(width, height, p)
    y_i, y_j = _check_label(y_i, class_count), _check_label(y_j, class_count)
    out = _out(out, (1, p * p, (height // p) * (width // p) * channels))
    cells = out.reshape(1, p, p, height // p, width // p, channels)
    np.copyto(cells, _cells(x_j[None], p))
    np.copyto(cells, _cells(x_i[None], p), where=(bits == 1).reshape(1, p, p, 1, 1, 1))
    lam = np.count_nonzero(bits) / bits.size
    # lam * onehot(y_i) + (1 - lam) * onehot(y_j), entry for entry: a sum
    # with 0.0, or lam + (1 - lam) in the other order when y_i == y_j.
    image_labels = np.zeros((1, class_count))
    image_labels[0, y_j] = 1.0 - lam
    image_labels[0, y_i] += lam
    patch_labels = np.where(bits.reshape(1, -1) == 1, y_i, y_j).astype(np.int64)
    return MixedBatch(out, image_labels, patch_labels)


def patchmix_batch(
    images: np.ndarray, i, j, y_i, y_j, bits, class_count: int, out=None
) -> MixedBatch:
    """Compose ``images[i[k]]`` and ``images[j[k]]`` under the grid mask
    ``bits[k]`` for every row k of a batch, as patch matrices.

    Row k equals ``patchmix(images[i[k]], y_i[k], images[j[k]], y_j[k],
    bits[k], class_count)``.  All-ones bits give identity rows.  The
    patches are float64 whatever the source type, written into ``out`` if
    given; each grid cell is copied whole from the source its bit names.
    ``bits`` is a (B, P, P) stack, refused as :func:`patchmix` refuses a mask;
    a source index outside [0, len(images)) is refused too.
    """
    bits = _check_bits(bits, 3)
    y_i, y_j = _check_rows(class_count, y_i, y_j, i, j, bits)
    sources = _check_sources(i, j, len(images))
    height, width, channels = images.shape[1:]
    b, p = len(bits), bits.shape[-1]
    _check_divisible(width, height, p)
    ph, pw = height // p, width // p
    out = _out(out, (b, p * p, ph * pw * channels))
    # Row r of the (N*H*P, W/P*C) view of the sources is one pixel row of
    # one cell: image r // (H*P), pixel row (r // P) % H, grid column r % P.
    # List the rows of every patch of the batch, in patch order, from the
    # image its bit names; one gather then yields the patch matrix.
    source = np.where(bits == 1, sources[:, 0, None, None], sources[:, 1, None, None])
    grid = np.arange(p)
    rows = source[..., None] * (height * p) + (grid[:, None, None] * ph + np.arange(ph)) * p
    rows += grid[:, None]
    picked = np.take(images.reshape(-1, pw * channels), rows.reshape(-1), axis=0)
    np.copyto(out.reshape(picked.shape), picked)
    flat = bits.reshape(b, p * p)
    lam = flat.sum(axis=1) / flat.shape[1]
    patch_labels = np.where(flat == 1, y_i[:, None], y_j[:, None])
    return MixedBatch(out, _soft_labels(lam, y_i, y_j, class_count), patch_labels)


def mixup(
    images: np.ndarray, i, j, y_i, y_j, lam, class_count: int, grid_size: int, out=None
) -> MixedBatch:
    """Convex pixel blends ``lam[k] * images[i[k]] + (1 - lam[k]) *
    images[j[k]]`` for every row k, patchified into ``out`` if given; the
    caller supplies the blend weights.  A source index outside
    [0, len(images)) is refused."""
    lam = np.asarray(lam, dtype=np.float64)
    y_i, y_j = _check_rows(class_count, y_i, y_j, i, j, lam)
    _check_sources(i, j, len(images))
    bad = ~((lam >= 0.0) & (lam <= 1.0))
    if bad.any():
        raise ConfigError(f"blend weight must lie in [0, 1], got {lam[bad][0]}")
    w = lam[:, None, None, None]
    blend = w * images[i] + (1.0 - w) * images[j]
    labels = _soft_labels(lam, y_i, y_j, class_count)
    return MixedBatch(patchify(blend, grid_size, out), labels, None)


def cutmix(
    images: np.ndarray, i, j, y_i, y_j, rng, region_w, region_h, class_count, grid_size, out=None
) -> MixedBatch:
    """Paste a region_w x region_h crop of ``images[j[k]]`` into
    ``images[i[k]]`` for every row k, patchified into ``out`` if given.

    Each region center is drawn from a Gaussian at the image center with
    std one quarter of each dimension (horizontal first, then vertical,
    row after row, in one ``rng.normal`` call), then clamped so the
    rectangle stays inside the image.  The label weight is one minus the
    pasted-area fraction.  An empty region pastes and draws nothing.  A
    source index outside [0, len(images)) is refused.
    """
    y_i, y_j = _check_rows(class_count, y_i, y_j, i, j)
    _check_sources(i, j, len(images))
    height, width = images.shape[1:3]
    if not 0 <= region_w <= width or not 0 <= region_h <= height:
        raise ConfigError(f"region {region_w}x{region_h} does not fit a {width}x{height} image")
    mixed = images[i].astype(np.float64)
    if region_w and region_h:
        size = np.array([width, height])
        centers = rng.normal(size / 2.0, size / 4.0, size=(len(mixed), 2))
        corner = np.round(centers - [region_w / 2.0, region_h / 2.0])
        x0, y0 = np.clip(corner, 0, size - [region_w, region_h]).astype(np.int64).T
        rows = (y0[:, None] + np.arange(region_h))[:, :, None]
        cols = (x0[:, None] + np.arange(region_w))[:, None, :]
        k = np.arange(len(mixed))[:, None, None]
        mixed[k, rows, cols] = images[np.asarray(j)[:, None, None], rows, cols]
    lam = np.full(len(mixed), 1.0 - (region_w * region_h) / (width * height))
    labels = _soft_labels(lam, y_i, y_j, class_count)
    return MixedBatch(patchify(mixed, grid_size, out), labels, None)

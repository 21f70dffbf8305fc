"""Datasets and their on-disk formats.

Images are float32 arrays with values in [0, 1] laid out (row, column,
channel); a dataset stacks same-shaped images as (n, H, W, C) next to a
vector of integer class labels.  float32 is the storage type end to end
so that writing and re-reading a dataset checkpoint is bit-exact; the
model widens to float64 internally.

Provided sources:

1. CIFAR binary batches (3073-byte records: label byte + 3072 bytes of
   channel-planar 32x32 RGB, scaled by 1/255).
2. ``synth_shapes`` — texture-classed synthetic images where every patch
   region carries enough signal to identify the class on its own.
3. ``toy_2d_three_class`` — three Gaussian clusters in the unit square,
   stored as 1x2x1 images so the mixing machinery applies unchanged.
"""

from __future__ import annotations

import colorsys
import itertools
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .rng import RngKey

CIFAR_RECORD_BYTES = 3073
CIFAR_SIDE = 32
CIFAR_CLASS_COUNT = 10

DATASET_MAGIC = b"PMXD"
DATASET_VERSION = 1
# magic, version, width, height, channels, class_count, sample count
_HEADER = struct.Struct("<4sIIIIII")

# Values drawn per class from which ``synth_shapes`` post-processes each
# class on a worker while the next is drawn.  Fresh-process medians of a
# config's two sets over 12 alternating runs (two cores, numpy 2.4.6): with
# the overlap, 10 classes of 32 px at 400 and 100 per class (1,228,800 and
# 307,200 values per class) took 273 -> 229 ms and 97 -> 90 ms, but the
# quick-start's 153,600 values took 22.9 -> 25.3 ms, so below the floor the
# classes stay on the calling thread.
OVERLAP_FLOOR = 2**18


@dataclass
class Dataset:
    """A labeled image collection with a declared class count."""

    images: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ConfigError("images must have shape (n, height, width, channels)")
        if len(self.images) != len(self.labels):
            raise ConfigError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if self.class_count < 1:
            raise ConfigError("class_count must be positive")
        if len(self.labels):
            lo, hi = int(self.labels.min()), int(self.labels.max())
            if lo < 0 or hi >= self.class_count:
                raise ConfigError(
                    f"label {hi if hi >= self.class_count else lo} outside "
                    f"[0, {self.class_count})"
                )
        if self.images.size:
            # NaN and +-inf all surface in the minimum or the maximum.
            lo, hi = self.images.min(), self.images.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ConfigError("pixel values must be finite")
            if lo < 0.0 or hi > 1.0:
                raise ConfigError("pixel values must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def height(self) -> int:
        return self.images.shape[1]

    @property
    def width(self) -> int:
        return self.images.shape[2]

    @property
    def channels(self) -> int:
        return self.images.shape[3]

    def class_indices(self) -> list[np.ndarray]:
        """Indices of every sample, grouped by class."""
        return [np.flatnonzero(self.labels == c) for c in range(self.class_count)]

    def draw_of_class(
        self, classes: np.ndarray, rng: np.random.Generator, name: str
    ) -> np.ndarray:
        """Index of one uniformly drawn sample of each entry's class, shaped
        like ``classes``, from one ``rng.integers`` call.  A class named in
        ``classes`` that has no samples is rejected; ``name`` names the set
        in the error."""
        per_class = self.class_indices()
        sizes = np.array([len(c) for c in per_class])
        empty = np.setdiff1d(classes, np.flatnonzero(sizes))
        if len(empty):
            raise ConfigError(f"{name} has no samples of class {empty[0]}")
        by_class = np.concatenate(per_class)
        starts = np.cumsum(sizes) - sizes
        return by_class[starts[classes] + rng.integers(sizes[classes])]

    def subset(self, indices) -> "Dataset":
        return Dataset(self.images[indices], self.labels[indices], self.class_count)


def _check_label(label: int, class_count: int) -> int:
    """``label`` as an int, rejected unless it lies in [0, class_count)."""
    label = int(label)
    if not 0 <= label < class_count:
        raise ConfigError(f"label {label} outside [0, {class_count})")
    return label


def load_cifar_binary(path) -> Dataset:
    """Read a CIFAR binary batch file.

    Records are 3073 bytes: one label byte followed by 3072 bytes of
    channel-planar RGB (red plane, green plane, blue plane, each 32x32
    row-major).  Pixels are scaled to [0, 1] by division by 255.
    """
    raw = Path(path).read_bytes()
    if len(raw) % CIFAR_RECORD_BYTES != 0:
        raise FormatError(
            f"{path}: size {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}"
        )
    n = len(raw) // CIFAR_RECORD_BYTES
    records = np.frombuffer(raw, dtype=np.uint8).reshape(n, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if n and labels.max() >= CIFAR_CLASS_COUNT:
        raise FormatError(
            f"{path}: label byte {int(labels.max())} exceeds {CIFAR_CLASS_COUNT - 1}"
        )
    planes = records[:, 1:].reshape(n, 3, CIFAR_SIDE, CIFAR_SIDE)
    images = planes.transpose(0, 2, 3, 1).astype(np.float32) / np.float32(255.0)
    return Dataset(images, labels, CIFAR_CLASS_COUNT)


def _class_pattern(k: int, class_count: int, rows, cols) -> np.ndarray:
    """The noise-free (H, W, 3) float64 image of class ``k``: a hue band
    pattern whose period and orientation cycle with ``k``."""
    base = np.asarray(colorsys.hsv_to_rgb(k / class_count, 0.85, 0.9))
    period = 2 + (k % 3)
    orient = k % 4
    if orient == 0:
        band = (rows // period) % 2
    elif orient == 1:
        band = (cols // period) % 2
    elif orient == 2:
        band = ((rows + cols) // period) % 2
    else:
        band = ((rows - cols) // period) % 2
    return (0.55 + 0.45 * band.astype(np.float64))[:, :, None] * base


def synth_shapes(
    class_count: int,
    image_size: int,
    samples_per_class: int,
    seed: int,
) -> Dataset:
    """Deterministic texture-classed synthetic images.

    Each class is a full-image color/stripe pattern plus small pixel
    noise, so any patch region on its own identifies the class.

    The calling thread makes every draw: one ``standard_normal`` fill per
    class, in class order, from the ``synth-shapes`` stream.  When a class
    draws at least ``OVERLAP_FLOOR`` values, a one-thread worker scales,
    adds the pattern, clips and stores each class while the next class is
    drawn into a second buffer; the worker is joined on return or raise.
    Smaller classes run on the calling thread alone and start no thread.
    There is no setting for this, and the pixels are the same either way.
    """
    if image_size % 4 != 0:
        raise ConfigError(f"image_size must be divisible by 4, got {image_size}")
    if image_size < 16:
        raise ConfigError(f"image_size must be at least 16, got {image_size}")
    if not 2 <= class_count <= 16:
        raise ConfigError(f"class_count must be within [2, 16], got {class_count}")
    if samples_per_class < 1:
        raise ConfigError("samples_per_class must be positive")

    rng = RngKey(seed).child("synth-shapes").generator()
    rows, cols = np.meshgrid(
        np.arange(image_size), np.arange(image_size), indexing="ij"
    )
    images = np.empty(
        (class_count, samples_per_class, image_size, image_size, 3), dtype=np.float32
    )

    # A standard normal draw scaled by 0.04 is the same bytes and stream as
    # rng.normal(0.0, 0.04).
    def finish(k: int, noise: np.ndarray) -> None:
        noise *= 0.04
        noise += _class_pattern(k, class_count, rows, cols)
        images[k] = np.clip(noise, 0.0, 1.0, out=noise)

    shape = images.shape[1:]
    if images[0].size < OVERLAP_FLOOR:
        noise = np.empty(shape)
        for k in range(class_count):
            rng.standard_normal(out=noise)
            finish(k, noise)
    else:
        buffers = (np.empty(shape), np.empty(shape))
        with ThreadPoolExecutor(1) as worker:
            pending = None
            for k in range(class_count):
                rng.standard_normal(out=buffers[k % 2])
                if pending is not None:
                    pending.result()
                pending = worker.submit(finish, k, buffers[k % 2])
            pending.result()
    return Dataset(
        images.reshape(-1, image_size, image_size, 3),
        np.repeat(np.arange(class_count), samples_per_class),
        class_count,
    )


TOY_MEANS = ((0.25, 0.25), (0.75, 0.25), (0.5, 0.75))
TOY_STD = 0.06


def toy_2d_three_class(samples_per_class: int, seed: int) -> Dataset:
    """Three well-separated Gaussian clusters inside the unit square.

    Cluster means are pairwise linearly separable by construction.  Each
    2-feature point is stored as a 1x2x1 image so the mixing machinery
    applies unchanged.
    """
    if samples_per_class < 1:
        raise ConfigError("samples_per_class must be positive")
    rng = RngKey(seed).child("toy-2d").generator()
    feats, labels = [], []
    for k, mean in enumerate(TOY_MEANS):
        pts = rng.normal(mean, TOY_STD, size=(samples_per_class, 2))
        feats.append(np.clip(pts, 0.0, 1.0))
        labels.append(np.full(samples_per_class, k, dtype=np.int64))
    images = np.concatenate(feats).reshape(-1, 1, 2, 1).astype(np.float32)
    return Dataset(images, np.concatenate(labels), 3)


def _write_atomic(path, *parts) -> None:
    """Write the chunks (str or bytes) of the iterables ``parts`` in turn to
    ``<path>.tmp``, then ``os.replace`` it over ``path``.  A write that
    raises, even midway, leaves ``path`` as it was and no tmp file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in itertools.chain(*parts):
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset checkpoint (magic ``PMXD``).

    Header fields, all little-endian u32 after the magic: version, width,
    height, channels, class count, sample count.  Then one raw label byte
    per sample, then little-endian float32 pixels, each image row-major
    (row, column, channel).
    """
    if dataset.class_count > 256:
        raise FormatError("label bytes limit class_count to 256")
    header = _HEADER.pack(
        DATASET_MAGIC,
        DATASET_VERSION,
        dataset.width,
        dataset.height,
        dataset.channels,
        dataset.class_count,
        len(dataset),
    )
    labels = dataset.labels.astype(np.uint8).tobytes()
    _write_atomic(path, [header, labels, dataset.images.astype("<f4").tobytes()])


def load_dataset(path) -> Dataset:
    """Read a dataset checkpoint written by :func:`save_dataset`."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, width, height, channels, class_count, count = _HEADER.unpack_from(raw)
    if magic != DATASET_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != DATASET_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    pixel_count = count * height * width * channels
    expected = _HEADER.size + count + pixel_count * 4
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    labels = np.frombuffer(raw, np.uint8, count=count, offset=_HEADER.size).astype(np.int64)
    pixels = np.frombuffer(raw, "<f4", count=pixel_count, offset=_HEADER.size + count)
    images = pixels.reshape(count, height, width, channels).copy()
    return Dataset(images, labels, class_count)


def sniff_and_load(path) -> Dataset:
    """Load either a dataset checkpoint or a CIFAR binary batch."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == DATASET_MAGIC:
        return load_dataset(path)
    size = os.path.getsize(path)
    if size > 0 and size % CIFAR_RECORD_BYTES == 0:
        return load_cifar_binary(path)
    raise FormatError(f"{path}: not a dataset checkpoint or CIFAR binary batch")

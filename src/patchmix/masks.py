"""Square binary patch masks, their pixel-level expansion and text rows.

A grid mask holds one bit per patch cell.  Expanding it against an image
of width W and height H (both divisible by the grid size) fills each
(H/P) x (W/P) pixel region with the corresponding cell bit, so pixel
(s, t) receives ``bits[s * P // H][t * P // W]``; :func:`expand_to_pixel_mask`
returns that (H, W) uint8 array, which per-sample ``mixing.patchmix`` reads.

Random masks are drawn a batch at a time: :func:`sample_mask_bits` returns
a (count, P, P) stack of fair-coin cells from one ``rng.random`` call, and
:func:`sample_random_mask` is its single-mask form on the same stream.
Training (phases 1 and 4) and the search's initial population draw every
random mask through it.

In the genome file a mask is P lines of 0/1 characters, one per grid row
(:func:`mask_rows` / :func:`parse_mask_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError


@dataclass(frozen=True, eq=False)
class PatchMask:
    """P x P binary grid; bit 1 keeps the first source image."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if arr.max(initial=0) > 1:
            raise ConfigError("mask bits must contain only 0/1 values")
        arr.setflags(write=False)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError(f"mask bits must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ConfigError("grid size must be at least 1")
        object.__setattr__(self, "bits", arr)

    @property
    def grid_size(self) -> int:
        return self.bits.shape[0]

    def popcount(self) -> int:
        return int(self.bits.sum())

    def __eq__(self, other) -> bool:
        return isinstance(other, PatchMask) and np.array_equal(self.bits, other.bits)

    __hash__ = None


def sample_mask_bits(count: int, grid_size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` grid masks as one (count, P, P) uint8 stack, each cell
    an independent fair coin.

    Cells are drawn in row-major order, one float each, so one call
    consumes the stream exactly as ``count`` consecutive calls of
    :func:`sample_random_mask` do.
    """
    if grid_size < 1:
        raise ConfigError(f"grid size must be at least 1, got {grid_size}")
    if count < 0:
        raise ConfigError(f"mask count must be non-negative, got {count}")
    return (rng.random((count, grid_size, grid_size)) < 0.5).astype(np.uint8)


def sample_random_mask(grid_size: int, rng: np.random.Generator) -> PatchMask:
    """One mask of :func:`sample_mask_bits`."""
    return PatchMask(sample_mask_bits(1, grid_size, rng)[0])


def _check_divisible(width: int, height: int, grid_size: int) -> None:
    """Reject an image whose sides a ``grid_size`` grid does not split evenly."""
    if width % grid_size != 0 or height % grid_size != 0:
        raise ConfigError(f"image {width}x{height} not divisible by grid size {grid_size}")


def expand_to_pixel_mask(mask: PatchMask, width: int, height: int) -> np.ndarray:
    """Expand grid cells into constant pixel regions: an (height, width)
    uint8 array."""
    p = mask.grid_size
    _check_divisible(width, height, p)
    return np.repeat(np.repeat(mask.bits, height // p, axis=0), width // p, axis=1)


def mixing_ratio(mask: PatchMask) -> float:
    """Fraction of cells set to 1."""
    return mask.popcount() / mask.grid_size**2


def mask_rows(bits: np.ndarray) -> list[str]:
    return ["".join(str(int(v)) for v in row) for row in bits]


def parse_mask_rows(rows: list[str], grid_size: int) -> np.ndarray:
    bits = np.zeros((grid_size, grid_size), dtype=np.uint8)
    for r, line in enumerate(rows):
        row = line.strip()
        if len(row) != grid_size or any(ch not in "01" for ch in row):
            raise FormatError(f"bad mask row {line!r}")
        bits[r] = [int(ch) for ch in row]
    return bits

"""Square binary patch masks and their pixel-level expansion.

A grid mask holds one bit per patch cell.  Expanding it against an image
of width W and height H (both divisible by the grid size) fills each
(H/P) x (W/P) pixel region with the corresponding cell bit, so pixel
(s, t) receives ``bits[s * P // H][t * P // W]``.

Random masks are drawn a batch at a time: :func:`sample_mask_bits` returns
a (count, P, P) stack from one Beta draw, and :func:`sample_random_mask`
is its single-mask form on the same stream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError


def _as_bits(bits, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(bits, dtype=np.uint8)
    if arr.max(initial=0) > 1:
        raise ConfigError(f"{name} must contain only 0/1 values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PatchMask:
    """P x P binary grid; bit 1 keeps the first source image."""

    bits: np.ndarray

    def __post_init__(self):
        arr = _as_bits(self.bits, "mask bits")
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


@dataclass(frozen=True, eq=False)
class PixelMask:
    """Pixel-level 0/1 map, constant on each patch region."""

    bits: np.ndarray

    def __post_init__(self):
        arr = _as_bits(self.bits, "pixel mask bits")
        if arr.ndim != 2:
            raise ConfigError(f"pixel mask must be 2-D, got shape {arr.shape}")
        object.__setattr__(self, "bits", arr)

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, PixelMask) and np.array_equal(self.bits, other.bits)

    __hash__ = None


def sample_mask_bits(
    count: int, grid_size: int, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` grid masks as one (count, P, P) uint8 stack, each
    cell a rounded Beta(alpha, alpha) sample.

    With alpha = 1 this is a fair coin per cell.  Cells are drawn in
    row-major order, so one call consumes the stream exactly as ``count``
    consecutive calls of :func:`sample_random_mask` do.
    """
    if grid_size < 1:
        raise ConfigError(f"grid size must be at least 1, got {grid_size}")
    if not alpha > 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    if count < 0:
        raise ConfigError(f"mask count must be non-negative, got {count}")
    draws = rng.beta(alpha, alpha, size=(count, grid_size, grid_size))
    return np.round(draws).astype(np.uint8)


def sample_random_mask(grid_size: int, alpha: float, rng: np.random.Generator) -> PatchMask:
    """One mask of :func:`sample_mask_bits`."""
    return PatchMask(sample_mask_bits(1, grid_size, alpha, rng)[0])


def full_mask(grid_size: int, value: int = 1) -> PatchMask:
    """Constant mask, all cells set to ``value``."""
    return PatchMask(np.full((grid_size, grid_size), value, dtype=np.uint8))


def _check_divisible(width: int, height: int, grid_size: int) -> None:
    """Reject an image whose sides a ``grid_size`` grid does not split evenly."""
    if width % grid_size != 0 or height % grid_size != 0:
        raise ConfigError(f"image {width}x{height} not divisible by grid size {grid_size}")


def expand_to_pixel_mask(mask: PatchMask, width: int, height: int) -> PixelMask:
    """Expand grid cells into constant pixel regions."""
    p = mask.grid_size
    _check_divisible(width, height, p)
    return PixelMask(np.repeat(np.repeat(mask.bits, height // p, axis=0), width // p, axis=1))


def reduce_to_patch_mask(pixel_mask: PixelMask, grid_size: int) -> PatchMask:
    """Recover the grid mask by majority vote over each patch region."""
    h, w = pixel_mask.height, pixel_mask.width
    if w % grid_size != 0 or h % grid_size != 0:
        raise ConfigError(f"pixel mask {w}x{h} not divisible by grid size {grid_size}")
    regions = pixel_mask.bits.reshape(grid_size, h // grid_size, grid_size, w // grid_size)
    means = regions.mean(axis=(1, 3))
    return PatchMask((means > 0.5).astype(np.uint8))


def mixing_ratio(mask: PatchMask) -> float:
    """Fraction of cells set to 1."""
    return mask.popcount() / mask.grid_size**2


def complement(mask: PatchMask) -> PatchMask:
    return PatchMask(1 - mask.bits)


_HEADER_RE = re.compile(r"^P=(\d+)$")


def serialize_mask(mask: PatchMask) -> str:
    """Text form: a ``P=<n>`` header then one 0/1 row per line."""
    return "\n".join([f"P={mask.grid_size}", *mask_rows(mask.bits)])


def mask_rows(bits: np.ndarray) -> list[str]:
    return ["".join(str(int(v)) for v in row) for row in bits]


def parse_mask(text: str) -> PatchMask:
    lines = [ln for ln in text.strip().splitlines()]
    if not lines:
        raise FormatError("empty mask text")
    m = _HEADER_RE.match(lines[0].strip())
    if not m:
        raise FormatError(f"bad mask header {lines[0]!r}")
    p = int(m.group(1))
    if p < 1:
        raise FormatError("grid size must be at least 1")
    if len(lines) - 1 != p:
        raise FormatError(f"expected {p} mask rows, found {len(lines) - 1}")
    return PatchMask(parse_mask_rows(lines[1:], p))


def parse_mask_rows(rows: list[str], grid_size: int) -> np.ndarray:
    bits = np.zeros((grid_size, grid_size), dtype=np.uint8)
    for r, line in enumerate(rows):
        row = line.strip()
        if len(row) != grid_size or any(ch not in "01" for ch in row):
            raise FormatError(f"bad mask row {line!r}")
        bits[r] = [int(ch) for ch in row]
    return bits

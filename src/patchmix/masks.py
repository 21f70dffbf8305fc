"""Square binary patch masks: sampling, checks and text rows.

A grid mask is a (P, P) uint8 array, one 0/1 bit per patch cell: bit
``bits[r, s]`` names the source of the whole pixel region of cell (r, s).
``mixing.patchmix`` and ``mixing.patchmix_batch`` copy each cell whole from
that source into patch matrices; both check their bits with
:func:`_check_bits`, one mask or a (B, P, P) stack of them.

Random masks are drawn a batch at a time: :func:`sample_mask_bits` returns
a (count, P, P) stack of fair-coin cells from one ``rng.random`` call, and
:func:`sample_random_mask` is its single-mask form on the same stream.
Training (phases 1 and 4) and the search's initial population draw every
random mask through it.

In the genome file a mask is P lines of 0/1 characters, one per grid row
(:func:`mask_rows` / :func:`parse_mask_rows`).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, FormatError


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


def sample_random_mask(grid_size: int, rng: np.random.Generator) -> np.ndarray:
    """One mask of :func:`sample_mask_bits`."""
    return sample_mask_bits(1, grid_size, rng)[0]


def _check_divisible(width: int, height: int, grid_size: int) -> None:
    """Reject an image whose sides a ``grid_size`` grid does not split evenly."""
    if width % grid_size != 0 or height % grid_size != 0:
        raise ConfigError(f"image {width}x{height} not divisible by grid size {grid_size}")


def _check_square(bits: np.ndarray, ndim: int) -> None:
    """Reject ``bits`` unless it has ``ndim`` axes and its last two form one
    square grid of side at least 1."""
    if bits.ndim != ndim or bits.shape[-1] != bits.shape[-2]:
        raise ConfigError(f"mask bits must be square, got shape {bits.shape}")
    if bits.shape[-1] < 1:
        raise ConfigError("grid size must be at least 1")


def _as_bits(mask, what: str = "mask bits") -> np.ndarray:
    """``mask`` as a uint8 array.  A mask of another type is rejected unless
    every value is 0 or 1: the cast would wrap 257 to 1 and truncate 1.5 to
    1.  The callers check uint8 values themselves."""
    bits = np.asarray(mask)
    if bits.dtype == np.uint8:
        return bits
    if not ((bits == 0) | (bits == 1)).all():
        raise ConfigError(f"{what} must contain only 0/1 values")
    return bits.astype(np.uint8)


def _check_bits(bits, ndim: int) -> np.ndarray:
    """``bits`` as a uint8 array of ``ndim`` axes, rejected unless its cells
    are 0/1 and its last two axes form one square grid of side at least 1."""
    bits = _as_bits(bits)
    if bits.tobytes().translate(None, b"\x00\x01"):  # a byte other than 0 or 1
        raise ConfigError("mask bits must contain only 0/1 values")
    _check_square(bits, ndim)
    return bits


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

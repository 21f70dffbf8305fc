"""Hierarchical deterministic random streams.

Every stochastic component draws from a stream addressed by a master seed
plus a tuple key.  Identical addresses always produce identical streams,
no matter in which order consumers run; this is what makes a genome's
fitness independent of which other genomes were scored before it.

String key parts are hashed with CRC-32 so call sites can use readable
labels ("epoch", "fitness", ...) without sacrificing stability across
runs and platforms.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _as_int(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    value = int(part)
    if value < 0:
        raise ConfigError(f"stream key parts must be non-negative, got {value}")
    return value


@dataclass(frozen=True)
class RngKey:
    """Address of one deterministic random stream."""

    master_seed: int
    stream_key: tuple[int, ...] = ()

    def __post_init__(self):
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")

    def child(self, *parts) -> "RngKey":
        """Derive a sub-stream address by appending key parts."""
        return RngKey(self.master_seed, self.stream_key + tuple(_as_int(p) for p in parts))

    def generator(self) -> np.random.Generator:
        """Instantiate the stream.  Same address, same values, always."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.stream_key)
        return np.random.default_rng(seq)

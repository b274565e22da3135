"""Deterministic random streams with explicit sub-stream indexing.

Every stochastic routine in this package takes an :class:`RngSeed` instead of
a bare integer.  A seed is a ``(seed, stream)`` pair feeding a counter-based
Philox generator, so replicate ``r`` of any experiment can draw from its own
private stream.  Results then depend only on the seed layout, never on
scheduling, chunking, or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# One level of substream() supports this many children.  Streams derived from
# a common root never collide: child streams of s occupy the half-open block
# [s * 2**SUBSTREAM_BITS + 1, (s + 1) * 2**SUBSTREAM_BITS).
SUBSTREAM_BITS = 24


@dataclass(frozen=True)
class RngSeed:
    """Reproducible generator handle: master seed plus sub-stream index."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a uint64, got {self.seed}")
        if int(self.stream) < 0:
            raise ValueError(f"stream must be nonnegative, got {self.stream}")

    def generator(self) -> np.random.Generator:
        """Fresh Philox generator for this (seed, stream) pair."""
        import numpy as np  # on first use, so a seed alone loads no numpy

        ss = np.random.SeedSequence(entropy=(int(self.seed), int(self.stream)))
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, index: int) -> "RngSeed":
        """Child seed number ``index``; children of distinct parents never collide."""
        if not 0 <= index < 2**SUBSTREAM_BITS - 1:
            raise ValueError(f"substream index out of range: {index}")
        return RngSeed(self.seed, (int(self.stream) << SUBSTREAM_BITS) + 1 + index)

    def __str__(self):
        return f"{self.seed}:{self.stream}"

    @classmethod
    def parse(cls, text: str) -> "RngSeed":
        """Inverse of ``str``; accepts '123' or '123:45'."""
        seed, _, stream = str(text).partition(":")
        return cls(int(seed), int(stream) if stream else 0)

"""Deterministic random streams with explicit sub-stream indexing.

Every stochastic routine in this package takes an :class:`RngSeed` instead of
a bare integer.  A seed is a ``(seed, stream)`` pair feeding a counter-based
Philox generator, so replicate ``r`` of any experiment can draw from its own
private stream.  Results then depend only on the seed layout, never on
scheduling, chunking, or worker count.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError, _check_int

if TYPE_CHECKING:
    import numpy as np

# One level of substream() supports this many children.  Streams derived from
# a common root never collide: child streams of s occupy the half-open block
# [s * 2**SUBSTREAM_BITS + 1, (s + 1) * 2**SUBSTREAM_BITS).
SUBSTREAM_BITS = 24

# What str() of a seed writes, 'seed:stream', or the seed alone
_SEED_TEXT = re.compile(r"([0-9]+)(?::([0-9]+))?")


@dataclass(frozen=True)
class RngSeed:
    """Reproducible generator handle: master seed plus sub-stream index."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        # stored as int, so str() writes what parse() reads back
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a uint64, got {self.seed}")
        if self.stream < 0:
            raise ValueError(f"stream must be nonnegative, got {self.stream}")

    def generator(self) -> np.random.Generator:
        """Fresh Philox generator for this (seed, stream) pair."""
        import numpy as np  # on first use, so a seed alone loads no numpy

        ss = np.random.SeedSequence(entropy=(self.seed, self.stream))
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, index: int) -> "RngSeed":
        """Child seed number ``index``; children of distinct parents never collide."""
        if not 0 <= index < 2**SUBSTREAM_BITS - 1:
            raise ValueError(f"substream index out of range: {index}")
        return RngSeed(self.seed, (self.stream << SUBSTREAM_BITS) + 1 + index)

    def __str__(self):
        return f"{self.seed}:{self.stream}"

    @classmethod
    def parse(cls, value, where: str = "seed") -> "RngSeed":
        """The seed a config key or a flag gives: a JSON integer in [0, 2^64),
        read as :func:`errors._check_int` reads one, or a string of ASCII
        digits, 'seed' or 'seed:stream' as ``str`` writes it.  Anything else
        raises ConfigError naming ``where``."""
        match = _SEED_TEXT.fullmatch(value) if isinstance(value, str) else None
        try:
            if match:
                return cls(int(match[1]), int(match[2] or 0))
            return cls(_check_int(value, where))
        except ValueError as exc:
            raise ConfigError(
                f"{where} must be an integer in [0, 2^64) or 'seed:stream', got {value!r}"
            ) from exc

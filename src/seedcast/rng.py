"""Seeded random number generation.

Every stochastic choice in the library (parameter init, noise synthesis,
batch shuffling) draws from an RngState so that a single integer seed pins
down the whole run.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


class RngState:
    """Deterministic RNG: identical seed => identical draw sequence.

    Thin wrapper over a counter-based PCG64 generator; the wrapper exists so
    call sites never touch global numpy randomness.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

"""Shared random-number plumbing: the seed type, the generator and the
derivation of child seeds."""

import numpy as np

# Identifier recorded in every report so outputs can be checked for
# cross-platform reproducibility.
RNG_ALGORITHM = "numpy-pcg64"

Seed = int | tuple[int, ...]


def make_rng(seed: Seed) -> np.random.Generator:
    """Seedable generator with a fixed, portable bit stream (PCG64)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def sub_seed(seed: Seed, index: int) -> tuple[int, ...]:
    """Derive an independent child seed from `seed` for stream `index`."""
    if isinstance(seed, tuple):
        return (*seed, index)
    return (seed, index)

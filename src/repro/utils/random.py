"""Deterministic random-number helpers.

Every stochastic component in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None``; :func:`as_generator` normalises
all three so experiments are reproducible end-to-end from a single seed.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = ["as_generator", "spawn", "skip_spawns", "SeedLike"]

SeedLike = Union[None, int, np.random.Generator]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Passing an existing generator returns it unchanged, so components can
    share one stream when a caller wants correlated sampling.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> list:
    """Split ``rng`` into ``count`` independent child generators."""
    try:
        return list(rng.spawn(count))
    except AttributeError:  # numpy < 1.25
        seed_seq = rng.bit_generator.seed_seq
        return [np.random.default_rng(s) for s in seed_seq.spawn(count)]


def skip_spawns(rng: np.random.Generator, count: int) -> None:
    """Advance ``rng``'s spawn counter by ``count`` without building children.

    The next :func:`spawn` then yields the child it would have yielded
    after ``spawn(rng, count)``: both draw from the same seed sequence.
    """
    rng.bit_generator.seed_seq.spawn(count)

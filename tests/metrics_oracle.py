"""Reference figures of merit: per-outcome loops over bitstring keys.

The production metrics in :mod:`repro.metrics` read a PMF's ``codes`` and
``probs`` arrays: PST is one ``searchsorted``, IST a masked max, the QAOA
cut one XOR per edge and the distances a sorted-support merge.  This module
keeps the simple string-keyed loops they replaced, so the differential
tests in ``tests/test_metrics.py`` can check the array paths against them.
Every function takes a plain ``{bitstring: probability}`` dict (a PMF's
``as_dict()``); nothing in ``src/`` calls these.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence, Tuple

from repro.exceptions import ReproError


def pst(distribution: Mapping[str, float], correct: Sequence[str]) -> float:
    """Mass on the distinct correct outcomes over the total mass."""
    total = sum(distribution.values())
    return sum(distribution.get(key, 0.0) for key in set(correct)) / total


def ist(distribution: Mapping[str, float], correct: Sequence[str]) -> float:
    """Strongest correct over strongest incorrect; ``inf`` with none."""
    wanted = set(correct)
    best_correct = max(distribution.get(key, 0.0) for key in wanted)
    best_incorrect = max(
        (value for key, value in distribution.items() if key not in wanted),
        default=0.0,
    )
    if best_incorrect <= 0.0:
        return math.inf
    return best_correct / best_incorrect


def cut_size(bitstring: str, edges: Sequence[Tuple[int, int]]) -> int:
    """Cut value of a partition given as an IBM-order bitstring."""
    n = len(bitstring)
    total = 0
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ReproError(f"edge ({a}, {b}) out of range for {n} bits")
        if bitstring[n - 1 - a] != bitstring[n - 1 - b]:
            total += 1
    return total


def expected_cut(
    distribution: Mapping[str, float], edges: Sequence[Tuple[int, int]]
) -> float:
    """Probability-weighted mean cut over the distribution."""
    total = sum(distribution.values())
    return (
        sum(mass * cut_size(key, edges) for key, mass in distribution.items())
        / total
    )


def tvd(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Normalised total variation distance."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(key, 0.0) - q.get(key, 0.0)) for key in keys)


def hellinger(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Hellinger distance."""
    total = 0.0
    for key in set(p) | set(q):
        diff = math.sqrt(p.get(key, 0.0)) - math.sqrt(q.get(key, 0.0))
        total += diff * diff
    return math.sqrt(total / 2.0)

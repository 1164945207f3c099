"""Success metrics: PST and IST (paper §5.5, Eq. 1-2).

Both read the PMF's arrays: the correct outcomes are encoded as codes,
PST is the mass at their ``searchsorted`` positions and IST's strongest
incorrect outcome is a masked max, so scoring a 2^20-outcome distribution
never renders a bitstring.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.pmf import PMF, require_pmf
from repro.exceptions import ReproError
from repro.utils.bits import strings_to_codes

__all__ = ["probability_of_successful_trial", "inference_strength", "relative"]


def _observed_correct(
    pmf: PMF, correct_outcomes: Sequence[str], metric: str
) -> np.ndarray:
    """Indices into ``pmf.codes`` of the distinct correct outcomes observed.

    Each outcome must be a ``num_bits``-wide bitstring; one listed twice
    counts once.
    """
    require_pmf(pmf, metric)
    if not correct_outcomes:
        raise ReproError(f"{metric} needs at least one correct outcome")
    width = pmf.num_bits
    for outcome in correct_outcomes:
        if not isinstance(outcome, str) or len(outcome) != width:
            raise ReproError(
                f"correct outcome {outcome!r} is not a {width}-bit bitstring"
            )
    try:
        wanted = np.unique(strings_to_codes(correct_outcomes, width))
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    index = np.minimum(np.searchsorted(pmf.codes, wanted), pmf.codes.size - 1)
    return index[pmf.codes[index] == wanted]


def probability_of_successful_trial(
    pmf: PMF, correct_outcomes: Sequence[str]
) -> float:
    """PST: probability mass on the correct outcome(s) (Eq. 1).

    With a counts histogram (``PMF(counts, normalize=False)``) this is
    exactly "trials with the correct output / total trials".
    """
    found = _observed_correct(pmf, correct_outcomes, "PST")
    return float(pmf.probs[found].sum() / pmf.probs.sum())


def inference_strength(pmf: PMF, correct_outcomes: Sequence[str]) -> float:
    """IST: P(correct outcome) / P(most frequent incorrect outcome) (Eq. 2).

    With several correct outcomes (e.g. GHZ) the strongest correct outcome
    is used.  Returns ``inf`` when no incorrect outcome was ever observed.
    """
    found = _observed_correct(pmf, correct_outcomes, "IST")
    best_correct = float(pmf.probs[found].max()) if found.size else 0.0
    incorrect = np.ones(pmf.probs.size, dtype=bool)
    incorrect[found] = False
    if not incorrect.any():
        return math.inf
    return best_correct / float(pmf.probs[incorrect].max())


def relative(value: float, baseline: float) -> float:
    """Safe ratio ``value / baseline`` used for the paper's relative plots."""
    if baseline <= 0.0:
        return math.inf if value > 0.0 else 1.0
    return value / baseline

"""Distribution distances: TVD, fidelity, Hellinger (paper §5.5).

The paper's Equation 3 defines program fidelity as ``1 - TVD`` between the
noise-free distribution and the measured one, with fidelity in [0, 1]; we
use the standard normalised total variation distance
``TVD = (1/2) * sum |P_i - Q_i|`` so that bound holds.

Every distance takes two :class:`~repro.core.pmf.PMF`\\ s of the same width
and runs one sorted-support merge (:func:`~repro.core.pmf.aligned_probs`),
whose cost tracks the observed supports, never ``2**n``.  A counts dict is
converted at the edge with ``PMF(counts)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.pmf import PMF, aligned_probs, hellinger_pmfs, require_pmf

__all__ = [
    "total_variation_distance",
    "fidelity",
    "hellinger",
]


def total_variation_distance(p: PMF, q: PMF) -> float:
    """Normalised TVD in [0, 1]."""
    pa, qa = aligned_probs(require_pmf(p, "TVD"), require_pmf(q, "TVD"))
    return float(0.5 * np.abs(pa - qa).sum())


def fidelity(p: PMF, q: PMF) -> float:
    """Paper Eq. 3: ``1 - TVD``; 1 for identical distributions."""
    return 1.0 - total_variation_distance(p, q)


def hellinger(p: PMF, q: PMF) -> float:
    """Hellinger distance in [0, 1]."""
    return hellinger_pmfs(
        require_pmf(p, "hellinger"), require_pmf(q, "hellinger")
    )

"""Distribution distances: TVD, fidelity, Hellinger (paper §5.5).

The paper's Equation 3 defines program fidelity as ``1 - TVD`` between the
noise-free distribution and the measured one, with fidelity in [0, 1]; we
use the standard normalised total variation distance
``TVD = (1/2) * sum |P_i - Q_i|`` so that bound holds.

The public functions keep their historical ``Mapping[str, float]``
signatures, but they are thin adapters: whenever the operands can be
expressed as aligned code/probability arrays (both are
:class:`~repro.core.pmf.PMF` instances, or one is and the other is a
bitstring-keyed dict of the same width), the distance is computed by a
sorted-support merge (``np.union1d`` + ``searchsorted``) whose cost tracks
the observed supports, never ``2**n``.  Arbitrary string-keyed mappings
fall back to the per-key implementation.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.core.pmf import PMF, aligned_probs, hellinger_pmfs

__all__ = [
    "total_variation_distance",
    "fidelity",
    "hellinger",
]


def _as_pmf_pair(
    p: Mapping[str, float], q: Mapping[str, float]
) -> Optional[Tuple[PMF, PMF]]:
    """Both operands as PMFs when the array fast path applies, else None.

    A plain mapping rides the fast path only when its keys are bitstrings
    of the partner PMF's width; anything else (mismatched widths, exotic
    keys, zero/empty mass) keeps the legacy dict semantics.
    """
    if isinstance(p, PMF) and isinstance(q, PMF):
        # Different widths must not compare raw codes (code 1 is "1" in a
        # 1-bit PMF but "01" in a 2-bit one) — the dict path keeps the
        # legacy never-equal-keys semantics.
        return (p, q) if p.num_bits == q.num_bits else None
    if isinstance(p, PMF) ^ isinstance(q, PMF):
        pmf, other = (p, q) if isinstance(p, PMF) else (q, p)
        try:
            converted = PMF(other, num_bits=pmf.num_bits, normalize=False)
        except Exception:
            return None
        return (p, converted) if isinstance(p, PMF) else (converted, q)
    return None


def total_variation_distance(
    p: Mapping[str, float], q: Mapping[str, float]
) -> float:
    """Normalised TVD in [0, 1]."""
    pair = _as_pmf_pair(p, q)
    if pair is not None:
        pa, qa = aligned_probs(*pair)
        return float(0.5 * np.abs(pa - qa).sum())
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(key, 0.0) - q.get(key, 0.0)) for key in keys)


def fidelity(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Paper Eq. 3: ``1 - TVD``; 1 for identical distributions."""
    return 1.0 - total_variation_distance(p, q)


def hellinger(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Hellinger distance in [0, 1]."""
    pair = _as_pmf_pair(p, q)
    if pair is not None:
        return hellinger_pmfs(*pair)
    total = 0.0
    for key in set(p) | set(q):
        diff = math.sqrt(p.get(key, 0.0)) - math.sqrt(q.get(key, 0.0))
        total += diff * diff
    return math.sqrt(total / 2.0)

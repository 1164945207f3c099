"""QAOA-specific figure of merit: Approximation Ratio Gap (paper §5.5).

``AR = E[cut] / max_cut`` over the samples of a distribution; the
Approximation Ratio Gap is the percentage shortfall of the measured AR
against the noise-free AR (Eq. 4) — lower is better.  The cut of every
outcome comes from its code: edge ``(a, b)`` is cut where bits ``a`` and
``b`` differ, one shift, XOR and mask over ``codes`` per edge.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.pmf import PMF, require_pmf
from repro.exceptions import ReproError
from repro.workloads.workload import Workload

__all__ = [
    "expected_cut",
    "approximation_ratio",
    "approximation_ratio_gap",
    "workload_arg",
]


def expected_cut(pmf: PMF, edges: Sequence[Tuple[int, int]]) -> float:
    """Expectation of the cut size over a distribution of partitions."""
    codes = require_pmf(pmf, "expected_cut").codes
    cuts = np.zeros(codes.size, dtype=np.int64)
    for a, b in edges:
        if not (0 <= a < pmf.num_bits and 0 <= b < pmf.num_bits):
            raise ReproError(
                f"edge ({a}, {b}) out of range for {pmf.num_bits} bits"
            )
        cuts += ((codes >> a) ^ (codes >> b)) & 1
    return float(cuts @ pmf.probs / pmf.probs.sum())


def approximation_ratio(
    pmf: PMF, edges: Sequence[Tuple[int, int]], max_cut: float
) -> float:
    """AR = mean cut over samples / optimal cut."""
    if max_cut <= 0.0:
        raise ReproError("max_cut must be positive")
    return expected_cut(pmf, edges) / max_cut


def approximation_ratio_gap(ar_ideal: float, ar_real: float) -> float:
    """Eq. 4: ``100 * (AR_ideal - AR_real) / AR_ideal`` (percent)."""
    if ar_ideal <= 0.0:
        raise ReproError("ideal approximation ratio must be positive")
    return 100.0 * (ar_ideal - ar_real) / ar_ideal


def workload_arg(workload: Workload, measured: PMF) -> float:
    """ARG of a QAOA workload against its own ideal distribution."""
    edges = workload.metadata.get("edges")
    max_cut = workload.metadata.get("max_cut")
    if edges is None or max_cut is None:
        raise ReproError(f"{workload.name} is not a QAOA workload")
    ar_ideal = approximation_ratio(workload.ideal_distribution(), edges, max_cut)
    ar_real = approximation_ratio(measured, edges, max_cut)
    return approximation_ratio_gap(ar_ideal, ar_real)

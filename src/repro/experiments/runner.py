"""Shared helpers of the paper experiments.

Every paper experiment compares some subset of the schemes — Baseline,
EDM, JigSaw (± recompilation), JigSaw-M, MBM — on a (workload, device)
pair with a shared trial budget, through
:class:`repro.runtime.session.Session`.  This module re-exports the
scheme names and metric record and adds the paper's geometric mean.
"""

from __future__ import annotations

import math
import warnings
from typing import List

from repro.exceptions import ExperimentError
from repro.runtime.session import SCHEME_NAMES, Metrics

__all__ = ["Metrics", "SCHEME_NAMES", "geometric_mean"]


def geometric_mean(values: List[float]) -> float:
    """Geometric mean over the positive finite entries (paper's GMean).

    Non-positive or non-finite values cannot enter a geometric mean; they
    are dropped with a :class:`RuntimeWarning` naming how many were lost,
    so ablation tables cannot quietly lose schemes.
    """
    positive = [v for v in values if v > 0.0 and math.isfinite(v)]
    if not positive:
        raise ExperimentError("no positive values for a geometric mean")
    dropped = len(values) - len(positive)
    if dropped:
        warnings.warn(
            f"geometric_mean dropped {dropped} non-positive/non-finite "
            f"value(s) out of {len(values)}",
            RuntimeWarning,
            stacklevel=2,
        )
    return math.exp(sum(math.log(v) for v in positive) / len(positive))

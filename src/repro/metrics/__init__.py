"""Figures of merit: PST, IST, fidelity/TVD, Hellinger, QAOA ARG."""

from repro.metrics.distances import (
    fidelity,
    hellinger,
    total_variation_distance,
)
from repro.metrics.qaoa_metrics import (
    approximation_ratio,
    approximation_ratio_gap,
    expected_cut,
    workload_arg,
)
from repro.metrics.success import (
    inference_strength,
    probability_of_successful_trial,
    relative,
)

__all__ = [
    "total_variation_distance",
    "fidelity",
    "hellinger",
    "probability_of_successful_trial",
    "inference_strength",
    "relative",
    "expected_cut",
    "approximation_ratio",
    "approximation_ratio_gap",
    "workload_arg",
]

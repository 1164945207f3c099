"""Measurement-error mitigation baselines and combinations."""

from repro.mitigation.combos import mbm_corrected, mitigate_executable_pmf
from repro.mitigation.mbm import (
    MAX_MBM_QUBITS,
    apply_mitigation,
    calibration_matrix,
    mitigate_pmf,
    sampled_calibration_matrix,
)

__all__ = [
    "calibration_matrix",
    "sampled_calibration_matrix",
    "apply_mitigation",
    "mitigate_pmf",
    "MAX_MBM_QUBITS",
    "mitigate_executable_pmf",
    "mbm_corrected",
]

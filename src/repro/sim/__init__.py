"""Simulation engine: ideal statevector evolution.

The shared contraction kernels (batch leading dimension, qubit cap)
live in :mod:`repro.sim.kernels`; the engine here is thin orchestration
over them.  The noisy channel on top of it is :mod:`repro.noise`.
"""

from repro.sim.kernels import (
    DEFAULT_MAX_QUBITS,
    apply_confusions,
    apply_gate,
    check_qubit_cap,
    default_max_qubits,
    marginal_probabilities,
    state_memory_bytes,
    statevectors_stacked,
    structure_key,
    validate_max_qubits,
)
from repro.sim.statevector import StatevectorSimulator

__all__ = [
    "StatevectorSimulator",
    # kernels
    "DEFAULT_MAX_QUBITS",
    "default_max_qubits",
    "validate_max_qubits",
    "check_qubit_cap",
    "state_memory_bytes",
    "apply_gate",
    "apply_confusions",
    "marginal_probabilities",
    "statevectors_stacked",
    "structure_key",
]

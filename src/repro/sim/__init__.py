"""Simulation engines: ideal statevector and Kraus density matrix.

The shared contraction kernels (batch leading dimension, qubit caps)
live in :mod:`repro.sim.kernels`; the engines here are thin
orchestration over them.
"""

from repro.sim.density_matrix import DensityMatrixSimulator, depolarizing_kraus
from repro.sim.kernels import (
    DEFAULT_MAX_QUBITS,
    apply_confusions,
    apply_gate,
    apply_operator_to_density,
    check_qubit_cap,
    default_max_qubits,
    marginal_probabilities,
    state_memory_bytes,
    statevectors_stacked,
    structure_key,
    validate_max_qubits,
)
from repro.sim.trajectory import PauliTrajectorySimulator
from repro.sim.statevector import StatevectorSimulator

__all__ = [
    "StatevectorSimulator",
    "PauliTrajectorySimulator",
    "DensityMatrixSimulator",
    "depolarizing_kraus",
    # kernels
    "DEFAULT_MAX_QUBITS",
    "default_max_qubits",
    "validate_max_qubits",
    "check_qubit_cap",
    "state_memory_bytes",
    "apply_gate",
    "apply_operator_to_density",
    "apply_confusions",
    "marginal_probabilities",
    "statevectors_stacked",
    "structure_key",
]

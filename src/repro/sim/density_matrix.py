"""Density-matrix simulation with Kraus-channel noise.

This engine is the *reference oracle* for the fast sampled noise model in
:mod:`repro.noise.sampler`: it evolves the full density matrix through the
circuit, applying depolarizing channels after gates and a readout
misassignment channel at measurement, with no sampling approximation.  Its
cost is O(4^n) so it is only practical for small circuits (n <= ~10), which
is exactly its role — unit tests cross-check the sampler against it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import SimulationError
from repro.sim.kernels import (
    apply_operator_to_density,
    check_qubit_cap,
    validate_max_qubits,
)
from repro.utils.bits import index_to_bitstring

__all__ = ["DensityMatrixSimulator", "depolarizing_kraus"]

_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def depolarizing_kraus(probability: float, num_qubits: int = 1) -> List[np.ndarray]:
    """Kraus operators of the ``num_qubits``-qubit depolarizing channel.

    With probability ``p`` the state is replaced by the maximally mixed
    state; equivalently each non-identity Pauli is applied with probability
    ``p / (4**k - 1)``.
    """
    if not 0.0 <= probability <= 1.0:
        raise SimulationError(f"invalid depolarizing probability {probability}")
    if num_qubits not in (1, 2):
        raise SimulationError("depolarizing_kraus supports 1 or 2 qubits")
    labels = ["I", "X", "Y", "Z"]
    paulis: List[np.ndarray] = []
    if num_qubits == 1:
        paulis = [_PAULIS[l] for l in labels]
    else:
        for a in labels:
            for b in labels:
                paulis.append(np.kron(_PAULIS[a], _PAULIS[b]))
    d = len(paulis)
    kraus = [np.sqrt(1.0 - probability * (d - 1) / d) * paulis[0]]
    for p in paulis[1:]:
        kraus.append(np.sqrt(probability / d) * p)
    return kraus


class DensityMatrixSimulator:
    """Exact open-system simulation for small circuits.

    ``max_qubits`` is constructor-validated like the other simulators'
    caps; a ``4**n`` density matrix is sized with ``amplitude_exponent=2``
    in the over-cap error, so the default stays a deliberately small 10.
    """

    def __init__(self, max_qubits: int = 10) -> None:
        self.max_qubits = validate_max_qubits(max_qubits)

    def _check(self, circuit: QuantumCircuit) -> None:
        check_qubit_cap(
            circuit.num_qubits,
            self.max_qubits,
            "density matrix",
            amplitude_exponent=2,
        )

    # ------------------------------------------------------------------

    def final_density_matrix(
        self,
        circuit: QuantumCircuit,
        gate_error_1q: float = 0.0,
        gate_error_2q: float = 0.0,
    ) -> np.ndarray:
        """Evolve |0..0><0..0| through the circuit's unitary part.

        ``gate_error_1q``/``gate_error_2q`` add a depolarizing channel of
        that strength after every 1-/2-qubit gate.
        """
        self._check(circuit)
        n = circuit.num_qubits
        dim = 1 << n
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        for ins in circuit.instructions:
            if not ins.is_gate:
                continue
            rho = apply_operator_to_density(
                rho, ins.gate.matrix(), ins.qubits, n
            )
            error = gate_error_1q if len(ins.qubits) == 1 else gate_error_2q
            if error > 0.0:
                rho = self._apply_depolarizing(rho, ins.qubits, error, n)
        return rho

    @staticmethod
    def _apply_depolarizing(
        rho: np.ndarray, qubits: Sequence[int], probability: float, num_qubits: int
    ) -> np.ndarray:
        kraus = depolarizing_kraus(probability, len(qubits))
        out = np.zeros_like(rho)
        for op in kraus:
            out += apply_operator_to_density(rho, op, qubits, num_qubits)
        return out

    # ------------------------------------------------------------------

    def probabilities(
        self,
        circuit: QuantumCircuit,
        gate_error_1q: float = 0.0,
        gate_error_2q: float = 0.0,
    ) -> np.ndarray:
        """Diagonal of the final density matrix (basis-state probabilities)."""
        rho = self.final_density_matrix(circuit, gate_error_1q, gate_error_2q)
        probs = np.real(np.diag(rho)).clip(min=0.0)
        return probs / probs.sum()

    def measured_distribution(
        self,
        circuit: QuantumCircuit,
        gate_error_1q: float = 0.0,
        gate_error_2q: float = 0.0,
        readout_confusions: Optional[Dict[int, np.ndarray]] = None,
        threshold: float = 1e-12,
    ) -> Dict[str, float]:
        """Outcome PMF over classical bits, with optional readout channel.

        ``readout_confusions`` maps measured qubit -> 2x2 column-stochastic
        confusion matrix ``A`` with ``A[observed, actual]``.  This is the
        same channel the fast sampler applies, so equality of the two (up to
        sampling error) validates the sampler.
        """
        meas_map = circuit.measurement_map
        if not meas_map:
            raise SimulationError("circuit has no measurements")
        probs = self.probabilities(circuit, gate_error_1q, gate_error_2q)
        n = circuit.num_qubits
        k = len(meas_map)
        out = np.zeros(1 << k)
        # Sum basis-state probabilities into measured-clbit outcomes.
        for idx in np.flatnonzero(probs > threshold):
            clbit_index = 0
            for q, c in meas_map.items():
                clbit_index |= ((int(idx) >> q) & 1) << c
            out[clbit_index] += probs[idx]
        if readout_confusions:
            out = self._apply_readout(out, meas_map, readout_confusions, k)
        result = {
            index_to_bitstring(i, k): float(p)
            for i, p in enumerate(out)
            if p > threshold
        }
        norm = sum(result.values())
        return {key: value / norm for key, value in result.items()}

    @staticmethod
    def _apply_readout(
        outcome_probs: np.ndarray,
        meas_map: Dict[int, int],
        confusions: Dict[int, np.ndarray],
        num_clbits: int,
    ) -> np.ndarray:
        """Apply per-qubit confusion matrices to the classical distribution."""
        probs = outcome_probs.reshape((2,) * num_clbits)
        for qubit, clbit in meas_map.items():
            matrix = confusions.get(qubit)
            if matrix is None:
                continue
            matrix = np.asarray(matrix, dtype=float)
            if matrix.shape != (2, 2):
                raise SimulationError("confusion matrix must be 2x2")
            axis = num_clbits - 1 - clbit
            probs = np.moveaxis(probs, axis, 0)
            flat = probs.reshape(2, -1)
            flat = matrix @ flat
            probs = flat.reshape((2,) * num_clbits)
            probs = np.moveaxis(probs, 0, axis)
        return probs.reshape(-1)

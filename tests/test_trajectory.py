"""Pauli-trajectory validation of the fast noise model's locality abstraction.

The fast sampler (:mod:`repro.noise.sampler`) abstracts a gate failure as
"flip each measured bit with probability ``gate_failure_flip_rate``".
The trajectory reference below grounds that abstraction: each failing
gate injects an actual random Pauli on its operands and the statevector
is re-run, so the corruption of failing trials can be measured against
the ideal outcomes.
"""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.gates import Gate
from repro.noise import NoiseModel
from repro.sim import StatevectorSimulator, marginal_probabilities

_PAULIS = ("x", "y", "z")


def sample_pattern(circuit, rng, error_1q, error_2q):
    """One trial's failing gates, each with a random Pauli per operand."""
    gates = [ins for ins in circuit.instructions if ins.is_gate]
    pattern = []
    for index, ins in enumerate(gates):
        rate = error_1q if len(ins.qubits) == 1 else error_2q
        if rng.random() < rate:
            paulis = tuple((q, _PAULIS[rng.integers(3)]) for q in ins.qubits)
            pattern.append((index, paulis))
    return tuple(pattern)


def measured_probabilities(circuit, pattern):
    """Measured-qubit marginal with the pattern's Paulis injected."""
    injections = dict(pattern)
    noisy = QuantumCircuit(circuit.num_qubits)
    gates = [ins for ins in circuit.instructions if ins.is_gate]
    for index, ins in enumerate(gates):
        noisy.apply_gate(ins.gate, *ins.qubits)
        for qubit, pauli in injections.get(index, ()):
            noisy.apply_gate(Gate(pauli), qubit)
    probs = StatevectorSimulator().probabilities(noisy)
    keep = sorted(circuit.measurement_map)
    return marginal_probabilities(probs, keep, circuit.num_qubits)


def failure_statistics(circuit, shots, seed, error_1q=0.001, error_2q=0.05):
    """Hamming distances of ``shots`` failing trials to the ideal outcomes."""
    rng = np.random.default_rng(seed)
    ideal = np.flatnonzero(measured_probabilities(circuit, ()) > 1e-9)
    distances = []
    while len(distances) < shots:
        pattern = sample_pattern(circuit, rng, error_1q, error_2q)
        if not pattern:
            continue
        marg = measured_probabilities(circuit, pattern)
        outcome = int(rng.choice(len(marg), p=marg / marg.sum()))
        distances.append(min(bin(outcome ^ int(s)).count("1") for s in ideal))
    distances = np.asarray(distances, dtype=float)
    mean = float(distances.mean())
    return {
        "num_failures": float(len(distances)),
        "mean_hamming_distance": mean,
        "per_bit_flip_rate": mean / len(circuit.measurement_map),
        "max_hamming_distance": float(distances.max()),
    }


@pytest.fixture
def ghz6():
    qc = QuantumCircuit(6)
    qc.h(0)
    for i in range(5):
        qc.cx(i, i + 1)
    return qc.measure_all()


class TestLocalityValidation:
    """Grounds the fast model's gate_failure_flip_rate abstraction."""

    def test_corruption_is_local_not_uniform(self, ghz6):
        """Failing trajectories land near ideal outcomes, not uniformly.

        A uniform scramble over 6 bits would give a mean Hamming distance
        of ~3 to the nearest of the two GHZ outcomes; single-Pauli
        trajectories stay well below that.
        """
        stats = failure_statistics(ghz6, shots=200, seed=4)
        assert stats["mean_hamming_distance"] < 2.6

    def test_per_bit_flip_rate_near_fast_model_default(self, ghz6):
        """The fast model's default flip rate sits in the trajectory range."""
        stats = failure_statistics(ghz6, shots=300, seed=5)
        default = NoiseModel.__dataclass_fields__[
            "gate_failure_flip_rate"
        ].default
        # The empirical per-bit corruption of single-gate failures is the
        # same order as the abstraction (within a factor of ~2.5).
        assert 0.4 * stats["per_bit_flip_rate"] < default < 2.5 * stats[
            "per_bit_flip_rate"
        ]

    def test_failure_statistics_fields(self, ghz6):
        stats = failure_statistics(ghz6, shots=50, seed=6)
        assert stats["num_failures"] == 50
        assert 0 <= stats["per_bit_flip_rate"] <= 1
        assert stats["max_hamming_distance"] <= 6

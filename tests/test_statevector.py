"""Tests for the ideal statevector simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.exceptions import SimulationError
from repro.sim import StatevectorSimulator, apply_gate, marginal_probabilities
from repro.circuits.gates import gate_matrix
from tests.kernel_oracle import expand_operator


@pytest.fixture
def sim():
    return StatevectorSimulator()


class TestStatevector:
    def test_initial_state(self, sim):
        state = sim.statevector(QuantumCircuit(2))
        assert np.allclose(state, [1, 0, 0, 0])

    def test_x_gate(self, sim):
        state = sim.statevector(QuantumCircuit(1).x(0))
        assert np.allclose(np.abs(state) ** 2, [0, 1])

    def test_bell_state(self, sim, bell):
        state = sim.statevector(bell)
        probs = np.abs(state) ** 2
        assert np.allclose(probs, [0.5, 0, 0, 0.5])

    def test_cx_direction(self, sim):
        # control qubit 0 set -> target qubit 1 flips: |11> = index 3
        qc = QuantumCircuit(2).x(0).cx(0, 1)
        probs = sim.probabilities(qc)
        assert np.isclose(probs[3], 1.0)

    def test_cx_no_action_when_control_clear(self, sim):
        qc = QuantumCircuit(2).cx(0, 1)
        probs = sim.probabilities(qc)
        assert np.isclose(probs[0], 1.0)

    def test_swap_gate(self, sim):
        qc = QuantumCircuit(2).x(0).swap(0, 1)
        probs = sim.probabilities(qc)
        assert np.isclose(probs[2], 1.0)  # |10>: qubit1 set

    def test_three_qubit_ghz(self, sim):
        qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        probs = sim.probabilities(qc)
        assert np.isclose(probs[0], 0.5)
        assert np.isclose(probs[7], 0.5)

    def test_max_qubits_guard(self):
        small = StatevectorSimulator(max_qubits=3)
        with pytest.raises(SimulationError):
            small.statevector(QuantumCircuit(4))

    def test_gate_matrix_vs_kron_reference(self, sim):
        """Applying h on qubit 1 of 3 equals kron(I, H, I) on the state."""
        qc = QuantumCircuit(3).x(0).h(1)
        state = sim.statevector(qc)
        h = gate_matrix("h")
        x = gate_matrix("x")
        eye = np.eye(2)
        # kron order: qubit 2 ⊗ qubit 1 ⊗ qubit 0
        reference = np.kron(eye, np.kron(h, x)) @ np.eye(8)[:, 0]
        assert np.allclose(state, reference)


class TestIdealDistribution:
    def test_bell_distribution(self, sim, bell):
        dist = sim.ideal_distribution(bell)
        assert set(dist) == {"00", "11"}
        assert np.isclose(dist["00"], 0.5)

    def test_requires_measurements(self, sim):
        with pytest.raises(SimulationError):
            sim.ideal_distribution(QuantumCircuit(2).h(0))

    def test_partial_measurement_marginalises(self, sim):
        # GHZ-3 measuring only qubit 0: uniform single bit
        qc = QuantumCircuit(3, 1).h(0).cx(0, 1).cx(1, 2).measure(0, 0)
        dist = sim.ideal_distribution(qc)
        assert np.isclose(dist["0"], 0.5)
        assert np.isclose(dist["1"], 0.5)

    def test_clbit_remapping(self, sim):
        # qubit 0 (|1>) into clbit 1; qubit 1 (|0>) into clbit 0 -> "10"
        qc = QuantumCircuit(2, 2).x(0)
        qc.measure(0, 1)
        qc.measure(1, 0)
        dist = sim.ideal_distribution(qc)
        assert dist == {"10": 1.0}

    def test_noncontiguous_clbits_rejected(self, sim):
        qc = QuantumCircuit(3, 3).h(0)
        qc.measure(0, 0)
        qc.measure(1, 2)
        with pytest.raises(SimulationError):
            sim.ideal_distribution(qc)

    def test_distribution_sums_to_one(self, sim, ghz4):
        dist = sim.ideal_distribution(ghz4)
        assert np.isclose(sum(dist.values()), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(["h", "x", "s", "t"]), min_size=1, max_size=6))
    def test_random_1q_circuits_normalised(self, names):
        from repro.circuits import Gate

        qc = QuantumCircuit(2)
        for i, name in enumerate(names):
            qc.apply_gate(Gate(name), i % 2)
        qc.measure_all()
        dist = StatevectorSimulator().ideal_distribution(qc)
        assert np.isclose(sum(dist.values()), 1.0)


class TestMarginalProbabilities:
    def test_marginal_of_product_state(self, sim):
        qc = QuantumCircuit(2).x(0)
        probs = sim.probabilities(qc)
        marg = marginal_probabilities(probs, [0], 2)
        assert np.allclose(marg, [0, 1])

    def test_marginal_keeps_sorted_qubit_order(self, sim):
        # qubit 2 is |1>, qubits 0,1 are |0>
        qc = QuantumCircuit(3).x(2)
        probs = sim.probabilities(qc)
        marg = marginal_probabilities(probs, [0, 2], 3)
        # bit 0 = qubit 0 (=0), bit 1 = qubit 2 (=1) -> index 2
        assert np.isclose(marg[2], 1.0)

    def test_marginal_total_mass(self, sim, ghz4):
        probs = sim.probabilities(ghz4)
        marg = marginal_probabilities(probs, [1, 2], 4)
        assert np.isclose(marg.sum(), 1.0)

    def test_keep_all_is_identity(self, sim, bell):
        probs = sim.probabilities(bell)
        assert np.allclose(marginal_probabilities(probs, [0, 1], 2), probs)


class TestSampling:
    def test_sample_counts_total(self, sim, bell):
        counts = sim.sample(bell, shots=1000, rng=np.random.default_rng(0))
        assert sum(counts.values()) == 1000
        assert set(counts) <= {"00", "11"}

    def test_sample_reproducible(self, sim, bell):
        a = sim.sample(bell, 500, rng=np.random.default_rng(42))
        b = sim.sample(bell, 500, rng=np.random.default_rng(42))
        assert a == b


class TestApplyGateFunction:
    def test_two_qubit_gate_on_nonadjacent_qubits(self):
        state = np.zeros(8, dtype=complex)
        state[1] = 1.0  # qubit 0 set
        out = apply_gate(state, gate_matrix("cx"), (0, 2), 3)
        assert np.isclose(abs(out[5]), 1.0)  # qubits 0 and 2 set

    def test_dimension_mismatch(self):
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        with pytest.raises(SimulationError):
            apply_gate(state, gate_matrix("cx"), (0,), 2)


class TestExpandOperator:
    """The full-space embedding the oracles in tests/kernel_oracle.py use."""

    def test_expand_single_qubit(self):
        x = gate_matrix("x")
        full = expand_operator(x, (1,), 2)
        # X on qubit 1: |00> -> |10>
        state = np.zeros(4)
        state[0] = 1.0
        assert np.isclose(abs((full @ state)[2]), 1.0)

    def test_expand_matches_kron(self):
        h = gate_matrix("h")
        full = expand_operator(h, (0,), 2)
        assert np.allclose(full, np.kron(np.eye(2), h))

    def test_expand_two_qubit(self):
        cx = gate_matrix("cx")
        full = expand_operator(cx, (0, 1), 2)
        # control qubit 0 (first arg): |01> -> |11>
        state = np.zeros(4)
        state[1] = 1.0
        assert np.isclose(abs((full @ state)[3]), 1.0)

    def test_dimension_check(self):
        with pytest.raises(SimulationError):
            expand_operator(np.eye(2), (0, 1), 2)


class TestApplyGateAgainstOracle:
    """The reshape/moveaxis kernel against the expand_operator embedding."""

    def _random_state(self, rng, n):
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        return state / np.linalg.norm(state)

    @pytest.mark.parametrize("qubits", [(0,), (2,), (0, 1), (3, 1), (2, 0)])
    def test_matches_oracle_on_random_operators(self, qubits):
        rng = np.random.default_rng(7)
        n = 4
        state = self._random_state(rng, n)
        k = len(qubits)
        op = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(
            size=(1 << k, 1 << k)
        )
        want = expand_operator(op, qubits, n) @ state
        got = apply_gate(state, op, qubits, n)
        assert np.allclose(got, want, atol=1e-12)

    def test_matches_oracle_on_gates(self):
        rng = np.random.default_rng(3)
        state = self._random_state(rng, 3)
        for name, qubits in [("h", (1,)), ("cx", (0, 2)), ("swap", (2, 1))]:
            op = gate_matrix(name)
            want = expand_operator(op, qubits, 3) @ state
            got = apply_gate(state, op, qubits, 3)
            assert np.allclose(got, want, atol=1e-12), name


class TestIdealPmf:
    """The int64-code spine behind ideal_distribution/sample."""

    def test_matches_string_view(self, sim):
        qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
        pmf = sim.ideal_pmf(qc)
        dist = sim.ideal_distribution(qc)
        assert pmf.as_dict() == dist
        assert pmf.num_bits == 3
        assert np.isclose(pmf.probs.sum(), 1.0)

    def test_partial_measurement_clbit_order(self, sim):
        # Measure qubits (2, 0) into clbits (1, 0): outcome string is
        # "q2 q0" in IBM order.
        qc = QuantumCircuit(3).x(2).measure(0, 0).measure(2, 1)
        pmf = sim.ideal_pmf(qc)
        assert pmf.as_dict() == {"10": 1.0}

    def test_codes_sorted_and_deduplicated(self, sim):
        qc = QuantumCircuit(2).h(0).h(1).measure_all()
        pmf = sim.ideal_pmf(qc)
        assert list(pmf.codes) == sorted(set(pmf.codes))
        assert len(pmf.codes) == 4

    def test_requires_measurements(self, sim):
        with pytest.raises(SimulationError):
            sim.ideal_pmf(QuantumCircuit(2).h(0))

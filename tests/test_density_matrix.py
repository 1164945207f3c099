"""Tests for the density-matrix simulator (the noise-channel oracle)."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.exceptions import SimulationError
from repro.sim import (
    DensityMatrixSimulator,
    StatevectorSimulator,
    apply_operator_to_density,
    depolarizing_kraus,
)
from repro.circuits.gates import gate_matrix
from tests.kernel_oracle import expand_operator


@pytest.fixture
def dm():
    return DensityMatrixSimulator()


class TestExpandOperator:
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


class TestApplyOperatorKernel:
    """The fast reshape/moveaxis kernel against the expand_operator oracle."""

    def _random_rho(self, rng, n):
        raw = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(
            size=(1 << n, 1 << n)
        )
        rho = raw @ raw.conj().T
        return rho / np.trace(rho)

    @pytest.mark.parametrize("qubits", [(0,), (2,), (0, 1), (3, 1), (2, 0)])
    def test_matches_oracle_on_random_operators(self, qubits):
        rng = np.random.default_rng(7)
        n = 4
        rho = self._random_rho(rng, n)
        k = len(qubits)
        op = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(
            size=(1 << k, 1 << k)
        )
        full = expand_operator(op, qubits, n)
        want = full @ rho @ full.conj().T
        got = apply_operator_to_density(rho, op, qubits, n)
        assert np.allclose(got, want, atol=1e-12)

    def test_matches_oracle_on_gates(self):
        rng = np.random.default_rng(3)
        rho = self._random_rho(rng, 3)
        for name, qubits in [("h", (1,)), ("cx", (0, 2)), ("swap", (2, 1))]:
            op = gate_matrix(name)
            full = expand_operator(op, qubits, 3)
            want = full @ rho @ full.conj().T
            got = apply_operator_to_density(rho, op, qubits, 3)
            assert np.allclose(got, want, atol=1e-12), name

    def test_dimension_checks(self):
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(SimulationError):
            apply_operator_to_density(rho, np.eye(2), (0, 1), 2)
        with pytest.raises(SimulationError):
            apply_operator_to_density(np.eye(3), np.eye(2), (0,), 2)


class TestDepolarizingKraus:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_completeness(self, p, k):
        kraus = depolarizing_kraus(p, k)
        total = sum(op.conj().T @ op for op in kraus)
        assert np.allclose(total, np.eye(2 ** k))

    def test_full_depolarizing_gives_maximally_mixed(self, dm):
        qc = QuantumCircuit(1).x(0)
        probs = dm.probabilities(qc, gate_error_1q=1.0)
        # p=1 leaves weight 1/4 on identity: 3/4 mixing of X-result
        assert probs[0] > 0.3

    def test_invalid_probability(self):
        with pytest.raises(SimulationError):
            depolarizing_kraus(1.5)

    def test_unsupported_arity(self):
        with pytest.raises(SimulationError):
            depolarizing_kraus(0.1, 3)


class TestAgainstStatevector:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: QuantumCircuit(2).h(0).cx(0, 1).measure_all(),
            lambda: QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2).measure_all(),
            lambda: QuantumCircuit(2).x(0).rz(0.3, 0).h(1).measure_all(),
            lambda: QuantumCircuit(2).rzz(0.7, 0, 1).h(0).measure_all(),
        ],
    )
    def test_noiseless_matches_statevector(self, dm, builder):
        qc = builder()
        sv_dist = StatevectorSimulator().ideal_distribution(qc)
        dm_dist = dm.measured_distribution(qc)
        for key in set(sv_dist) | set(dm_dist):
            assert np.isclose(
                sv_dist.get(key, 0.0), dm_dist.get(key, 0.0), atol=1e-9
            )

    def test_max_qubits_guard(self):
        small = DensityMatrixSimulator(max_qubits=2)
        with pytest.raises(SimulationError):
            small.probabilities(QuantumCircuit(3))


class TestNoiseBehaviour:
    def test_depolarizing_reduces_peak(self, dm, bell):
        clean = dm.measured_distribution(bell)
        noisy = dm.measured_distribution(bell, gate_error_2q=0.2)
        assert noisy["00"] < clean["00"]
        assert noisy.get("01", 0.0) > 0.0

    def test_probabilities_stay_normalised(self, dm, bell):
        noisy = dm.measured_distribution(bell, gate_error_1q=0.05, gate_error_2q=0.1)
        assert np.isclose(sum(noisy.values()), 1.0)

    def test_readout_confusion_applied(self, dm):
        qc = QuantumCircuit(1).x(0).measure(0, 0)
        conf = {0: np.array([[0.9, 0.2], [0.1, 0.8]])}
        dist = dm.measured_distribution(qc, readout_confusions=conf)
        assert np.isclose(dist["1"], 0.8)
        assert np.isclose(dist["0"], 0.2)

    def test_readout_confusion_per_qubit(self, dm):
        qc = QuantumCircuit(2).x(0).measure(0, 0).measure(1, 1)
        conf = {
            0: np.array([[0.95, 0.3], [0.05, 0.7]]),
            1: np.array([[1.0, 0.0], [0.0, 1.0]]),
        }
        dist = dm.measured_distribution(qc, readout_confusions=conf)
        # qubit 0 is |1>: read correctly with 0.7; qubit 1 perfect
        assert np.isclose(dist["01"], 0.7)
        assert np.isclose(dist["00"], 0.3)

    def test_invalid_confusion_shape(self, dm):
        qc = QuantumCircuit(1).measure(0, 0)
        with pytest.raises(SimulationError):
            dm.measured_distribution(
                qc, readout_confusions={0: np.eye(3)}
            )

    def test_requires_measurements(self, dm):
        with pytest.raises(SimulationError):
            dm.measured_distribution(QuantumCircuit(1).h(0))

    def test_density_matrix_trace_one(self, dm, bell):
        rho = dm.final_density_matrix(bell, gate_error_2q=0.1)
        assert np.isclose(np.trace(rho).real, 1.0)

    def test_density_matrix_hermitian(self, dm, bell):
        rho = dm.final_density_matrix(bell, gate_error_2q=0.1)
        assert np.allclose(rho, rho.conj().T)

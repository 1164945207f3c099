"""Tests for the noise model and the fast noisy sampler.

The crucial test here validates the sampler's readout channel against
the full-register oracle of tests/kernel_oracle.py on a small device.
"""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.compiler import CompilerPipeline, Layout
from repro.exceptions import NoiseModelError, SimulationError
from repro.noise import NoiseModel, NoisySampler, clbit_probability_vector
from repro.sim import StatevectorSimulator, apply_confusions
from tests.conftest import make_line_device
from tests.kernel_oracle import readout_distribution


@pytest.fixture
def device():
    return make_line_device(num_qubits=4, readout=0.04, crosstalk=0.002)


@pytest.fixture
def noise(device):
    return NoiseModel.from_device(device)


def compile_identity(circuit, device):
    layout = Layout.trivial(circuit.num_qubits)
    return CompilerPipeline(device).compile(
        circuit, attempts=1, initial_layouts=[layout], seed=0
    )


class TestNoiseModel:
    def test_gate_survival_product(self, device, noise):
        qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
        executable = compile_identity(qc, device)
        survival = noise.gate_survival_probability(executable.physical)
        expected = (1 - 0.0005) * (1 - 0.01) ** 2
        assert survival == pytest.approx(expected)

    def test_swap_counts_as_three_cnots(self, device, noise):
        physical = QuantumCircuit(4).swap(0, 1)
        survival = noise.gate_survival_probability(physical)
        assert survival == pytest.approx((1 - 0.01) ** 3)

    def test_gate_noise_disabled(self, device):
        noise = NoiseModel.from_device(device, gate_noise_enabled=False)
        physical = QuantumCircuit(4).cx(0, 1).cx(1, 2)
        assert noise.gate_survival_probability(physical) == 1.0

    def test_readout_disabled(self, device):
        noise = NoiseModel.from_device(device, readout_noise_enabled=False)
        p01, p10 = noise.readout_rates([0, 1], 2)
        assert np.all(p01 == 0) and np.all(p10 == 0)

    def test_readout_rates_crosstalk(self, device, noise):
        p01_iso, _ = noise.readout_rates([0], 1)
        p01_wide, _ = noise.readout_rates([0], 4)
        assert p01_wide[0] > p01_iso[0]

    def test_three_qubit_gate_rejected(self, device, noise):
        physical = QuantumCircuit(4).ccx(0, 1, 2)
        with pytest.raises(NoiseModelError):
            noise.gate_survival_probability(physical)

    def test_confusion_matrices_identity_when_disabled(self, device):
        noise = NoiseModel.from_device(device, readout_noise_enabled=False)
        for conf in noise.confusion_matrices([0, 1], 2):
            assert np.allclose(conf, np.eye(2))


class TestClbitProbabilityVector:
    def test_identity_map(self):
        probs = np.array([0.5, 0, 0, 0.5])
        vec = clbit_probability_vector(probs, {0: 0, 1: 1}, 2)
        assert np.allclose(vec, probs)

    def test_swapped_clbits(self):
        # qubit 0 -> clbit 1, qubit 1 -> clbit 0
        probs = np.zeros(4)
        probs[1] = 1.0  # qubit 0 set
        vec = clbit_probability_vector(probs, {0: 1, 1: 0}, 2)
        assert np.isclose(vec[2], 1.0)  # clbit 1 set

    def test_subset_marginal(self):
        # GHZ-3 over qubits; measure qubit 1 only
        probs = np.zeros(8)
        probs[0] = 0.5
        probs[7] = 0.5
        vec = clbit_probability_vector(probs, {1: 0}, 3)
        assert np.allclose(vec, [0.5, 0.5])

    def test_empty_map_rejected(self):
        with pytest.raises(SimulationError):
            clbit_probability_vector(np.ones(2), {}, 1)

    def test_noncontiguous_clbits_rejected(self):
        with pytest.raises(SimulationError):
            clbit_probability_vector(np.ones(4) / 4, {0: 0, 1: 2}, 2)


class TestApplyConfusions:
    def test_matches_kron_reference(self):
        rng = np.random.default_rng(0)
        dist = rng.random(8)
        dist /= dist.sum()
        confusions = [
            np.array([[0.9, 0.2], [0.1, 0.8]]),
            np.array([[0.95, 0.05], [0.05, 0.95]]),
            np.eye(2),
        ]
        # kron order: clbit 2 ⊗ clbit 1 ⊗ clbit 0
        full = np.kron(confusions[2], np.kron(confusions[1], confusions[0]))
        assert np.allclose(apply_confusions(dist, confusions), full @ dist)

    def test_preserves_total_mass(self):
        dist = np.array([0.25, 0.25, 0.25, 0.25])
        confusions = [np.array([[0.8, 0.3], [0.2, 0.7]])] * 2
        assert np.isclose(apply_confusions(dist, confusions).sum(), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(SimulationError):
            apply_confusions(np.ones(4) / 4, [np.eye(2)])


class TestSamplerAgainstOracle:
    """The factorised sampler must match the full-register oracle."""

    def test_exact_distribution_matches_density_matrix(self, device, noise):
        qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
        executable = compile_identity(qc, device)
        sampler = NoisySampler(noise, seed=0)
        fast = sampler.exact_distribution(executable)

        # Oracle: readout channel on the ideal distribution (gate noise off
        # for a clean comparison of the readout part).
        quiet = NoiseModel.from_device(device, gate_noise_enabled=False)
        fast_readout_only = NoisySampler(quiet, seed=0).exact_distribution(
            executable
        )
        confusions = {
            q: device.calibration.confusion_matrix(q, 3)
            for q in (0, 1, 2)
        }
        oracle = readout_distribution(qc, confusions)
        for key in set(oracle) | set(fast_readout_only):
            assert fast_readout_only.get(key, 0.0) == pytest.approx(
                oracle.get(key, 0.0), abs=1e-9
            )
        # With gate noise on, mass moves away from the peak outcomes.
        assert fast["000"] < fast_readout_only["000"]

    def test_sampled_counts_converge_to_exact(self, device, noise):
        qc = QuantumCircuit(2).h(0).cx(0, 1).measure_all()
        executable = compile_identity(qc, device)
        sampler = NoisySampler(noise, seed=3)
        exact = sampler.exact_distribution(executable)
        counts = sampler.run(executable, shots=200_000)
        total = sum(counts.values())
        for key, prob in exact.items():
            assert counts.get(key, 0) / total == pytest.approx(prob, abs=0.01)

    def test_counts_sum_to_shots(self, device, noise, ghz4):
        executable = compile_identity(ghz4, device)
        counts = NoisySampler(noise, seed=1).run(executable, 4096)
        assert sum(counts.values()) == 4096

    def test_reproducible_with_seed(self, device, noise, ghz4):
        executable = compile_identity(ghz4, device)
        a = NoisySampler(noise, seed=9).run(executable, 1024)
        b = NoisySampler(noise, seed=9).run(executable, 1024)
        assert a == b

    def test_shots_must_be_positive(self, device, noise, ghz4):
        executable = compile_identity(ghz4, device)
        with pytest.raises(SimulationError):
            NoisySampler(noise).run(executable, 0)

    def test_chunked_sampling_conserves_shots(self, device, noise, ghz4):
        # Chunking bounds memory, not totals: shots that span many chunks
        # (including a ragged final chunk) all land in the histogram.
        executable = compile_identity(ghz4, device)
        counts = NoisySampler(noise, seed=4, chunk_shots=100).run(
            executable, 4_099
        )
        assert sum(counts.values()) == 4_099

    def test_chunked_sampling_statistics_match(self, device, noise, ghz4):
        # A chunked stream draws different variates than an unchunked one
        # but must converge to the same channel.
        executable = compile_identity(ghz4, device)
        chunked = NoisySampler(noise, seed=5, chunk_shots=1_000).run(
            executable, 100_000
        )
        exact = NoisySampler(noise).exact_distribution(executable)
        for key, prob in exact.items():
            assert chunked.get(key, 0) / 100_000 == pytest.approx(
                prob, abs=0.01
            )

    def test_chunk_shots_must_be_positive(self, noise):
        with pytest.raises(SimulationError):
            NoisySampler(noise, chunk_shots=0)

    def test_exact_distribution_normalised(self, device, noise, ghz4):
        executable = compile_identity(ghz4, device)
        dist = NoisySampler(noise).exact_distribution(executable)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_no_noise_reproduces_ideal(self, device, ghz4):
        quiet = NoiseModel.from_device(
            device, gate_noise_enabled=False, readout_noise_enabled=False
        )
        executable = compile_identity(ghz4, device)
        dist = NoisySampler(quiet).exact_distribution(executable)
        ideal = StatevectorSimulator().ideal_distribution(ghz4)
        for key in set(dist) | set(ideal):
            assert dist.get(key, 0.0) == pytest.approx(
                ideal.get(key, 0.0), abs=1e-12
            )

    def test_cpm_reads_fewer_bits(self, device, noise, ghz4):
        cpm = ghz4.with_measured_subset([0, 1])
        executable = compile_identity(cpm, device)
        dist = NoisySampler(noise).exact_distribution(executable)
        assert all(len(key) == 2 for key in dist)
        # Correlated GHZ marginal: 00 and 11 dominate.
        assert dist["00"] + dist["11"] > 0.8

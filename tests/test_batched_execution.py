"""Property tests for the batched execution spine.

The contract under test: every stacked/batched path — kernels, sampler,
backends, full scheme runs — is **bit-for-bit** identical to the
per-circuit oracle kernels of :mod:`tests.kernel_oracle`, for every
scheme, batch composition, and worker count.  No ``allclose`` anywhere:
stacking batches only deterministic transforms, so exact equality is the
specification, not an aspiration.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.compiler import CompilerPipeline
from repro.exceptions import SimulationError
from repro.noise.model import NoiseModel
from repro.noise.sampler import NoisySampler
from repro.runtime import SCHEME_NAMES, ExecutionRequest, LocalBackend, Session
from repro.sim import kernels
from repro.sim.statevector import StatevectorSimulator
from repro.workloads import ghz
from tests import kernel_oracle
from tests.conftest import make_varied_line_device

# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def device():
    return make_varied_line_device(num_qubits=8)


@pytest.fixture(scope="module")
def noise_model(device):
    return NoiseModel.from_device(device)


@pytest.fixture(scope="module")
def ghz6(device):
    return ghz(6).circuit


@pytest.fixture(scope="module")
def executables(device, ghz6):
    """A mixed-width pool: one 6-bit body plus three 2-bit subsets."""
    pipeline = CompilerPipeline(device)
    return [
        pipeline.compile(ghz6, seed=0),
        pipeline.compile(ghz6.with_measured_subset([0, 1]), seed=1),
        pipeline.compile(ghz6.with_measured_subset([2, 3]), seed=2),
        pipeline.compile(ghz6.with_measured_subset([4, 5]), seed=3),
    ]


def random_states(rng, batch, num_qubits):
    shape = (batch, 1 << num_qubits)
    state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return state.astype(np.complex128)


def assert_code_counts_equal(left, right):
    assert left.num_bits == right.num_bits
    assert left.counts.dtype == np.int64
    assert np.array_equal(left.codes, right.codes)
    assert np.array_equal(left.counts, right.counts)


# ---------------------------------------------------------------------------
# Kernel layer: batched == per-slice, bitwise
# ---------------------------------------------------------------------------


class TestKernelBatching:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_qubits=st.integers(1, 4),
        batch=st.integers(1, 5),
        stacked_matrix=st.booleans(),
    )
    def test_apply_gate_batched_matches_slices(
        self, seed, num_qubits, batch, stacked_matrix
    ):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, min(2, num_qubits) + 1))
        qubits = list(
            rng.choice(num_qubits, size=k, replace=False).astype(int)
        )
        dim = 1 << k
        if stacked_matrix:
            matrix = (
                rng.normal(size=(batch, dim, dim))
                + 1j * rng.normal(size=(batch, dim, dim))
            ).astype(np.complex128)
        else:
            matrix = (
                rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            ).astype(np.complex128)
        states = random_states(rng, batch, num_qubits)
        batched = kernels.apply_gate(states, matrix, qubits, num_qubits)
        assert batched.shape == states.shape
        for b in range(batch):
            single = kernels.apply_gate(
                states[b],
                matrix[b] if stacked_matrix else matrix,
                qubits,
                num_qubits,
            )
            assert np.array_equal(batched[b], single)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bits=st.integers(1, 4),
        batch=st.integers(1, 5),
        stacked_confusions=st.booleans(),
    )
    def test_apply_confusions_batched_matches_rows(
        self, seed, num_bits, batch, stacked_confusions
    ):
        rng = np.random.default_rng(seed)
        probs = rng.random((batch, 1 << num_bits))
        if stacked_confusions:
            confusions = [
                rng.random((batch, 2, 2)) for _ in range(num_bits)
            ]
        else:
            confusions = [rng.random((2, 2)) for _ in range(num_bits)]
        batched = kernels.apply_confusions(probs, confusions)
        for b in range(batch):
            row_confusions = [
                c[b] if stacked_confusions else c for c in confusions
            ]
            single = kernels.apply_confusions(probs[b], row_confusions)
            assert np.array_equal(batched[b], single)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_qubits=st.integers(1, 5),
        batch=st.integers(1, 5),
    )
    def test_marginal_probabilities_batched_matches_rows(
        self, seed, num_qubits, batch
    ):
        rng = np.random.default_rng(seed)
        probs = rng.random((batch, 1 << num_qubits))
        keep = sorted(
            rng.choice(
                num_qubits,
                size=int(rng.integers(1, num_qubits + 1)),
                replace=False,
            ).astype(int)
        )
        batched = kernels.marginal_probabilities(probs, keep, num_qubits)
        assert batched.shape == (batch, 1 << len(keep))
        for b in range(batch):
            single = kernels.marginal_probabilities(
                probs[b], keep, num_qubits
            )
            assert np.array_equal(batched[b], single)


# ---------------------------------------------------------------------------
# Stacked statevector evolution
# ---------------------------------------------------------------------------


def parameterised_circuit(num_qubits, params):
    qc = QuantumCircuit(num_qubits)
    for q in range(num_qubits):
        qc.ry(float(params[q]), q)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    for q in range(num_qubits):
        qc.rz(float(params[num_qubits + q]), q)
    return qc


class TestStackedStatevectors:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_qubits=st.integers(2, 5),
        batch=st.integers(1, 6),
    )
    def test_bind_many_stack_matches_per_circuit(
        self, seed, num_qubits, batch
    ):
        rng = np.random.default_rng(seed)
        circuits = [
            parameterised_circuit(
                num_qubits, rng.uniform(0, 2 * np.pi, 2 * num_qubits)
            )
            for _ in range(batch)
        ]
        sim = StatevectorSimulator()
        stacked = sim.statevectors_stacked(circuits)
        assert stacked.dtype == np.complex128
        assert stacked.shape == (batch, 1 << num_qubits)
        for b, circuit in enumerate(circuits):
            assert np.array_equal(stacked[b], sim.statevector(circuit))
        stacked_probs = sim.probabilities_stacked(circuits)
        assert stacked_probs.dtype == np.float64
        for b, circuit in enumerate(circuits):
            assert np.array_equal(
                stacked_probs[b], sim.probabilities(circuit)
            )

    def test_mixed_structures_rejected(self):
        sim = StatevectorSimulator()
        a = QuantumCircuit(2).h(0).cx(0, 1)
        b = QuantumCircuit(2).h(0).cx(1, 0)
        with pytest.raises(SimulationError):
            sim.statevectors_stacked([a, b])

    def test_structure_key_separates_topology_not_parameters(self):
        a = parameterised_circuit(3, np.linspace(0.1, 0.6, 6))
        b = parameterised_circuit(3, np.linspace(0.7, 1.2, 6))
        c = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        assert kernels.structure_key(a) == kernels.structure_key(b)
        assert kernels.structure_key(a) != kernels.structure_key(c)


# ---------------------------------------------------------------------------
# Qubit cap (shared, configurable)
# ---------------------------------------------------------------------------


class TestQubitCapAndNamespaces:
    def test_env_overrides_default_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_QUBITS", "5")
        assert StatevectorSimulator().max_qubits == 5

    def test_explicit_cap_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_QUBITS", "5")
        assert StatevectorSimulator(max_qubits=12).max_qubits == 12

    def test_cap_error_reports_memory_estimate(self):
        sim = StatevectorSimulator(max_qubits=3)
        with pytest.raises(SimulationError) as excinfo:
            sim.statevector(QuantumCircuit(4).h(0))
        message = str(excinfo.value)
        assert "4" in message and "max_qubits" in message
        # 2**4 amplitudes x 16 bytes.
        assert "256" in message

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5, "ten"])
    def test_invalid_caps_rejected(self, bad):
        with pytest.raises(SimulationError):
            kernels.validate_max_qubits(bad)

    def test_state_memory_bytes(self):
        assert kernels.state_memory_bytes(10) == 16 * 1024
        assert kernels.state_memory_bytes(5, amplitude_exponent=2) \
            == 16 * 1024


# ---------------------------------------------------------------------------
# Sampler layer: stacked bodies == oracle, bitwise
# ---------------------------------------------------------------------------


class TestSamplerStacking:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shots_list=st.lists(st.integers(1, 4_000), min_size=0, max_size=5),
        chunk_shots=st.sampled_from([257, 1_000, 1_000_000]),
    )
    @example(seed=0, shots_list=[], chunk_shots=257)
    @example(seed=1, shots_list=[4_000, 1, 257], chunk_shots=257)
    def test_run_many_codes_matches_oracle(
        self, noise_model, executables, seed, shots_list, chunk_shots
    ):
        sampler = NoisySampler(
            noise_model, seed=0, chunk_shots=chunk_shots
        )
        oracle = kernel_oracle.run_many_codes(
            sampler,
            executables[0],
            shots_list,
            rng=np.random.default_rng(seed),
        )
        stacked = sampler.run_many_codes(
            executables[0], shots_list, rng=np.random.default_rng(seed)
        )
        assert len(stacked) == len(oracle) == len(shots_list)
        for left, right in zip(stacked, oracle):
            assert_code_counts_equal(left, right)

    def test_run_codes_draws_from_the_sampler_stream(
        self, noise_model, executables
    ):
        stacked = NoisySampler(noise_model, seed=5, chunk_shots=1_000)
        oracle = NoisySampler(noise_model, seed=5, chunk_shots=1_000)
        for shots in (2_500, 700):
            assert_code_counts_equal(
                stacked.run_codes(executables[1], shots),
                *kernel_oracle.run_many_codes(oracle, executables[1], [shots]),
            )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 8),
    )
    @example(seed=0, size=0)
    @example(seed=0, size=1)
    def test_exact_group_distributions_matches_oracle(
        self, noise_model, executables, seed, size
    ):
        # Random batch compositions: repeats, mixed and singleton widths.
        rng = np.random.default_rng(seed)
        batch = [
            executables[i]
            for i in rng.integers(0, len(executables), size=size)
        ]
        sampler = NoisySampler(noise_model, seed=0)
        stacked = sampler.exact_group_distributions(batch)
        assert len(stacked) == len(batch)
        for executable, (codes, probs, k) in zip(batch, stacked):
            ref_codes, ref_probs, ref_k = kernel_oracle.exact_distribution(
                sampler, executable
            )
            assert k == ref_k
            assert codes.dtype == np.int64
            assert np.array_equal(codes, ref_codes)
            assert np.array_equal(probs, ref_probs)


# ---------------------------------------------------------------------------
# Backend layer: stacked spine == oracle at any worker count
# ---------------------------------------------------------------------------


def make_requests(executables, trials=400):
    # Duplicates so coalescing and stacking both engage.
    return [ExecutionRequest(e, trials) for e in executables] * 2


def on_oracle(monkeypatch, run):
    """``run()`` with every sampler and simulator on the per-circuit oracle."""
    with monkeypatch.context() as patch:
        kernel_oracle.install(patch)
        return run()


class TestBackendOracleEquality:
    def test_exact_stacked_matches_reference_across_workers(
        self, noise_model, executables, monkeypatch
    ):
        requests = make_requests(executables)
        reference = on_oracle(
            monkeypatch,
            lambda: [
                p.as_dict()
                for p in LocalBackend(noise_model=noise_model).execute(
                    requests
                )
            ],
        )

        for workers in (None, 1, 2, 4):
            backend = LocalBackend(workers=workers, noise_model=noise_model)
            assert [
                p.as_dict() for p in backend.execute(requests)
            ] == reference, workers
            counters = backend.metrics.snapshot()["counters"]
            # Stacking engages whenever a shard holds several same-width
            # groups; at workers=4 the four coalesced groups land one per
            # shard, so there is nothing left to stack — equality above is
            # the invariant, stacking the optimisation.
            if workers != 4:
                assert counters["backend.stacked_evals"] >= 1, workers
                assert (
                    counters["backend.stacked_circuits"]
                    > counters["backend.stacked_evals"]
                )
            assert counters["backend.shards"] >= 1
            # Coalescing still collapses the duplicated batch.
            assert counters["backend.channel_evals"] == len(requests) // 2

    def test_sampled_stacked_matches_reference_across_workers(
        self, noise_model, executables, monkeypatch
    ):
        requests = make_requests(executables, trials=300)
        reference = on_oracle(
            monkeypatch,
            lambda: [
                p.as_dict()
                for p in LocalBackend(
                    exact=False, noise_model=noise_model, seed=11
                ).execute(requests)
            ],
        )
        for workers in (None, 1, 2, 4):
            backend = LocalBackend(
                exact=False, workers=workers, noise_model=noise_model, seed=11
            )
            assert [
                p.as_dict() for p in backend.execute(requests)
            ] == reference, workers


# ---------------------------------------------------------------------------
# Scheme layer: all 7 schemes, exact + sampled, stacked == oracle
# ---------------------------------------------------------------------------


def run_all_schemes(device, workload, exact, workers):
    session = Session(
        device,
        seed=7,
        total_trials=2_048,
        exact=exact,
        compile_attempts=2,
        cpm_attempts=1,
        ensemble_size=2,
        workers=workers,
    )
    return {
        scheme: session.run_scheme(scheme, workload).as_dict()
        for scheme in SCHEME_NAMES
    }


class TestSchemeOracleEquality:
    @pytest.mark.parametrize("exact", [True, False])
    def test_all_schemes_bitforbit_vs_oracle_across_workers(
        self, device, exact, monkeypatch
    ):
        workload = ghz(5)
        oracle = on_oracle(
            monkeypatch,
            lambda: run_all_schemes(device, workload, exact, workers=None),
        )
        for workers in (None, 2):
            stacked = run_all_schemes(device, workload, exact, workers)
            assert stacked == oracle, (exact, workers)

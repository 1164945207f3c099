"""Reference kernels: the oracles of the execution spine.

The production sampler, exact channel and statevector sharing evaluate
whole groups as stacks (:mod:`repro.noise.sampler`,
:mod:`repro.runtime.backend`).  This module keeps the simple per-circuit
loops they replaced — one executable, one chunk, one circuit at a time —
so the differential tests can assert the stacked paths bit-for-bit equal
to them.  Nothing in ``src/`` can select these loops: a test that needs a
whole :class:`~repro.runtime.Session` on the oracle installs it with
:func:`install`, which monkeypatches the stacked methods for the test's
duration only.

The functions taking ``sampler``/``simulator`` first have the signatures
of the methods they stand in for, so :func:`install` can patch them onto
the classes as-is.

Beside them sits a slower, independent reference: :func:`expand_operator`
embeds an operator in the full ``2**n`` space, and
:func:`readout_distribution` builds the measured distribution from it by
plain matrix-vector products, with none of the kernels' reshape/moveaxis
tricks.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.noise.sampler import CodeCounts, NoisySampler, clbit_probability_vector
from repro.sim import kernels
from repro.sim.statevector import StatevectorSimulator
from repro.utils.bits import (
    bit_array_to_indices,
    group_code_sums,
    index_to_bitstring,
    indices_to_bit_array,
)
from repro.utils.random import as_generator

# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def expand_operator(
    matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Embed a k-qubit operator into the full ``2**n``-dimensional space.

    Same convention as the kernels: the first qubit in ``qubits`` is the
    most significant bit of the operator's local index.  The O(4^n)
    reference of :func:`repro.sim.kernels.apply_gate`.
    """
    k = len(qubits)
    if matrix.shape != (1 << k, 1 << k):
        raise SimulationError("operator dimension does not match qubit count")
    dim = 1 << num_qubits
    columns = np.arange(dim, dtype=np.int64)
    # Local column index of every full column (gather the operator qubits).
    local_cols = np.zeros(dim, dtype=np.int64)
    touched = 0
    for j, q in enumerate(qubits):
        local_cols |= ((columns >> q) & 1) << (k - 1 - j)
        touched |= 1 << q
    # Full column with the operator qubits cleared; scattering a local row
    # index onto the qubit positions then yields the full row index.
    base = columns & ~touched
    full = np.zeros((dim, dim), dtype=complex)
    for row_local in range(1 << k):
        scattered = 0
        for j, q in enumerate(qubits):
            scattered |= ((row_local >> (k - 1 - j)) & 1) << q
        amps = matrix[row_local, local_cols]
        nonzero = np.flatnonzero(amps)
        if nonzero.size == 0:
            continue
        rows = base[nonzero] | scattered
        full[rows, columns[nonzero]] += amps[nonzero]
    return full


def readout_distribution(
    circuit, confusions: Dict[int, np.ndarray]
) -> Dict[str, float]:
    """Measured distribution of ``circuit`` under readout noise only.

    Evolves ``|0..0>`` through every gate embedded in the full space,
    sums basis-state probabilities into the classical register, then
    applies each measured qubit's ``2x2`` confusion matrix
    (``A[observed, actual]``, keyed by qubit) embedded over the register.
    The reference of the sampler's exact channel with gate noise off.
    """
    n = circuit.num_qubits
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for ins in circuit.instructions:
        if ins.is_gate:
            state = expand_operator(ins.gate.matrix(), ins.qubits, n) @ state
    meas_map = circuit.measurement_map
    k = len(meas_map)
    probs = np.zeros(1 << k)
    for index, prob in enumerate(np.abs(state) ** 2):
        clbits = sum(((index >> q) & 1) << c for q, c in meas_map.items())
        probs[clbits] += prob
    for qubit, clbit in meas_map.items():
        probs = expand_operator(confusions[qubit], (clbit,), k).real @ probs
    return {index_to_bitstring(i, k): float(p) for i, p in enumerate(probs)}


# ---------------------------------------------------------------------------
# Per-circuit noisy channel
# ---------------------------------------------------------------------------


def _measured_setup(executable):
    """(normalised clbit-order ideal distribution, physical qubits, k)."""
    meas_map = executable.logical.measurement_map
    ideal = clbit_probability_vector(
        executable.ideal_probabilities(), meas_map, executable.logical.num_qubits
    )
    return ideal / ideal.sum(), executable.measured_physical_qubits, len(meas_map)


def _sample_chunk(sampler, rng, shots, ideal, readout_rates, k, p_fail):
    """One chunk of noisy trials as (codes, counts)."""
    failures = rng.random(shots) < p_fail
    outcomes = rng.choice(len(ideal), size=shots, p=ideal)
    bits = indices_to_bit_array(outcomes, k)
    num_fail = int(failures.sum())
    if num_fail:
        flip_rate = sampler.noise_model.gate_failure_flip_rate
        bits[failures] ^= (rng.random((num_fail, k)) < flip_rate).astype(np.uint8)
    p01, p10 = readout_rates
    draws = rng.random(bits.shape)
    flip = np.where(bits == 0, draws < p01[None, :], draws < p10[None, :])
    bits = bits ^ flip.astype(np.uint8)
    return np.unique(bit_array_to_indices(bits), return_counts=True)


def run_codes(
    sampler: NoisySampler, executable, shots: int, rng=None
) -> CodeCounts:
    """Reference of :meth:`NoisySampler.run_codes`: chunk by chunk."""
    if shots <= 0:
        raise SimulationError("shots must be positive")
    rng = as_generator(rng) if rng is not None else sampler._rng
    ideal, physical_by_clbit, k = _measured_setup(executable)
    p_fail = sampler.noise_model.circuit_failure_probability(executable.physical)
    readout_rates = sampler.noise_model.readout_rates(physical_by_clbit, k)
    parts = []
    remaining = shots
    while remaining > 0:
        chunk = min(remaining, sampler.chunk_shots)
        parts.append(
            _sample_chunk(sampler, rng, chunk, ideal, readout_rates, k, p_fail)
        )
        remaining -= chunk
    if len(parts) == 1:
        codes, counts = parts[0]
    else:
        codes, counts = group_code_sums(
            np.concatenate([codes for codes, _ in parts]),
            np.concatenate([counts for _, counts in parts]),
        )
        counts = counts.astype(np.int64)
    return CodeCounts(codes, counts, k)


def exact_distribution(
    sampler: NoisySampler, executable
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Closed-form noisy distribution of one executable, unstacked."""
    ideal, physical_by_clbit, k = _measured_setup(executable)
    p_fail = sampler.noise_model.circuit_failure_probability(executable.physical)
    flip_rate = sampler.noise_model.gate_failure_flip_rate
    flip = np.array([[1.0 - flip_rate, flip_rate], [flip_rate, 1.0 - flip_rate]])
    corrupted = kernels.apply_confusions(ideal, [flip] * k)
    mixed = (1.0 - p_fail) * ideal + p_fail * corrupted
    confusions = sampler.noise_model.confusion_matrices(physical_by_clbit, k)
    noisy = kernels.apply_confusions(mixed, confusions)
    noisy = noisy / noisy.sum()
    codes = np.flatnonzero(noisy > 0).astype(np.int64)
    return codes, noisy[codes], k


def exact_group_distributions(
    sampler: NoisySampler, executables
) -> List[Tuple[np.ndarray, np.ndarray, int]]:
    """Reference of :meth:`NoisySampler.exact_group_distributions`."""
    return [exact_distribution(sampler, executable) for executable in executables]


# ---------------------------------------------------------------------------
# Per-circuit statevectors
# ---------------------------------------------------------------------------


def probabilities_stacked(
    simulator: StatevectorSimulator, circuits
) -> np.ndarray:
    """Reference of :meth:`StatevectorSimulator.probabilities_stacked`."""
    return np.stack([simulator.probabilities(circuit) for circuit in circuits])


def install(monkeypatch) -> None:
    """Run every sampler and statevector simulator on the oracle.

    Patches the stacked methods of :class:`NoisySampler` and
    :class:`StatevectorSimulator` through ``monkeypatch``, so a whole
    ``Session`` (or any backend) evaluates per circuit until the
    monkeypatch is undone.
    """
    monkeypatch.setattr(NoisySampler, "run_codes", run_codes)
    monkeypatch.setattr(
        NoisySampler, "exact_group_distributions", exact_group_distributions
    )
    monkeypatch.setattr(
        StatevectorSimulator, "probabilities_stacked", probabilities_stacked
    )

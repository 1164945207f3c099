"""Ideal (noise-free) statevector simulation.

The statevector engine computes exact amplitudes for circuits of up to
roughly 24 qubits, which comfortably covers the paper's largest benchmark
(Graycode-18).  It provides:

* :meth:`StatevectorSimulator.statevector` — the final state of the unitary
  part of a circuit;
* :meth:`StatevectorSimulator.ideal_distribution` — the exact outcome PMF
  over the circuit's *classical* bits, i.e. the noise-free reference
  distribution the paper uses for TVD/fidelity and to define correct
  answers;
* :meth:`StatevectorSimulator.probabilities_stacked` — one stacked
  ``(B, 2**n)`` contraction per gate position for a group of
  structure-sharing circuits (bit-for-bit equal, slice by slice, to the
  per-circuit path — see :mod:`repro.sim.kernels`).

The gate-application and marginalisation kernels live in
:mod:`repro.sim.kernels`.

State indexing convention: basis index ``i`` encodes qubit ``q`` as bit
``(i >> q) & 1`` — consistent with :mod:`repro.utils.bits`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import SimulationError
from repro.sim import kernels
from repro.sim.kernels import (
    check_qubit_cap,
    default_max_qubits,
    validate_max_qubits,
)
from repro.utils.bits import codes_to_strings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.pmf import PMF

__all__ = ["StatevectorSimulator"]


class StatevectorSimulator:
    """Exact statevector execution of the unitary part of a circuit.

    Args:
        max_qubits: constructor-validated width cap (default:
            :func:`repro.sim.kernels.default_max_qubits`, i.e. 24 or
            ``REPRO_MAX_QUBITS``).  Over-cap circuits raise a
            :class:`~repro.exceptions.SimulationError` that includes the
            estimated state memory.
    """

    def __init__(self, max_qubits: Optional[int] = None) -> None:
        self.max_qubits = (
            default_max_qubits()
            if max_qubits is None
            else validate_max_qubits(max_qubits)
        )

    # ------------------------------------------------------------------

    def _check(self, circuit: QuantumCircuit) -> None:
        check_qubit_cap(circuit.num_qubits, self.max_qubits)

    def statevector(self, circuit: QuantumCircuit) -> np.ndarray:
        """Return the final statevector, ignoring measurements and barriers."""
        self._check(circuit)
        n = circuit.num_qubits
        state = np.zeros(1 << n, dtype=np.complex128)
        state[0] = 1.0
        for ins in circuit.instructions:
            if not ins.is_gate:
                continue
            state = kernels.apply_gate(
                state,
                np.asarray(ins.gate.matrix(), dtype=np.complex128),
                ins.qubits,
                n,
            )
        return state

    def probabilities(self, circuit: QuantumCircuit) -> np.ndarray:
        """Exact probabilities over all ``2**n`` computational basis states."""
        amplitudes = self.statevector(circuit)
        probs = np.abs(amplitudes) ** 2
        total = probs.sum()
        if not np.isclose(total, 1.0, atol=1e-8):
            raise SimulationError(f"state norm drifted to {total}")
        return probs / total

    # ------------------------------------------------------------------
    # Stacked (batched) evolution
    # ------------------------------------------------------------------

    def statevectors_stacked(
        self, circuits: Sequence[QuantumCircuit]
    ) -> np.ndarray:
        """Final statevectors of structure-sharing circuits as one stack.

        All circuits must share :func:`repro.sim.kernels.structure_key`;
        each gate position contracts the whole ``(B, 2**n)`` stack at
        once.  Slice ``b`` is bit-for-bit :meth:`statevector` of
        ``circuits[b]``.
        """
        for circuit in circuits:
            self._check(circuit)
        return kernels.statevectors_stacked(circuits)

    def probabilities_stacked(
        self, circuits: Sequence[QuantumCircuit]
    ) -> np.ndarray:
        """Basis-state probabilities of a structure-sharing stack.

        ``(B, 2**n)``; row ``b`` is bit-for-bit :meth:`probabilities` of
        ``circuits[b]``.  A single-circuit stack rides the per-circuit
        path unchanged.
        """
        if len(circuits) == 1:
            return self.probabilities(circuits[0])[None, :]
        amplitudes = self.statevectors_stacked(circuits)
        probs = np.abs(amplitudes) ** 2
        totals = probs.sum(axis=1)
        for index, total in enumerate(totals):
            if not np.isclose(total, 1.0, atol=1e-8):
                raise SimulationError(f"state norm drifted to {total}")
        return probs / totals[:, None]

    # ------------------------------------------------------------------

    def ideal_pmf(
        self, circuit: QuantumCircuit, threshold: float = 1e-12
    ) -> "PMF":
        """Exact outcome distribution as an array-native :class:`PMF`.

        The int64-code spine of the data plane: the marginal probability
        vector is remapped from qubit order to clbit order as one batch of
        shift/or operations and handed to :meth:`PMF.from_codes` — no
        bitstring is ever materialised.  Entries below ``threshold`` are
        dropped (they are numerical noise for the structured states the
        benchmarks prepare).
        """
        from repro.core.pmf import PMF

        meas_map = circuit.measurement_map
        if not meas_map:
            raise SimulationError("circuit has no measurements")
        qubits = list(meas_map.keys())
        clbits = [meas_map[q] for q in qubits]
        if sorted(clbits) != list(range(len(clbits))):
            raise SimulationError(
                "measurement clbits must form a contiguous range 0..k-1"
            )
        probs = self.probabilities(circuit)
        keep_sorted = sorted(qubits)
        marg = kernels.marginal_probabilities(
            probs, keep_sorted, circuit.num_qubits
        )
        # Remap marginal bit j (qubit keep_sorted[j]) onto its clbit.
        qubit_to_margbit = {q: j for j, q in enumerate(keep_sorted)}
        indices = np.flatnonzero(marg > threshold)
        codes = np.zeros(indices.size, dtype=np.int64)
        for q, c in meas_map.items():
            codes |= ((indices >> qubit_to_margbit[q]) & 1) << c
        return PMF.from_codes(
            codes, marg[indices], len(keep_sorted), normalize=True
        )

    def ideal_distribution(
        self, circuit: QuantumCircuit, threshold: float = 1e-12
    ) -> Dict[str, float]:
        """Exact outcome PMF over the circuit's classical bits.

        String-keyed edge view of :meth:`ideal_pmf`: maps IBM-order
        bitstrings of length ``len(measured qubits)`` to probabilities.
        """
        return self.ideal_pmf(circuit, threshold).as_dict()

    def sample(
        self,
        circuit: QuantumCircuit,
        shots: int,
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[str, int]:
        """Sample ``shots`` noise-free outcomes from the ideal distribution.

        Draws ride the PMF's code/prob arrays directly; strings are
        rendered only for the returned counts dict.
        """
        from repro.utils.random import as_generator

        rng = as_generator(rng)
        pmf = self.ideal_pmf(circuit)
        draws = rng.multinomial(shots, pmf.probs / pmf.probs.sum())
        observed = np.flatnonzero(draws)
        keys = codes_to_strings(pmf.codes[observed], pmf.num_bits)
        return {k: int(c) for k, c in zip(keys, draws[observed])}

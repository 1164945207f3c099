"""Batched execution kernels: the contraction code of the execution spine.

This module is the single home of the reshape/moveaxis gate-application
kernel of :mod:`repro.sim.statevector` and the marginalisation and
readout-confusion kernels of :mod:`repro.noise.sampler`, on numpy.

State arguments accept arbitrary leading (batch) dimensions: a stacked
``(B, 2**n)`` state evolves B circuits as one contraction per gate
position.  The batched path is **bit-for-bit identical per slice** to
the single-circuit path: the contraction is ``np.matmul`` with a
broadcast/stacked operator, and numpy's stacked matmul applies the same
GEMM per slice as the 2-D call, so stacking circuits together can never
change any one circuit's amplitudes.  That invariant is what lets the
execution spine (:mod:`repro.runtime.backend`) stack coalesced batches
while staying bit-for-bit equal to the per-circuit reference kernels
kept in the test suite.

Dtype policy: probabilities are ``float64`` and amplitudes
``complex128`` (gate operators and confusion matrices are cast with
``np.asarray(..., dtype=...)``).  Mixed-precision execution is a
deliberate non-goal — the oracle-equality contract of the stacked path
is defined in double precision.
"""

from __future__ import annotations

import os
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "default_max_qubits",
    "validate_max_qubits",
    "check_qubit_cap",
    "state_memory_bytes",
    "apply_gate",
    "marginal_probabilities",
    "apply_confusions",
    "structure_key",
    "statevectors_stacked",
]

# ----------------------------------------------------------------------
# Qubit cap (statevector width)
# ----------------------------------------------------------------------

#: Default cap on statevector width.  ``2**24`` complex amplitudes is
#: 256 MiB — comfortably above the paper's largest benchmark
#: (Graycode-18) while keeping an accidental 30-qubit request from
#: taking the host down.  Override per process with ``REPRO_MAX_QUBITS``
#: or per simulator via the constructor.
DEFAULT_MAX_QUBITS = 24


def default_max_qubits() -> int:
    """The process-wide default qubit cap (``REPRO_MAX_QUBITS`` or 24)."""
    raw = os.environ.get("REPRO_MAX_QUBITS")
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise SimulationError(
            f"REPRO_MAX_QUBITS must be an integer, got {raw!r}"
        ) from exc
    return validate_max_qubits(value)


def validate_max_qubits(max_qubits: int) -> int:
    """Constructor validation of a simulator's qubit cap."""
    if not isinstance(max_qubits, int) or isinstance(max_qubits, bool):
        raise SimulationError(
            f"max_qubits must be an integer, got {max_qubits!r}"
        )
    if max_qubits < 1:
        raise SimulationError(
            f"max_qubits must be positive, got {max_qubits}"
        )
    return max_qubits


def state_memory_bytes(num_qubits: int) -> int:
    """Estimated memory of one complex128 statevector (``2**n`` amplitudes)."""
    return 16 * (1 << num_qubits)


def _format_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if value < 1024.0 or unit == "PiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} PiB"  # pragma: no cover - unreachable


def check_qubit_cap(num_qubits: int, max_qubits: int) -> None:
    """Raise a typed :class:`SimulationError` for an over-cap statevector.

    The error includes the estimated state memory, so an over-cap request
    in a log explains *why* it was refused.
    """
    if num_qubits <= max_qubits:
        return
    estimated = state_memory_bytes(num_qubits)
    raise SimulationError(
        f"{num_qubits}-qubit statevector exceeds the {max_qubits}-qubit limit "
        f"(estimated state memory {_format_bytes(estimated)}; raise "
        f"max_qubits or REPRO_MAX_QUBITS to override)"
    )


# ----------------------------------------------------------------------
# Gate-application kernels
# ----------------------------------------------------------------------


def apply_gate(
    states: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a k-qubit operator to one state or a stack of states.

    ``states`` has shape ``(..., 2**num_qubits)`` — any leading (batch)
    dimensions are carried through.  ``matrix`` is either one
    ``(2**k, 2**k)`` operator shared by every state in the stack or a
    ``(..., 2**k, 2**k)`` stack aligned with the leading dimensions
    (the bind-many case: same structure, different parameters).  The
    first qubit in ``qubits`` is the most significant bit of the
    operator's local index, exactly as in the historical per-circuit
    kernel — of which the unbatched call is a literal superset.
    """
    k = len(qubits)
    dim = 1 << k
    if tuple(matrix.shape[-2:]) != (dim, dim):
        raise SimulationError(
            f"matrix of shape {tuple(matrix.shape)} does not act on "
            f"{k} qubit(s)"
        )
    lead = tuple(states.shape[:-1])
    nl = len(lead)
    tensor = np.reshape(states, lead + (2,) * num_qubits)
    # Axis for qubit q is (num_qubits - 1 - q) past the batch dims,
    # because the first state axis is the most significant bit.
    axes = tuple(nl + num_qubits - 1 - q for q in qubits)
    front = tuple(range(nl, nl + k))
    tensor = np.moveaxis(tensor, axes, front)
    shaped = np.reshape(tensor, lead + (dim, -1))
    shaped = np.matmul(matrix, shaped)
    tensor = np.moveaxis(
        np.reshape(shaped, lead + (2,) * num_qubits), front, axes
    )
    return np.reshape(tensor, lead + (-1,))


def marginal_probabilities(
    probabilities: np.ndarray,
    keep_qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Marginalise ``(..., 2**n)`` probabilities onto ``keep_qubits``.

    The output indexes the kept qubits in ascending order: kept qubit
    ``keep_sorted[j]`` becomes bit ``j`` of the marginal index.  Leading
    batch dimensions are carried through; per-slice sums are bit-for-bit
    equal to the unbatched reduction.
    """
    keep_sorted = sorted(keep_qubits)
    lead = tuple(probabilities.shape[:-1])
    nl = len(lead)
    tensor = np.reshape(probabilities, lead + (2,) * num_qubits)
    keep_set = set(keep_sorted)
    drop_axes = tuple(
        nl + num_qubits - 1 - q
        for q in range(num_qubits)
        if q not in keep_set
    )
    marg = np.sum(tensor, axis=drop_axes) if drop_axes else tensor
    # Remaining axes are ordered most-significant-first by original qubit
    # index descending, which is exactly "bit j = j-th smallest kept qubit".
    return np.reshape(marg, lead + (-1,))


def apply_confusions(
    outcome_probs: np.ndarray,
    confusions: Sequence[np.ndarray],
) -> np.ndarray:
    """Apply per-clbit 2x2 confusion matrices to ``(..., 2**k)`` probs.

    ``confusions[c]`` acts on clbit ``c`` and is either one ``(2, 2)``
    column-stochastic matrix (``A[observed, actual]``) shared across the
    stack or a ``(..., 2, 2)`` stack aligned with the leading batch
    dimensions (stacked groups mix executables with different measured
    qubits, hence different readout channels).
    """
    k = len(confusions)
    lead = tuple(outcome_probs.shape[:-1])
    nl = len(lead)
    if tuple(outcome_probs.shape[nl:]) != (1 << k,):
        raise SimulationError(
            "distribution size does not match confusion count"
        )
    tensor = np.reshape(outcome_probs, lead + (2,) * k)
    for clbit, matrix in enumerate(confusions):
        matrix = np.asarray(matrix, dtype=np.float64)
        if tuple(matrix.shape[-2:]) != (2, 2):
            raise SimulationError("confusion matrices must be 2x2")
        axis = nl + k - 1 - clbit
        tensor = np.moveaxis(tensor, (axis,), (nl,))
        flat = np.matmul(matrix, np.reshape(tensor, lead + (2, -1)))
        tensor = np.moveaxis(
            np.reshape(flat, lead + (2,) * k), (nl,), (axis,)
        )
    return np.reshape(tensor, lead + (-1,))


# ----------------------------------------------------------------------
# Stacked statevector evolution
# ----------------------------------------------------------------------


def structure_key(circuit) -> Tuple:
    """The stacking key of a circuit's unitary body.

    Two circuits share a structure when their gate *skeletons* match —
    same gate names on the same qubits in the same order, parameters
    free to differ (the VarSaw bind-many shape).  Circuits sharing a key
    evolve as one stacked ``(B, 2**n)`` contraction per gate position.
    """
    return (
        circuit.num_qubits,
        tuple(
            (ins.gate.name, tuple(ins.qubits))
            for ins in circuit.instructions
            if ins.is_gate
        ),
    )


def statevectors_stacked(circuits: Sequence[object]) -> np.ndarray:
    """Final statevectors of structure-sharing circuits, one contraction
    per gate position.

    All circuits must share :func:`structure_key`.  Returns a
    ``(B, 2**n)`` complex128 stack whose slice ``b`` is bit-for-bit the
    single-circuit evolution of ``circuits[b]`` (gate positions where
    every circuit carries the same parameters contract with one broadcast
    operator; positions that differ stack the operators).
    """
    if not circuits:
        raise SimulationError("statevectors_stacked needs at least one circuit")
    key = structure_key(circuits[0])
    for circuit in circuits[1:]:
        if structure_key(circuit) != key:
            raise SimulationError(
                "stacked circuits must share a gate structure"
            )
    n = circuits[0].num_qubits
    batch = len(circuits)
    states = np.zeros((batch, 1 << n), dtype=np.complex128)
    states[:, 0] = 1.0
    gate_streams = [
        [ins for ins in circuit.instructions if ins.is_gate]
        for circuit in circuits
    ]
    for position, ins in enumerate(gate_streams[0]):
        gates = [stream[position].gate for stream in gate_streams]
        if all(gate == gates[0] for gate in gates[1:]):
            matrix = np.asarray(gates[0].matrix(), dtype=np.complex128)
        else:
            matrix = np.asarray(
                np.stack([gate.matrix() for gate in gates]),
                dtype=np.complex128,
            )
        states = apply_gate(states, matrix, ins.qubits, n)
    return states

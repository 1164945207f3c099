"""Expected Probability of Success (EPS) estimation.

EPS is the compile-time figure of merit used by Noise-Aware SABRE (paper
§4.1): the product, over every gate and measurement in a schedule, of that
operation's calibrated success probability.  JigSaw's CPM recompilation
maximises a *readout-emphasised* EPS so that the measured subset lands on
the strongest readout qubits (paper §4.2.2).
"""

from __future__ import annotations

from typing import Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.sabre import SWAP, RoutedSchedule, RoutingBody
from repro.devices.calibration import SWAP_CNOT_FACTOR
from repro.devices.device import Device
from repro.exceptions import CompilationError

__all__ = [
    "expected_probability_of_success",
    "gate_eps",
    "readout_eps",
    "readout_eps_targets",
    "schedule_gate_eps",
]


def gate_eps(physical_circuit: QuantumCircuit, device: Device) -> float:
    """Product of gate success probabilities over the physical schedule."""
    eps = 1.0
    cal = device.calibration
    for ins in physical_circuit.instructions:
        if not ins.is_gate:
            continue
        if len(ins.qubits) == 1:
            eps *= 1.0 - float(cal.gate_error_1q[ins.qubits[0]])
        elif len(ins.qubits) == 2:
            error = cal.two_qubit_error(*ins.qubits)
            if ins.gate.name == "swap":
                eps *= (1.0 - error) ** SWAP_CNOT_FACTOR
            else:
                eps *= 1.0 - error
        else:
            raise CompilationError("physical circuits allow at most 2-qubit gates")
    return eps


def schedule_gate_eps(
    schedule: RoutedSchedule, body: RoutingBody, device: Device
) -> float:
    """:func:`gate_eps` of a routed schedule, read off its arrays.

    The physical circuit a schedule materialises into runs its gates in
    schedule order, so this is the same product — the same factors in the
    same order, so the same bits — without building the circuit.  An
    inserted SWAP and a ``swap`` gate of the program both cost three
    CNOTs.
    """
    eps = 1.0
    cal = device.calibration
    errors_1q = cal.gate_error_1q
    for op, qubits in zip(schedule.ops, schedule.qubits):
        if len(qubits) == 1:
            eps *= 1.0 - float(errors_1q[qubits[0]])
        else:
            error = cal.two_qubit_error(*qubits)
            if op == SWAP or op in body.swap_gates:
                eps *= (1.0 - error) ** SWAP_CNOT_FACTOR
            else:
                eps *= 1.0 - error
    return eps


def readout_eps_targets(
    measured_physical_qubits: Sequence[int], device: Device
) -> float:
    """Readout EPS of measuring the given physical qubits simultaneously.

    The schedule-free core of :func:`readout_eps`: the readout factor
    depends only on *which* physical qubits are read together, which is
    what lets the pipeline score a retargeted measurement set without
    materialising the physical circuit.
    """
    num_simultaneous = len(measured_physical_qubits)
    eps = 1.0
    for qubit in measured_physical_qubits:
        eps *= 1.0 - device.calibration.effective_readout_error(
            qubit, num_simultaneous
        )
    return eps


def readout_eps(physical_circuit: QuantumCircuit, device: Device) -> float:
    """Product of measurement success probabilities (crosstalk-aware).

    The number of simultaneous measurements is the number of measure
    instructions in the schedule — all NISQ measurements fire together at
    the end of the circuit.
    """
    return readout_eps_targets(
        [ins.qubits[0] for ins in physical_circuit.measurements], device
    )


def expected_probability_of_success(
    physical_circuit: QuantumCircuit,
    device: Device,
    readout_emphasis: float = 1.0,
) -> float:
    """EPS of a physical schedule on ``device``.

    ``readout_emphasis`` raises the readout factor to a power, steering
    mapping choices toward readout quality; 1.0 gives the plain EPS used by
    the baseline compiler, larger values give the CPM-recompilation
    objective.
    """
    if readout_emphasis < 0:
        raise CompilationError("readout_emphasis must be non-negative")
    return gate_eps(physical_circuit, device) * (
        readout_eps(physical_circuit, device) ** readout_emphasis
    )

"""Shared fixtures: small deterministic devices and common circuits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.devices import Calibration, Device, ibmq_toronto, line_topology, ring_topology
from repro.metrics import probability_of_successful_trial


def counts(owner) -> dict:
    """The merged counters of an object's telemetry registry
    (``owner.metrics``): a cache, store, queue, backend, pipeline or
    runner."""
    return owner.metrics.snapshot()["counters"]


def gate_counts(circuit: QuantumCircuit) -> tuple:
    """(single-qubit, two-qubit) gate counts of ``circuit``."""
    arities = [len(ins.qubits) for ins in circuit.instructions if ins.is_gate]
    return arities.count(1), arities.count(2)


def ideal_success_mass(workload) -> float:
    """The mass a workload's ideal distribution puts on its correct
    outcomes."""
    return probability_of_successful_trial(
        workload.ideal_distribution(), workload.correct_outcomes
    )


def make_line_device(
    num_qubits: int = 6,
    readout: float = 0.03,
    crosstalk: float = 0.002,
    gate_1q: float = 0.0005,
    gate_2q: float = 0.01,
    name: str = "line",
) -> Device:
    """A line-topology device with uniform, hand-set calibration."""
    graph = line_topology(num_qubits)
    calibration = Calibration(
        p01=np.full(num_qubits, readout * 0.8),
        p10=np.full(num_qubits, readout * 1.2),
        crosstalk=np.full(num_qubits, crosstalk),
        gate_error_1q=np.full(num_qubits, gate_1q),
        gate_error_2q={
            (min(u, v), max(u, v)): gate_2q for u, v in graph.edges
        },
    )
    return Device(name, graph, calibration)


def make_varied_line_device(num_qubits: int = 8) -> Device:
    """A line device whose readout errors vary strongly across qubits."""
    graph = line_topology(num_qubits)
    # Alternate good/bad readout so recompilation has something to exploit.
    readout = np.array(
        [0.01 if q % 2 == 0 else 0.12 for q in range(num_qubits)]
    )
    calibration = Calibration(
        p01=readout * 0.9,
        p10=readout * 1.1,
        crosstalk=np.full(num_qubits, 0.003),
        gate_error_1q=np.full(num_qubits, 0.0005),
        gate_error_2q={
            (min(u, v), max(u, v)): 0.008 for u, v in graph.edges
        },
    )
    return Device("varied-line", graph, calibration)


@pytest.fixture
def line_device() -> Device:
    return make_line_device()

@pytest.fixture
def varied_device() -> Device:
    return make_varied_line_device()


@pytest.fixture(scope="session")
def toronto() -> Device:
    return ibmq_toronto()


@pytest.fixture
def ghz4() -> QuantumCircuit:
    qc = QuantumCircuit(4, name="ghz4")
    qc.h(0)
    qc.cx(0, 1)
    qc.cx(1, 2)
    qc.cx(2, 3)
    return qc.measure_all()


@pytest.fixture
def bell() -> QuantumCircuit:
    return QuantumCircuit(2, name="bell").h(0).cx(0, 1).measure_all()

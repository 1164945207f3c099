"""Composite noise model: gate depolarizing failures + readout channel.

The model factorises exactly the way the paper reasons about NISQ error:

* **Gate noise** — every physical gate fails independently with its
  calibrated depolarizing probability.  A trial in which any gate failed
  samples the ideal distribution and then flips each measured bit with
  probability :attr:`NoiseModel.gate_failure_flip_rate` — errors corrupt
  the outcome *locally* (a failed gate perturbs its forward lightcone)
  rather than uniformly, which is what keeps the observed outcome support
  far below ``2**n`` on real hardware (paper §7.1 / Table 6).  A trial in
  which no gate failed samples the ideal distribution unchanged.  The
  probability that a trial survives all gates is the gate part of EPS
  (paper §4.1).
* **Readout noise** — each measured qubit is then misread independently
  with its asymmetric rates ``p01``/``p10``, inflated by measurement
  crosstalk according to how many qubits are measured simultaneously
  (paper §3.1).  This is the error JigSaw attacks.

Both parts can be disabled independently, which the tests and ablation
benches use to isolate effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.devices.calibration import SWAP_CNOT_FACTOR, Calibration
from repro.devices.device import Device
from repro.exceptions import NoiseModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.compiler.pipeline import ExecutableCircuit

__all__ = ["NoiseModel"]


@dataclass
class NoiseModel:
    """Bundle of gate-failure and readout-error behaviour for one device."""

    calibration: Calibration
    gate_noise_enabled: bool = True
    readout_noise_enabled: bool = True
    #: SWAPs decompose into three CNOTs on hardware; their failure rate is
    #: compounded accordingly.
    swap_cnot_factor: int = SWAP_CNOT_FACTOR
    #: Probability that a gate failure flips each measured bit of the
    #: trial's outcome (0.5 would be a fully uniform scramble; real-device
    #: corruption is local, keeping the observed support small — §7.1).
    gate_failure_flip_rate: float = 0.18

    def __post_init__(self) -> None:
        if not 0.0 < self.gate_failure_flip_rate <= 0.5:
            raise NoiseModelError(
                "gate_failure_flip_rate must lie in (0, 0.5]"
            )

    @classmethod
    def from_device(
        cls,
        device: Device,
        gate_noise_enabled: bool = True,
        readout_noise_enabled: bool = True,
    ) -> "NoiseModel":
        """Build the noise model from a device's calibration data."""
        return cls(
            calibration=device.calibration,
            gate_noise_enabled=gate_noise_enabled,
            readout_noise_enabled=readout_noise_enabled,
        )

    # ------------------------------------------------------------------
    # Gate part
    # ------------------------------------------------------------------

    def gate_survival_probability(self, physical_circuit: QuantumCircuit) -> float:
        """Probability that no gate in the physical circuit fails."""
        if not self.gate_noise_enabled:
            return 1.0
        survival = 1.0
        cal = self.calibration
        for ins in physical_circuit.instructions:
            if not ins.is_gate:
                continue
            if len(ins.qubits) == 1:
                error = float(cal.gate_error_1q[ins.qubits[0]])
                survival *= 1.0 - error
            elif len(ins.qubits) == 2:
                error = cal.two_qubit_error(*ins.qubits)
                if ins.gate.name == "swap":
                    survival *= (1.0 - error) ** self.swap_cnot_factor
                else:
                    survival *= 1.0 - error
            else:
                raise NoiseModelError(
                    "physical circuits may only contain 1- and 2-qubit gates"
                )
        return survival

    def circuit_failure_probability(self, physical_circuit: QuantumCircuit) -> float:
        """Probability that at least one gate fails in a trial."""
        return 1.0 - self.gate_survival_probability(physical_circuit)

    def executable_failure_probability(
        self, executable: "ExecutableCircuit"
    ) -> float:
        """:meth:`circuit_failure_probability` of ``executable.physical``,
        taken once per routed body.

        The compiler takes the same product when it scores a routing —
        the device's calibration, a SWAP as ``SWAP_CNOT_FACTOR`` CNOTs,
        the same factors in the same order — and keeps it on the routed
        body every executable of that routing carries.  A model with gate
        noise on that calibration at that SWAP cost reads it from there,
        bit for bit the loop's value; any other model, and a hand-built
        executable, runs the loop.
        """
        routed = executable.routed
        if (
            routed is not None
            and self.gate_noise_enabled
            and self.swap_cnot_factor == SWAP_CNOT_FACTOR
            and self.calibration is executable.device.calibration
        ):
            return 1.0 - routed.gate_eps
        return self.circuit_failure_probability(executable.physical)

    # ------------------------------------------------------------------
    # Readout part
    # ------------------------------------------------------------------

    def readout_rates(
        self, physical_qubits: Sequence[int], num_simultaneous: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Effective (p01, p10) arrays for the given physical qubits."""
        if not self.readout_noise_enabled:
            zeros = np.zeros(len(physical_qubits))
            return zeros, zeros.copy()
        p01 = np.array(
            [
                self.calibration.effective_p01(q, num_simultaneous)
                for q in physical_qubits
            ]
        )
        p10 = np.array(
            [
                self.calibration.effective_p10(q, num_simultaneous)
                for q in physical_qubits
            ]
        )
        return p01, p10

    def confusion_matrices(
        self, physical_qubits: Sequence[int], num_simultaneous: int
    ) -> List[np.ndarray]:
        """Per-qubit 2x2 confusion matrices at the given readout width."""
        if not self.readout_noise_enabled:
            return [np.eye(2) for _ in physical_qubits]
        return [
            self.calibration.confusion_matrix(q, num_simultaneous)
            for q in physical_qubits
        ]

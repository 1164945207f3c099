"""The :class:`Workload` abstraction: a benchmark circuit plus its answers.

A workload bundles the program with everything the figure-of-merit metrics
need: the set of correct outcomes (for PST/IST), and optional extras such
as the MaxCut graph for QAOA's application-specific metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.core.pmf import PMF
from repro.exceptions import WorkloadError
from repro.sim.statevector import StatevectorSimulator

__all__ = ["Workload"]


@dataclass
class Workload:
    """A named benchmark with its correct outcomes.

    Attributes:
        name: display name, e.g. ``"GHZ-14"``.
        circuit: the program, ending in measurements.  Always fully
            bound — metrics and ideal distributions need numeric angles.
        correct_outcomes: distinct outcome bitstrings counted as success
            for PST/IST, each as wide as the measured register.
        metadata: workload-specific extras (QAOA graph, BV secret, ...).
        template_circuit: optional parameterized twin of ``circuit``
            (same structure, symbolic rotation angles).  Variational
            sweeps compile it once and rebind; ``circuit`` is this
            template bound at ``default_parameters``.
        default_parameters: the parameter point ``circuit`` is bound at,
            as ``{name: value}`` in the template's parameter order.
    """

    name: str
    circuit: QuantumCircuit
    correct_outcomes: Tuple[str, ...]
    metadata: Dict[str, Any] = field(default_factory=dict)
    template_circuit: Optional[QuantumCircuit] = None
    default_parameters: Optional[Dict[str, float]] = None
    _ideal: Optional[PMF] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.circuit.num_measurements:
            raise WorkloadError(f"workload {self.name} has no measurements")
        if self.circuit.is_parameterized:
            raise WorkloadError(
                f"workload {self.name} circuit has unbound parameters; "
                "put the symbolic program in template_circuit and bind "
                "circuit at default_parameters"
            )
        if self.template_circuit is not None:
            if not self.template_circuit.is_parameterized:
                raise WorkloadError(
                    f"workload {self.name} template_circuit has no "
                    "parameters"
                )
            if self.default_parameters is None:
                raise WorkloadError(
                    f"workload {self.name} has a template_circuit but no "
                    "default_parameters"
                )
        width = self.circuit.num_measurements
        for outcome in self.correct_outcomes:
            if (
                not isinstance(outcome, str)
                or len(outcome) != width
                or not set(outcome) <= {"0", "1"}
            ):
                raise WorkloadError(
                    f"correct outcome {outcome!r} is not a bitstring of the "
                    f"{width}-bit output of {self.name}"
                )
        if len(set(self.correct_outcomes)) != len(self.correct_outcomes):
            raise WorkloadError(
                f"workload {self.name} lists a correct outcome twice"
            )

    @property
    def num_qubits(self) -> int:
        """Total qubits in the program (including ancillas)."""
        return self.circuit.num_qubits

    @property
    def num_outcome_bits(self) -> int:
        """Width of the outcome bitstrings (number of measured qubits)."""
        return self.circuit.num_measurements

    def ideal_distribution(self) -> PMF:
        """Noise-free outcome distribution (cached)."""
        if self._ideal is None:
            self._ideal = StatevectorSimulator().ideal_pmf(self.circuit)
        return self._ideal

    @property
    def is_sweepable(self) -> bool:
        """Whether variational sweeps can rebind this workload."""
        return self.template_circuit is not None


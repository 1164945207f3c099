"""Plan templates: compile a parameterized circuit once, bind many times.

Variational optimizers (VQE, QAOA) evaluate the *same circuit structure*
at thousands of parameter points.  Every stage of the compiler that costs
anything — placement, SABRE routing, measurement retargeting, EPS
scoring, CPM selection — reads gate structure, topology, and calibration,
never rotation angles (the parameter-independence invariant; see
:func:`~repro.runtime.fingerprint.body_fingerprint`).  A
:class:`PlanTemplate` exploits this: the full JigSaw planning pipeline
runs once on the *symbolic* circuit, and :meth:`PlanTemplate.bind`
produces each iteration's :class:`~repro.runtime.plan.ExecutionPlan` by
pure parameter substitution over the compiled executables — bit-for-bit
identical to recompiling the bound circuit from scratch, at none of the
cost.

EPS re-scoring: expected-probability-of-success is *also* parameter
independent (gate EPS multiplies per-gate success rates looked up by
arity and qubit, readout EPS reads measured physical qubits), so the
selection made at compile time stays optimal for every binding.  The
template still re-scores EPS when the parameter vector drifts further
than ``eps_rescore_threshold`` from the last scored point — cheap
insurance that keeps the machinery honest if a future noise model gains
angle sensitivity — and counts epochs on the pipeline's registry
(``compiler.template_binds`` / ``compiler.template_eps_rescores``, read
through ``Session.telemetry_snapshot()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameter import Parameter
from repro.compiler.eps import gate_eps, readout_eps_targets
from repro.compiler.pipeline import CompilerPipeline, ExecutableCircuit
from repro.exceptions import CompilationError
from repro.runtime.fingerprint import circuit_fingerprint, structure_fingerprint
from repro.runtime.plan import ExecutionPlan, PlanLayer

__all__ = [
    "DEFAULT_EPS_RESCORE_THRESHOLD",
    "PlanTemplate",
    "ParameterValues",
    "normalize_values",
    "bind_executable",
]

#: Maximum per-parameter drift (radians) from the last scored point before
#: a bind re-runs EPS scoring over the template's executables.
DEFAULT_EPS_RESCORE_THRESHOLD = 0.5

#: One iteration's parameter assignment: a mapping by name/Parameter, or a
#: sequence aligned with the template's parameter order.
ParameterValues = Union[Mapping[object, float], Sequence[float]]


def normalize_values(
    parameters: Sequence[Parameter], values: ParameterValues
) -> Dict[str, float]:
    """Resolve one parameter assignment to a complete ``{name: float}`` map.

    Accepts a mapping keyed by :class:`Parameter` or name, or a bare
    sequence aligned with ``parameters``.  Every parameter must be
    assigned and no unknown names may appear — a sweep iteration is a
    full binding by definition.
    """
    if isinstance(values, Mapping):
        by_name: Dict[str, float] = {}
        for key, value in values.items():
            name = key.name if isinstance(key, Parameter) else str(key)
            by_name[name] = float(value)
    else:
        supplied = tuple(values)
        if len(supplied) != len(parameters):
            raise CompilationError(
                f"expected {len(parameters)} parameter value(s), "
                f"got {len(supplied)}"
            )
        by_name = {p.name: float(v) for p, v in zip(parameters, supplied)}
    names = {p.name for p in parameters}
    unknown = sorted(set(by_name) - names)
    if unknown:
        raise CompilationError(f"unknown parameter(s): {unknown}")
    missing = sorted(names - set(by_name))
    if missing:
        raise CompilationError(f"missing parameter(s): {missing}")
    return by_name


def _bind_circuit(
    circuit: QuantumCircuit,
    by_name: Mapping[str, float],
    memo: Optional[dict] = None,
) -> QuantumCircuit:
    """Substitute parameters into a circuit (compiled circuits included).

    Unlike :meth:`QuantumCircuit.bind` this never validates coverage:
    compiled physical schedules and CPM bodies legitimately reference a
    subset of the template's parameters.
    """
    return circuit.bind_resolved(by_name, memo)


def bind_executable(
    executable: ExecutableCircuit,
    by_name: Mapping[str, float],
    eps: Optional[float] = None,
    memo: Optional[dict] = None,
) -> ExecutableCircuit:
    """One compiled artifact at one parameter point.

    The logical and physical circuits get their angles substituted; the
    layouts, SWAP count, and (unless ``eps`` overrides it) the EPS score
    are reused verbatim — routing and scoring are parameter independent,
    so this equals recompiling the bound circuit through the pipeline.
    ``memo`` (one per parameter point) deduplicates the bound copies of
    instructions shared across a plan's executables — the global body
    and its CPM variants are the same routed body, so each shared
    rotation binds once per point instead of once per executable.
    """
    return ExecutableCircuit(
        logical=_bind_circuit(executable.logical, by_name, memo),
        physical=_bind_circuit(executable.physical, by_name, memo),
        initial_layout=executable.initial_layout.copy(),
        final_layout=executable.final_layout.copy(),
        device=executable.device,
        num_swaps=executable.num_swaps,
        eps=executable.eps if eps is None else eps,
    )


@dataclass
class PlanTemplate:
    """A JigSaw plan compiled from a symbolic circuit, ready to bind.

    Built by :meth:`from_plan` (typically via ``Session.plan_template``):
    the prototype plan's executables carry symbolic rotation angles;
    :meth:`bind` substitutes a parameter point into every executable and
    returns an ordinary, fully numeric :class:`ExecutionPlan`.

    Attributes:
        prototype: the plan compiled from the symbolic circuit.
        parameters: the circuit's parameters, first-appearance order —
            the positional convention for sequence-valued binds.
        structure_key: :func:`structure_fingerprint` of the symbolic
            circuit — the angle-free cache identity shared by the
            template and every binding.
        eps_rescore_threshold: max per-parameter drift (radians) from the
            last scored point before a bind re-runs EPS scoring.
        pipeline: the compiler pipeline whose registry counts template
            activity (``compiler.template_binds`` /
            ``compiler.template_eps_rescores``).
    """

    prototype: ExecutionPlan
    parameters: Tuple[Parameter, ...]
    structure_key: str
    eps_rescore_threshold: float = DEFAULT_EPS_RESCORE_THRESHOLD
    pipeline: Optional[CompilerPipeline] = None
    _last_scored: Optional[np.ndarray] = field(default=None, repr=False)

    @classmethod
    def from_plan(
        cls,
        plan: ExecutionPlan,
        pipeline: Optional[CompilerPipeline] = None,
        eps_rescore_threshold: float = DEFAULT_EPS_RESCORE_THRESHOLD,
    ) -> "PlanTemplate":
        """Wrap a plan compiled from a parameterized circuit."""
        parameters = plan.circuit.parameters
        if not parameters:
            raise CompilationError(
                "PlanTemplate needs a parameterized circuit; "
                "the plan's circuit has no unbound parameters"
            )
        if eps_rescore_threshold <= 0:
            raise CompilationError("eps_rescore_threshold must be positive")
        return cls(
            prototype=plan,
            parameters=parameters,
            structure_key=structure_fingerprint(plan.circuit),
            eps_rescore_threshold=eps_rescore_threshold,
            pipeline=pipeline,
        )

    # ------------------------------------------------------------------

    @property
    def scheme(self) -> str:
        return self.prototype.scheme

    def _bump(self, name: str, by: int = 1) -> None:
        if self.pipeline is not None:
            self.pipeline.metrics.counter("compiler." + name).add(by)

    def _should_rescore(self, point: np.ndarray) -> bool:
        if self._last_scored is None:
            return True
        return bool(
            np.max(np.abs(point - self._last_scored))
            > self.eps_rescore_threshold
        )

    def _rescore_eps(
        self, executable: ExecutableCircuit, by_name: Mapping[str, float]
    ) -> float:
        """Recompute EPS of one executable at one parameter point.

        Gate and readout EPS are angle independent, so this always
        reproduces the compile-time score — it exists so the re-score
        policy exercises real scoring machinery (and would surface any
        future angle-sensitive noise term), not as an optimisation.
        """
        physical = _bind_circuit(executable.physical, by_name)
        device = executable.device
        return gate_eps(physical, device) * readout_eps_targets(
            executable.measured_physical_qubits, device
        )

    # ------------------------------------------------------------------

    def bind(self, values: ParameterValues) -> ExecutionPlan:
        """One iteration's :class:`ExecutionPlan` at one parameter point.

        Pure substitution: the routed/retargeted/selected executables of
        the prototype get their angles bound; layouts, SWAP counts,
        subsets, and the trial split are reused.  Bit-for-bit identical
        to full-pipeline compilation of the bound circuit (the
        parameter-independence invariant, property-tested in
        ``tests/test_template.py``).
        """
        by_name = normalize_values(self.parameters, values)
        point = np.array(
            [by_name[p.name] for p in self.parameters], dtype=np.float64
        )
        rescore = self._should_rescore(point)
        self._bump("template_binds")
        if rescore:
            self._bump("template_eps_rescores")
            self._last_scored = point

        memo: dict = {}

        def _bind_exe(executable: ExecutableCircuit) -> ExecutableCircuit:
            eps = (
                self._rescore_eps(executable, by_name) if rescore else None
            )
            return bind_executable(executable, by_name, eps=eps, memo=memo)

        proto = self.prototype
        circuit = _bind_circuit(proto.circuit, by_name, memo)
        if circuit.is_parameterized:  # pragma: no cover - guarded above
            raise CompilationError("bind left unresolved parameters")
        layers = tuple(
            PlanLayer(
                subset_size=layer.subset_size,
                subsets=layer.subsets,
                executables=tuple(
                    _bind_exe(exe) for exe in layer.executables
                ),
            )
            for layer in proto.layers
        )
        return replace(
            proto,
            circuit=circuit,
            circuit_fingerprint=circuit_fingerprint(circuit),
            global_executable=_bind_exe(proto.global_executable),
            layers=layers,
        )

    def bind_many(
        self, parameter_sets: Sequence[ParameterValues]
    ) -> List[ExecutionPlan]:
        """Bind a whole sweep: one plan per parameter point, in order."""
        return [self.bind(values) for values in parameter_sets]

    def describe(self) -> str:
        """One-line human summary."""
        names = ",".join(p.name for p in self.parameters)
        return (
            f"{self.scheme} template [{names}] over "
            f"{self.prototype.num_cpms} CPMs "
            f"(structure {self.structure_key[:12]})"
        )

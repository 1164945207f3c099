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

EPS is *also* parameter independent (gate EPS multiplies per-gate
success rates looked up by arity and qubit, readout EPS reads measured
physical qubits), so the scores and the CPM selection made at compile
time hold for every binding: a bound executable keeps its prototype's
EPS.  Each bind counts ``compiler.template_binds`` on the pipeline's
registry (read through ``Session.telemetry_snapshot()``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.circuits.parameter import Parameter
from repro.compiler.pipeline import CompilerPipeline, ExecutableCircuit
from repro.exceptions import CompilationError
from repro.runtime.fingerprint import circuit_fingerprint, structure_fingerprint
from repro.runtime.plan import ExecutionPlan, PlanLayer

__all__ = [
    "PlanTemplate",
    "ParameterValues",
    "normalize_values",
    "bind_executable",
]

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


def bind_executable(
    executable: ExecutableCircuit,
    by_name: Mapping[str, float],
    memo: Optional[dict] = None,
) -> ExecutableCircuit:
    """One compiled artifact at one parameter point.

    The logical and physical circuits get their angles substituted by
    :meth:`~repro.circuits.circuit.QuantumCircuit.bind_resolved`, which
    never checks coverage (compiled schedules and CPM bodies reference a
    subset of the template's parameters); the layouts, SWAP count and EPS
    score are reused verbatim — routing and scoring are parameter
    independent, so this equals recompiling the bound circuit through the
    pipeline.  ``memo`` (one per parameter point) deduplicates the bound
    copies of instructions shared across a plan's executables — the
    global body and its CPM variants are the same routed body, so each
    shared rotation binds once per point instead of once per executable —
    and the bound body's unitary fingerprint.  The bound executable keeps
    its prototype's routed body: routing reads no angle.
    """
    bound = ExecutableCircuit(
        logical=executable.logical.bind_resolved(by_name, memo),
        physical=executable.physical.bind_resolved(by_name, memo),
        initial_layout=executable.initial_layout.copy(),
        final_layout=executable.final_layout.copy(),
        device=executable.device,
        num_swaps=executable.num_swaps,
        eps=executable.eps,
        routed=executable.routed,
    )
    if memo is not None:
        # Prototypes with one unitary body bind, at one point, to one
        # bound body: its fingerprint is hashed once per point.
        slot = ("unitary", executable.unitary_key)
        if slot in memo:
            bound._unitary_key = memo[slot]
        else:
            memo[slot] = bound.unitary_key
    return bound


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
        pipeline: the compiler pipeline whose registry counts binds
            (``compiler.template_binds``).
    """

    prototype: ExecutionPlan
    parameters: Tuple[Parameter, ...]
    structure_key: str
    pipeline: Optional[CompilerPipeline] = None

    @classmethod
    def from_plan(
        cls,
        plan: ExecutionPlan,
        pipeline: Optional[CompilerPipeline] = None,
    ) -> "PlanTemplate":
        """Wrap a plan compiled from a parameterized circuit."""
        parameters = plan.circuit.parameters
        if not parameters:
            raise CompilationError(
                "PlanTemplate needs a parameterized circuit; "
                "the plan's circuit has no unbound parameters"
            )
        return cls(
            prototype=plan,
            parameters=parameters,
            structure_key=structure_fingerprint(plan.circuit),
            pipeline=pipeline,
        )

    # ------------------------------------------------------------------

    @property
    def scheme(self) -> str:
        return self.prototype.scheme

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
        if self.pipeline is not None:
            self.pipeline.metrics.counter("compiler.template_binds").add(1)
        memo: dict = {}
        proto = self.prototype
        circuit = proto.circuit.bind_resolved(by_name, memo)
        if circuit.is_parameterized:  # pragma: no cover - guarded above
            raise CompilationError("bind left unresolved parameters")
        layers = tuple(
            PlanLayer(
                subset_size=layer.subset_size,
                subsets=layer.subsets,
                executables=tuple(
                    bind_executable(exe, by_name, memo)
                    for exe in layer.executables
                ),
            )
            for layer in proto.layers
        )
        return replace(
            proto,
            circuit=circuit,
            circuit_fingerprint=circuit_fingerprint(circuit),
            global_executable=bind_executable(
                proto.global_executable, by_name, memo
            ),
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

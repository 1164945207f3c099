"""Parameter sweeps: K iterations of one structure as one coalesced batch.

A variational optimizer evaluates the same parameterized program at K
parameter points.  :class:`ParameterSweep` turns that loop into the
cheapest correct shape the runtime offers:

* **compile once** — the symbolic circuit goes through the full pipeline
  a single time (via :class:`~repro.compiler.template.PlanTemplate` for
  the plan schemes; via one baseline/EDM compilation for the
  distribution schemes), so route calls are O(1) in K;
* **bind many** — each iteration's executables are pure parameter
  substitutions of the compiled prototypes;
* **execute stacked** — all K iterations' requests are submitted as
  *one* backend batch, so the batched execution spine evaluates the
  whole optimizer wave in ``(K, 2^n)`` stacks
  (``statevectors_stacked`` / ``exact_group_distributions``).

Determinism boundary: batch order is iteration order, and sampling
backends spawn one RNG child per batch position with a *cumulative*
spawn counter — so one coalesced sweep batch draws exactly the streams
that executing the K bound iterations one at a time (in the same
session, in the same order) would draw.  Sweep results are therefore
bit-for-bit equal to the unbatched per-iteration path, exact or
sampled.

The execution seam mirrors ``Session.prepare_scheme``:
:meth:`ParameterSweep.prepare` returns a :class:`PreparedSweep` whose
``requests`` can be executed elsewhere (the service tier's sweep jobs)
and finished identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameter import Parameter
from repro.compiler.template import (
    ParameterValues,
    PlanTemplate,
    bind_executable,
    normalize_values,
)
from repro.core.pmf import PMF
from repro.exceptions import ExperimentError
from repro.mitigation.combos import jigsaw_with_mbm, mitigate_executable_pmf
from repro.mitigation.mbm import MAX_MBM_QUBITS
from repro.runtime.backend import ExecutionRequest, LocalBackend
from repro.telemetry.trace import get_tracer
from repro.workloads.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.session import Session

__all__ = [
    "PLAN_SWEEP_SCHEMES",
    "ParameterSweep",
    "PreparedSweep",
    "SweepResult",
    "resolve_template_circuit",
]

#: Schemes swept through a :class:`PlanTemplate` (jigsaw_mbm plans as
#: plain jigsaw and post-processes with MBM).
PLAN_SWEEP_SCHEMES = ("jigsaw", "jigsaw_nr", "jigsaw_m", "jigsaw_mbm")


def resolve_template_circuit(
    workload: Union[Workload, QuantumCircuit]
) -> QuantumCircuit:
    """The symbolic circuit a sweep compiles once.

    A bare circuit must be parameterized; a :class:`Workload` must carry
    a ``template_circuit`` (the parameterized twin of its bound default
    circuit — see ``workloads.qaoa.qaoa_maxcut``).
    """
    if isinstance(workload, Workload):
        circuit = workload.template_circuit
        if circuit is None:
            raise ExperimentError(
                f"workload {workload.name!r} has no template_circuit; "
                "sweeps need a parameterized program"
            )
        return circuit
    if not workload.is_parameterized:
        raise ExperimentError(
            f"circuit {workload.name!r} has no unbound parameters; "
            "sweeps need a parameterized program"
        )
    return workload


@dataclass
class SweepResult:
    """All K iterations of one sweep, in submission order."""

    scheme: str
    parameter_names: Tuple[str, ...]
    parameter_sets: Tuple[Tuple[float, ...], ...]
    #: Per-iteration scheme results: :class:`PMF` for the distribution
    #: schemes, JigSaw(M)Result for the plan schemes.
    results: List[object]
    template: Optional[PlanTemplate] = None

    def __len__(self) -> int:
        return len(self.results)

    @property
    def output_pmfs(self) -> List[PMF]:
        """Each iteration's final output distribution."""
        return [
            r.output_pmf if hasattr(r, "output_pmf") else r
            for r in self.results
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (payloads, not bitstrings)."""
        from repro.core.payload import PAYLOAD_VERSION

        return {
            "scheme": self.scheme,
            "payload_version": PAYLOAD_VERSION,
            "parameter_names": list(self.parameter_names),
            "parameter_sets": [list(p) for p in self.parameter_sets],
            "num_iterations": len(self.results),
            "output_pmfs": [pmf.to_payload() for pmf in self.output_pmfs],
        }


@dataclass
class PreparedSweep:
    """A sweep split at the execution seam: one batch + a finisher.

    Executing ``requests`` on ``backend`` and handing the PMFs (request
    order) to ``finish`` is exactly what :meth:`ParameterSweep.run`
    does; the service tier executes the requests inside its merged
    cross-job batches instead and finishes identically.
    """

    scheme: str
    parameter_names: Tuple[str, ...]
    parameter_sets: Tuple[Tuple[float, ...], ...]
    backend: LocalBackend
    requests: List[ExecutionRequest]
    #: Request-index span of each iteration, in submission order.
    bounds: Tuple[Tuple[int, int], ...]
    finish: Callable[[List[PMF]], SweepResult] = field(repr=False)

    @property
    def num_iterations(self) -> int:
        return len(self.bounds)


class ParameterSweep:
    """Compile-once/bind-many sweep runner bound to one session.

    Args:
        session: the :class:`~repro.runtime.session.Session` whose
            device, seed streams, cache, and backend the sweep uses.
        workload: a :class:`Workload` with a ``template_circuit`` or a
            parameterized :class:`QuantumCircuit`.
        scheme: any of the session's seven schemes.
        total_trials: per-iteration trial budget (session default).
    """

    def __init__(
        self,
        session: "Session",
        workload: Union[Workload, QuantumCircuit],
        scheme: str = "jigsaw",
        total_trials: Optional[int] = None,
    ) -> None:
        from repro.runtime.session import SCHEME_NAMES

        if scheme not in SCHEME_NAMES:
            raise ExperimentError(
                f"unknown scheme {scheme!r}; known: {SCHEME_NAMES}"
            )
        self.session = session
        self.workload = workload
        self.scheme = scheme
        self.total_trials = total_trials or session.total_trials
        self.circuit = resolve_template_circuit(workload)
        self.parameters: Tuple[Parameter, ...] = self.circuit.parameters
        if not self.parameters:
            raise ExperimentError(
                "a sweep needs at least one circuit parameter"
            )

    @property
    def parameter_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    def _normalize_sets(
        self, parameter_sets: Sequence[ParameterValues]
    ) -> Tuple[Tuple[float, ...], ...]:
        if not len(parameter_sets):
            raise ExperimentError("a sweep needs at least one parameter set")
        normalized = []
        for values in parameter_sets:
            by_name = normalize_values(self.parameters, values)
            normalized.append(tuple(by_name[p.name] for p in self.parameters))
        return tuple(normalized)

    # ------------------------------------------------------------------
    # Scheme preparation
    # ------------------------------------------------------------------

    def _prepare_plan_scheme(
        self, parameter_sets: Tuple[Tuple[float, ...], ...]
    ) -> PreparedSweep:
        session = self.session
        plan_scheme = "jigsaw" if self.scheme == "jigsaw_mbm" else self.scheme
        template = session.plan_template(
            self.workload, scheme=plan_scheme, total_trials=self.total_trials
        )
        with get_tracer().span("sweep.bind", points=len(parameter_sets)):
            plans = template.bind_many(parameter_sets)
        runner = session.runner_for(plans[0])
        requests: List[ExecutionRequest] = []
        bounds: List[Tuple[int, int]] = []
        for plan in plans:
            start = len(requests)
            requests.extend(plan.requests())
            bounds.append((start, len(requests)))
        mbm = self.scheme == "jigsaw_mbm"

        def finish(pmfs: List[PMF]) -> SweepResult:
            results: List[object] = []
            for plan, (start, stop) in zip(plans, bounds):
                result = runner.reconstruct(plan, list(pmfs[start:stop]))
                if mbm:
                    result = jigsaw_with_mbm(result, session.noise_model)
                results.append(result)
            return self._result(parameter_sets, results, template)

        return PreparedSweep(
            scheme=self.scheme,
            parameter_names=self.parameter_names,
            parameter_sets=parameter_sets,
            backend=runner.backend,
            requests=requests,
            bounds=tuple(bounds),
            finish=finish,
        )

    def _prepare_global_scheme(
        self, parameter_sets: Tuple[Tuple[float, ...], ...]
    ) -> PreparedSweep:
        """baseline / mbm: one bound global executable per iteration."""
        session = self.session
        if (
            self.scheme == "mbm"
            and self.circuit.num_measurements > MAX_MBM_QUBITS
        ):
            raise ExperimentError(
                f"MBM limited to {MAX_MBM_QUBITS}-bit outputs"
            )
        prototype = session.global_executable(self.circuit)
        with get_tracer().span("sweep.bind", points=len(parameter_sets)):
            bound = [
                bind_executable(
                    prototype, dict(zip(self.parameter_names, point))
                )
                for point in parameter_sets
            ]
        requests = [
            ExecutionRequest(exe, self.total_trials, tag=f"sweep[{k}]")
            for k, exe in enumerate(bound)
        ]
        bounds = tuple((k, k + 1) for k in range(len(bound)))
        mbm = self.scheme == "mbm"

        def finish(pmfs: List[PMF]) -> SweepResult:
            if mbm:
                results: List[object] = [
                    mitigate_executable_pmf(pmf, exe, session.noise_model)
                    for pmf, exe in zip(pmfs, bound)
                ]
            else:
                results = list(pmfs)
            return self._result(parameter_sets, results)

        return PreparedSweep(
            scheme=self.scheme,
            parameter_names=self.parameter_names,
            parameter_sets=parameter_sets,
            backend=session.backend,
            requests=requests,
            bounds=bounds,
            finish=finish,
        )

    def _prepare_edm(
        self, parameter_sets: Tuple[Tuple[float, ...], ...]
    ) -> PreparedSweep:
        session = self.session
        prototypes = session.edm_ensemble(self.circuit)
        per_mapping = self.total_trials // len(prototypes)
        allocations = [per_mapping] * len(prototypes)
        allocations[0] += self.total_trials - per_mapping * len(prototypes)
        requests: List[ExecutionRequest] = []
        bounds: List[Tuple[int, int]] = []
        with get_tracer().span("sweep.bind", points=len(parameter_sets)):
            for k, point in enumerate(parameter_sets):
                by_name = dict(zip(self.parameter_names, point))
                start = len(requests)
                requests.extend(
                    ExecutionRequest(
                        bind_executable(exe, by_name),
                        trials,
                        tag=f"sweep[{k}]edm[{index}]",
                    )
                    for index, (exe, trials) in enumerate(
                        zip(prototypes, allocations)
                    )
                )
                bounds.append((start, len(requests)))

        def finish(pmfs: List[PMF]) -> SweepResult:
            results: List[object] = [
                session._pool_edm(pmfs[start:stop], allocations)
                for start, stop in bounds
            ]
            return self._result(parameter_sets, results)

        return PreparedSweep(
            scheme=self.scheme,
            parameter_names=self.parameter_names,
            parameter_sets=parameter_sets,
            backend=session.backend,
            requests=requests,
            bounds=tuple(bounds),
            finish=finish,
        )

    def _result(
        self,
        parameter_sets: Tuple[Tuple[float, ...], ...],
        results: List[object],
        template: Optional[PlanTemplate] = None,
    ) -> SweepResult:
        return SweepResult(
            scheme=self.scheme,
            parameter_names=self.parameter_names,
            parameter_sets=parameter_sets,
            results=results,
            template=template,
        )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def prepare(
        self, parameter_sets: Sequence[ParameterValues]
    ) -> PreparedSweep:
        """Compile/bind the whole sweep down to its execution seam."""
        normalized = self._normalize_sets(parameter_sets)
        with get_tracer().span(
            "sweep.prepare", scheme=self.scheme, points=len(normalized)
        ):
            if self.scheme in PLAN_SWEEP_SCHEMES:
                return self._prepare_plan_scheme(normalized)
            if self.scheme == "edm":
                return self._prepare_edm(normalized)
            return self._prepare_global_scheme(normalized)

    def run(self, parameter_sets: Sequence[ParameterValues]) -> SweepResult:
        """Execute all K iterations as one coalesced backend batch."""
        tracer = get_tracer()
        # A root span keeps prepare/execute/finish in one connected
        # trace even when no caller (service job, test harness) has an
        # active span to parent onto.
        with tracer.span(
            "sweep", scheme=self.scheme, points=len(parameter_sets)
        ):
            prepared = self.prepare(parameter_sets)
            with tracer.span(
                "sweep.execute",
                requests=len(prepared.requests),
                points=prepared.num_iterations,
            ):
                pmfs = prepared.backend.execute(prepared.requests)
            with tracer.span("sweep.finish"):
                return prepared.finish(pmfs)

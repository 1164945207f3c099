"""Sessions: device + backend + cache bound into one execution context.

A :class:`Session` is the front door of the runtime API.  It owns

* the **device** and its noise model,
* a **backend** (a :class:`~repro.runtime.backend.LocalBackend`, exact
  by default) that evaluates batches of compiled circuits,
* a **compilation cache** so that sweeps and scheme comparisons stop
  recompiling identical programs, and
* the **seed discipline** of the paper's methodology: one root seed
  fans out into per-scheme streams, and the baseline (global)
  compilation is shared across schemes so every comparison uses the
  same mapping (§5.2).

Typical use::

    from repro.runtime import Session
    from repro.devices import ibmq_toronto
    from repro.workloads import ghz

    session = Session(ibmq_toronto(), seed=0)
    plan = session.plan(ghz(8))            # compile once, inspect, cache
    result = session.run(plan)             # batch-execute + reconstruct
    pmf = session.run_scheme("jigsaw_m", ghz(8))   # or by scheme name

Every scheme run and every variational sweep splits at one execution
seam, a :class:`PreparedRun`: :meth:`Session.prepare_scheme` compiles
one program, :meth:`Session.prepare_sweep` compiles a parameterized
program once and binds it at K points, and both hand the compiled
artifacts to one recipe that builds the batch and its finisher.

Sweep determinism boundary: batch order is point order, and sampling
backends spawn one RNG child per batch position with a *cumulative*
spawn counter — so one coalesced sweep batch draws exactly the streams
that running the K points one at a time (in the same session, in the
same order) would draw.  Sweep results are therefore bit-for-bit equal
to the per-point path, exact or sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.edm import ensemble_of_diverse_mappings
from repro.compiler.pipeline import CompilerPipeline, ExecutableCircuit
from repro.compiler.template import (
    ParameterValues,
    PlanTemplate,
    bind_executable,
    normalize_values,
)
from repro.core.jigsaw import JigSaw, JigSawConfig, JigSawResult
from repro.core.multilayer import JigSawM, JigSawMConfig, JigSawMResult
from repro.core.pmf import PMF
from repro.devices.device import Device
from repro.exceptions import ExperimentError
from repro.metrics.distances import fidelity as fidelity_metric
from repro.metrics.qaoa_metrics import workload_arg
from repro.metrics.success import (
    inference_strength,
    probability_of_successful_trial,
)
from repro.mitigation.combos import jigsaw_with_mbm, mitigate_executable_pmf
from repro.mitigation.mbm import MAX_MBM_QUBITS
from repro.noise.model import NoiseModel
from repro.noise.sampler import NoisySampler
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import get_tracer
from repro.runtime.backend import ExecutionRequest, LocalBackend
from repro.runtime.cache import CompilationCache
from repro.runtime.fingerprint import circuit_fingerprint, structure_fingerprint
from repro.runtime.plan import ExecutionPlan
from repro.utils.random import SeedLike, as_generator, spawn
from repro.workloads.workload import Workload

__all__ = [
    "Session",
    "Metrics",
    "PreparedRun",
    "SweepResult",
    "SCHEME_NAMES",
    "resolve_template_circuit",
]

SCHEME_NAMES = (
    "baseline",
    "edm",
    "jigsaw",
    "jigsaw_nr",  # JigSaw without CPM recompilation (Fig. 11 ablation)
    "jigsaw_m",
    "mbm",
    "jigsaw_mbm",
)

#: Schemes that run an :class:`ExecutionPlan` (jigsaw_mbm plans as plain
#: jigsaw and post-processes with MBM).
PLAN_SCHEMES = ("jigsaw", "jigsaw_nr", "jigsaw_m", "jigsaw_mbm")


@dataclass(frozen=True)
class Metrics:
    """The paper's four figures of merit for one scheme run (§5.5)."""

    pst: float
    ist: float
    fidelity: float
    arg: Optional[float] = None  # QAOA workloads only

    def as_dict(self) -> Dict[str, Optional[float]]:
        """The metrics as a plain dict (for serialisation/rendering)."""
        return {
            "pst": self.pst,
            "ist": self.ist,
            "fidelity": self.fidelity,
            "arg": self.arg,
        }


def _output_pmf(result: object) -> PMF:
    """A scheme result's output distribution (a PMF is its own)."""
    return result.output_pmf if hasattr(result, "output_pmf") else result


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
    """All K points of one sweep, in submission order."""

    scheme: str
    parameter_names: Tuple[str, ...]
    parameter_sets: Tuple[Tuple[float, ...], ...]
    #: Per-point scheme results: :class:`PMF` for the distribution
    #: schemes, JigSaw(M)Result for the plan schemes.
    results: List[object]

    def __len__(self) -> int:
        return len(self.results)

    @property
    def output_pmfs(self) -> List[PMF]:
        """Each point's final output distribution."""
        return [_output_pmf(result) for result in self.results]

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
class PreparedRun:
    """A scheme run or a sweep split at the execution seam.

    Produced by :meth:`Session.prepare_scheme` and
    :meth:`Session.prepare_sweep`.  ``backend`` is the engine whose seed
    streams the requests draw from — executing ``requests`` on it and
    handing the PMFs (in request order) to ``finish`` is *exactly* what
    ``Session.run_scheme`` and ``Session.run_sweep`` do, so any caller
    that executes the requests elsewhere with the same per-request
    streams (the service layer's cross-job merged batches) reproduces the
    solo result bit for bit.
    """

    scheme: str
    backend: LocalBackend
    requests: List[ExecutionRequest]
    #: PMFs (request order) -> the result: a :class:`PMF` for the
    #: distribution schemes, a JigSaw(M)Result for the plan-based ones,
    #: a :class:`SweepResult` for a sweep.
    finish: Callable[[List[PMF]], object] = field(repr=False)

    def output_pmf(self, result: object) -> PMF:
        """Project a finished scheme result onto its output distribution."""
        return _output_pmf(result)


class Session:
    """One execution context: device + backend + cache + seed streams.

    Args:
        device: the target device.
        seed: root seed; fans out into per-scheme compilation streams and
            the sampler stream, so fixed-seed results are reproducible.
        total_trials: default trial budget for scheme runs and plans.
        exact: evaluate closed-form noisy distributions (deterministic,
            the infinite-trials limit) instead of sampling.
        compile_attempts / cpm_attempts: compiler candidate counts.
        ensemble_size: mappings in the EDM comparison scheme.
        cache: the plan cache; defaults to a fresh
            :class:`CompilationCache`.  Pass ``CompilationCache.disabled()``
            to compile every plan from scratch.
    """

    def __init__(
        self,
        device: Device,
        seed: SeedLike = 0,
        total_trials: int = 32_768,
        exact: bool = True,
        compile_attempts: int = 4,
        cpm_attempts: int = 3,
        ensemble_size: int = 4,
        cache: Optional[CompilationCache] = None,
    ) -> None:
        self.device = device
        self.total_trials = total_trials
        self.exact = exact
        self.compile_attempts = compile_attempts
        self.cpm_attempts = cpm_attempts
        self.ensemble_size = ensemble_size
        #: The session's unified telemetry registry: the session backend
        #: and the session pipeline record straight into it; each
        #: runner's registry and the (possibly shared) cache's are
        #: attached, so :meth:`telemetry_snapshot` is one tree.
        self.metrics = MetricsRegistry()
        self._rng = as_generator(seed)
        (
            self._baseline_seed,
            self._edm_seed,
            self._jigsaw_seed,
            self._jigsaw_nr_seed,
            self._jigsawm_seed,
            self._sampler_seed,
        ) = spawn(self._rng, 6)
        self.noise_model = NoiseModel.from_device(device)
        self.sampler = NoisySampler(self.noise_model, seed=self._sampler_seed)
        #: Local simulation in the session's mode; the baseline, MBM and
        #: EDM schemes execute here, the JigSaw family on its runner's.
        self.backend = LocalBackend(
            self.sampler, exact=self.exact, metrics=self.metrics
        )
        self.cache = CompilationCache() if cache is None else cache
        self._cache_salt = f"session:{seed!r}"
        # Session-level staged compiler pipeline, bound to the session
        # cache: the baseline compilation, EDM mappings, and every JigSaw
        # runner (they receive the same cache) share one routed-body store,
        # so a (body, layout) pair is routed at most once per session.
        # The pipeline attaches the cache's registry to the session's.
        self.compile_pipeline = CompilerPipeline(
            device, cache=self.cache, metrics=self.metrics
        )
        # The shared baseline mapping per program (methodology, §5.2: the
        # global mode "is identical to the baseline policy").  Keyed by
        # circuit content, not workload name, and always on — it is a
        # correctness requirement of scheme comparisons, not a knob.
        self._global_executables: Dict[str, ExecutableCircuit] = {}
        # One runner per scheme variant: plan(), run(), and run_scheme()
        # must draw from the same per-scheme RNG stream, or a plan+run
        # pair would diverge from run_scheme in sampled mode.
        self._runners: Dict[object, JigSaw] = {}
        # Compile-once/bind-many state for variational sweeps: plan
        # templates keyed by (scheme, structure, content, budget, global
        # source) and EDM ensembles keyed by circuit content.
        self._templates: Dict[tuple, PlanTemplate] = {}
        self._edm_ensembles: Dict[str, List[ExecutableCircuit]] = {}

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------

    def global_executable(
        self, workload: Union[Workload, QuantumCircuit]
    ) -> ExecutableCircuit:
        """The baseline (Noise-Aware SABRE) compilation, shared per program.

        Accepts a workload or a bare circuit (sweeps compile *symbolic*
        template circuits through the same baseline stream).
        """
        circuit = workload.circuit if isinstance(workload, Workload) else workload
        key = circuit_fingerprint(circuit)
        if key not in self._global_executables:
            executable = self.compile_pipeline.compile(
                circuit,
                seed=self._baseline_seed,
                attempts=self.compile_attempts,
            )
            self._global_executables[key] = executable
        return self._global_executables[key]

    def _edm_mappings(self, circuit: QuantumCircuit) -> List[ExecutableCircuit]:
        """A fresh EDM mapping ensemble, compiled on the EDM stream."""
        return ensemble_of_diverse_mappings(
            circuit,
            self.compile_pipeline,
            ensemble_size=self.ensemble_size,
            attempts=self.compile_attempts,
            seed=self._edm_seed,
        )

    def edm_ensemble(
        self, circuit: QuantumCircuit
    ) -> List[ExecutableCircuit]:
        """The EDM mapping ensemble for ``circuit``, compiled once per
        content key.

        Used by sweeps: a K-point EDM sweep compiles the symbolic ensemble
        a single time and binds it per point.  (``prepare_scheme("edm",
        ...)`` deliberately compiles a fresh ensemble per call — caching
        would shift the EDM seed stream of repeated solo runs.)
        """
        key = circuit_fingerprint(circuit)
        if key not in self._edm_ensembles:
            self._edm_ensembles[key] = self._edm_mappings(circuit)
        return self._edm_ensembles[key]

    def _jigsaw_config(self, recompile: bool) -> JigSawConfig:
        return JigSawConfig(
            recompile_cpms=recompile,
            compile_attempts=self.compile_attempts,
            cpm_attempts=self.cpm_attempts,
            exact=self.exact,
        )

    def _jigsawm_config(self) -> JigSawMConfig:
        return JigSawMConfig(
            recompile_cpms=True,
            compile_attempts=self.compile_attempts,
            cpm_attempts=self.cpm_attempts,
            exact=self.exact,
        )

    def _jigsaw_runner(self, recompile: bool = True) -> JigSaw:
        key = ("jigsaw", recompile)
        if key not in self._runners:
            seed = self._jigsaw_seed if recompile else self._jigsaw_nr_seed
            self._runners[key] = JigSaw(
                self.device,
                self._jigsaw_config(recompile),
                seed=seed,
                cache=self.cache,
                cache_salt=self._cache_salt,
            )
            self.metrics.attach(self._runners[key].metrics)
        return self._runners[key]

    def _jigsawm_runner(self) -> JigSawM:
        if "jigsaw_m" not in self._runners:
            self._runners["jigsaw_m"] = JigSawM(
                self.device,
                self._jigsawm_config(),
                seed=self._jigsawm_seed,
                cache=self.cache,
                cache_salt=self._cache_salt,
            )
            self.metrics.attach(self._runners["jigsaw_m"].metrics)
        runner: JigSawM = self._runners["jigsaw_m"]  # type: ignore[assignment]
        return runner

    # ------------------------------------------------------------------
    # Plan-level API
    # ------------------------------------------------------------------

    def _plan(
        self,
        scheme: str,
        circuit: QuantumCircuit,
        total_trials: Optional[int],
        session_global: bool,
    ) -> ExecutionPlan:
        """Plan ``circuit`` on the runner of ``scheme``.

        With ``session_global`` the global mapping is the session's shared
        baseline compilation (every scheme compares on one mapping);
        without it the runner compiles its own.
        """
        if scheme == "jigsaw_m":
            runner: JigSaw = self._jigsawm_runner()
        elif scheme in {"jigsaw", "jigsaw_nr"}:
            runner = self._jigsaw_runner(recompile=scheme == "jigsaw")
        else:
            raise ExperimentError(
                f"cannot plan scheme {scheme!r}; planable: "
                "('jigsaw', 'jigsaw_nr', 'jigsaw_m')"
            )
        return runner.plan(
            circuit,
            total_trials=total_trials or self.total_trials,
            global_executable=(
                self.global_executable(circuit) if session_global else None
            ),
        )

    def plan(
        self,
        workload: Union[Workload, QuantumCircuit],
        scheme: str = "jigsaw",
        total_trials: Optional[int] = None,
    ) -> ExecutionPlan:
        """Plan (and cache) a JigSaw or JigSaw-M run without executing it.

        A :class:`Workload` compiles its global through the session
        baseline stream, a bare circuit lets the scheme runner compile it.
        """
        is_workload = isinstance(workload, Workload)
        circuit = workload.circuit if is_workload else workload
        return self._plan(scheme, circuit, total_trials, is_workload)

    def runner_for(self, plan: ExecutionPlan) -> JigSaw:
        """The scheme runner that executes ``plan`` in this session.

        Public so callers that split execution from reconstruction (the
        service layer's cross-job merged batches) reach the exact runner
        — and therefore the exact seed streams — that :meth:`run` uses.
        """
        if plan.scheme == "jigsaw_m":
            return self._jigsawm_runner()
        recompile = bool(getattr(plan.config, "recompile_cpms", True))
        return self._jigsaw_runner(recompile=recompile)

    def run(self, plan: ExecutionPlan) -> Union[JigSawResult, JigSawMResult]:
        """Batch-execute a plan on this session's backend and reconstruct."""
        return self.runner_for(plan).execute(plan)

    def plan_template(
        self,
        workload: Union[Workload, QuantumCircuit],
        scheme: str = "jigsaw",
        total_trials: Optional[int] = None,
    ) -> PlanTemplate:
        """Compile a parameterized program into a reusable plan template.

        The full pipeline runs once on the *symbolic* circuit (every
        compile stage is parameter independent); ``template.bind(p)``
        then yields each point's :class:`ExecutionPlan` by pure
        substitution.  Templates are cached per (scheme, structure,
        content, budget, global source), so repeated sweeps of one
        program share one compilation.

        Mirrors :meth:`plan`'s seed discipline: a :class:`Workload`
        compiles its global through the session baseline stream, a bare
        circuit lets the scheme runner compile it — two different
        mappings, so the key records which one the template holds.
        """
        circuit = resolve_template_circuit(workload)
        trials = total_trials or self.total_trials
        session_global = isinstance(workload, Workload)
        key = (
            scheme,
            structure_fingerprint(circuit),
            circuit_fingerprint(circuit),
            trials,
            "session-global" if session_global else "auto-global",
        )
        if key not in self._templates:
            plan = self._plan(scheme, circuit, trials, session_global)
            self._templates[key] = PlanTemplate.from_plan(
                plan, self.runner_for(plan).pipeline
            )
        return self._templates[key]

    # ------------------------------------------------------------------
    # Schemes and sweeps: compile, then one recipe to the execution seam
    # ------------------------------------------------------------------

    @staticmethod
    def _check_scheme(scheme: str, circuit: QuantumCircuit) -> None:
        """Refuse an unknown scheme, or MBM on an over-wide output, before
        anything compiles (a compile would advance a seed stream)."""
        if scheme not in SCHEME_NAMES:
            raise ExperimentError(
                f"unknown scheme {scheme!r}; known: {SCHEME_NAMES}"
            )
        if scheme == "mbm" and circuit.num_measurements > MAX_MBM_QUBITS:
            raise ExperimentError(
                f"MBM limited to {MAX_MBM_QUBITS}-bit outputs"
            )

    def _recipe(
        self, scheme: str, artifact: object, total_trials: int
    ) -> Tuple[LocalBackend, List[ExecutionRequest], Callable]:
        """(backend, requests, finisher) of one program compiled for
        ``scheme``.

        ``artifact`` is an :class:`ExecutableCircuit` (baseline, mbm), an
        EDM ensemble (a list of them) or an :class:`ExecutionPlan` (the
        JigSaw family); the finisher maps the requests' PMFs to the
        scheme result.
        """
        if scheme in PLAN_SCHEMES:
            runner = self.runner_for(artifact)
            if scheme == "jigsaw_mbm":
                finish = lambda pmfs: jigsaw_with_mbm(  # noqa: E731
                    runner.reconstruct(artifact, pmfs), self.noise_model
                )
            else:
                finish = lambda pmfs: runner.reconstruct(artifact, pmfs)  # noqa: E731
            return runner.backend, artifact.requests(), finish
        if scheme == "edm":
            per_mapping = total_trials // len(artifact)
            allocations = [per_mapping] * len(artifact)
            # Fold the integer-division remainder into the first mapping
            # so the whole budget is spent.
            allocations[0] += total_trials - per_mapping * len(artifact)
            requests = [
                ExecutionRequest(executable, trials, tag=f"edm[{index}]")
                for index, (executable, trials) in enumerate(
                    zip(artifact, allocations)
                )
            ]
            return (
                self.backend,
                requests,
                lambda pmfs: self._pool_edm(pmfs, allocations),
            )
        if scheme == "mbm":
            finish = lambda pmfs: mitigate_executable_pmf(  # noqa: E731
                pmfs[0], artifact, self.noise_model
            )
        else:
            finish = lambda pmfs: pmfs[0]  # noqa: E731
        return self.backend, [ExecutionRequest(artifact, total_trials)], finish

    def _prepare(
        self,
        scheme: str,
        artifacts: Sequence[object],
        total_trials: int,
        collect: Callable[[List[object]], object],
    ) -> PreparedRun:
        """One batch over compiled programs, in order: the requests of
        each artifact's :meth:`_recipe`, and a finisher that hands the
        per-artifact results to ``collect``."""
        recipes = [
            self._recipe(scheme, artifact, total_trials)
            for artifact in artifacts
        ]
        requests = [request for _, part, _ in recipes for request in part]

        def finish(pmfs: List[PMF]) -> object:
            results: List[object] = []
            start = 0
            for _, part, finish_one in recipes:
                results.append(finish_one(list(pmfs[start:start + len(part)])))
                start += len(part)
            return collect(results)

        return PreparedRun(
            scheme=scheme,
            backend=recipes[0][0],
            requests=requests,
            finish=finish,
        )

    def prepare_scheme(self, scheme: str, workload: Workload) -> PreparedRun:
        """Compile a scheme run down to its execution seam.

        Everything *before* the backend call happens here (baseline/EDM
        compilation, JigSaw planning through the cache); everything
        *after* it is captured in the returned ``finish`` callback.  The
        ``run_*`` methods execute the requests on the prepared backend
        and finish — the service layer instead splices many prepared
        runs into one merged batch (spawning each one's seed streams from
        its own backend), which is why the two paths cannot drift.
        """
        circuit = workload.circuit if isinstance(workload, Workload) else workload
        self._check_scheme(scheme, circuit)
        if scheme in PLAN_SCHEMES:
            artifact: object = self.plan(
                workload, scheme="jigsaw" if scheme == "jigsaw_mbm" else scheme
            )
        elif scheme == "edm":
            artifact = self._edm_mappings(circuit)
        else:
            artifact = self.global_executable(workload)
        return self._prepare(
            scheme, [artifact], self.total_trials, lambda results: results[0]
        )

    def prepare_sweep(
        self,
        scheme: str,
        workload: Union[Workload, QuantumCircuit],
        parameter_sets: Sequence[ParameterValues],
        total_trials: Optional[int] = None,
    ) -> PreparedRun:
        """Compile once, bind every point, down to one execution seam.

        The symbolic circuit compiles once (a :class:`PlanTemplate` for
        the JigSaw family, the shared baseline executable or the cached
        EDM ensemble otherwise, so route calls are O(1) in K) and each
        point binds it by substitution.  The K points' requests form one
        batch in point order; ``finish`` returns a :class:`SweepResult`.
        """
        circuit = resolve_template_circuit(workload)
        self._check_scheme(scheme, circuit)
        if not len(parameter_sets):
            raise ExperimentError("a sweep needs at least one parameter set")
        parameters = circuit.parameters
        names = tuple(p.name for p in parameters)
        bindings = [
            normalize_values(parameters, values) for values in parameter_sets
        ]
        points = tuple(
            tuple(by_name[name] for name in names) for by_name in bindings
        )
        trials = total_trials or self.total_trials
        tracer = get_tracer()
        with tracer.span("sweep.prepare", scheme=scheme, points=len(points)):
            if scheme in PLAN_SCHEMES:
                template = self.plan_template(
                    workload,
                    scheme="jigsaw" if scheme == "jigsaw_mbm" else scheme,
                    total_trials=trials,
                )
                with tracer.span("sweep.bind", points=len(points)):
                    artifacts: List[object] = template.bind_many(points)
            elif scheme == "edm":
                ensemble = self.edm_ensemble(circuit)
                with tracer.span("sweep.bind", points=len(points)):
                    artifacts = [
                        [bind_executable(exe, by_name) for exe in ensemble]
                        for by_name in bindings
                    ]
            else:
                prototype = self.global_executable(circuit)
                with tracer.span("sweep.bind", points=len(points)):
                    artifacts = [
                        bind_executable(prototype, by_name)
                        for by_name in bindings
                    ]
            return self._prepare(
                scheme,
                artifacts,
                trials,
                lambda results: SweepResult(scheme, names, points, results),
            )

    def run_sweep(
        self,
        scheme: str,
        workload: Union[Workload, QuantumCircuit],
        parameter_sets: Sequence[ParameterValues],
        total_trials: Optional[int] = None,
    ) -> SweepResult:
        """Run all K parameter points as one coalesced stacked batch.

        Compiles once (route calls O(1) in K), binds per point, and
        submits every bound instance in a single backend batch so the
        stacked kernels evaluate the whole wave in ``(K, 2^n)`` stacks.
        Bit-for-bit equal to running the points one at a time.
        """
        tracer = get_tracer()
        # A root span keeps prepare/execute/finish in one connected
        # trace even when no caller (service job, test harness) has an
        # active span to parent onto.
        with tracer.span("sweep", scheme=scheme, points=len(parameter_sets)):
            prepared = self.prepare_sweep(
                scheme, workload, parameter_sets, total_trials
            )
            with tracer.span(
                "sweep.execute",
                requests=len(prepared.requests),
                points=len(parameter_sets),
            ):
                pmfs = prepared.backend.execute(prepared.requests)
            with tracer.span("sweep.finish"):
                return prepared.finish(pmfs)

    @staticmethod
    def _pool_edm(pmfs: Sequence[PMF], allocations: Sequence[int]) -> PMF:
        """Merge EDM mapping histograms, weighted by trial allocation.

        Merging histograms (§5.3) means pooling *counts*, so each
        mapping's normalized PMF is weighted by its trial allocation —
        the first mapping carries the folded remainder and weighs
        proportionally more, not equal to its starved peers.  The merge
        is one group-sum over the pooled code supports; PMF.from_codes
        collapses the duplicate codes.
        """
        total = sum(allocations)
        pooled_codes = np.concatenate([pmf.codes for pmf in pmfs])
        pooled_mass = np.concatenate(
            [
                pmf.probs * (trials / total)
                for pmf, trials in zip(pmfs, allocations)
            ]
        )
        return PMF.from_codes(
            pooled_codes, pooled_mass, pmfs[0].num_bits, normalize=True
        )

    def _run_prepared(self, prepared: PreparedRun) -> object:
        """Execute a prepared run on its own backend and finish it."""
        return prepared.finish(prepared.backend.execute(prepared.requests))

    def run_baseline(self, workload: Workload) -> PMF:
        """All trials on the noise-aware mapping, all qubits measured."""
        return self._run_prepared(self.prepare_scheme("baseline", workload))

    def run_edm(self, workload: Workload) -> PMF:
        """Ensemble of Diverse Mappings: merge histograms of 4 mappings."""
        return self._run_prepared(self.prepare_scheme("edm", workload))

    def run_jigsaw(
        self, workload: Workload, recompile: bool = True
    ) -> JigSawResult:
        """JigSaw with (default) or without CPM recompilation."""
        scheme = "jigsaw" if recompile else "jigsaw_nr"
        return self._run_prepared(self.prepare_scheme(scheme, workload))

    def run_jigsaw_m(self, workload: Workload) -> JigSawMResult:
        """Multi-layer JigSaw (subset sizes 2..5)."""
        return self._run_prepared(self.prepare_scheme("jigsaw_m", workload))

    def run_mbm(self, workload: Workload) -> PMF:
        """IBM matrix-based mitigation applied to the baseline output."""
        return self._run_prepared(self.prepare_scheme("mbm", workload))

    def run_scheme(self, scheme: str, workload: Workload) -> PMF:
        """Dispatch by scheme name; returns the final output PMF."""
        prepared = self.prepare_scheme(scheme, workload)
        return prepared.output_pmf(self._run_prepared(prepared))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, workload: Workload, pmf: PMF) -> Metrics:
        """All §5.5 figures of merit of a scheme's output distribution."""
        arg = None
        if "max_cut" in workload.metadata:
            arg = workload_arg(workload, pmf)
        return Metrics(
            pst=probability_of_successful_trial(pmf, workload.correct_outcomes),
            ist=inference_strength(pmf, workload.correct_outcomes),
            fidelity=fidelity_metric(workload.ideal_distribution(), pmf),
            arg=arg,
        )

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release nothing: a session holds no pool, thread or file.

        :meth:`__exit__` calls it, so the ``with Session(...) as s:``
        form works; the session stays usable afterwards.
        """

    def __enter__(self) -> "Session":
        """Sessions are context managers: ``with Session(...) as s: ...``.

        ``__exit__`` delegates to :meth:`close`; the session stays usable
        afterwards.
        """
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def telemetry_snapshot(self) -> dict:
        """Every counter and histogram of the session, merged.

        Compiler counters (session pipeline + every runner's,
        ``compiler.*``), backend work counters (``backend.*`` — one
        ``channel_evals`` per noisy-channel evaluation, the quantity the
        paper's cost model counts) and the shared cache's hit/miss
        accounting (``cache.*``), under their dotted names.
        """
        return self.metrics.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(device={self.device.name!r}, "
            f"backend={self.backend.name!r}, exact={self.exact})"
        )

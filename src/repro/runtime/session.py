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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.edm import ensemble_of_diverse_mappings
from repro.compiler.pipeline import CompilerPipeline, ExecutableCircuit
from repro.compiler.template import ParameterValues, PlanTemplate
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
from repro.runtime.backend import ExecutionRequest, LocalBackend
from repro.runtime.cache import CompilationCache
from repro.runtime.fingerprint import circuit_fingerprint, structure_fingerprint
from repro.runtime.plan import ExecutionPlan
from repro.runtime.sweep import (
    ParameterSweep,
    PreparedSweep,
    SweepResult,
    resolve_template_circuit,
)
from repro.utils.random import SeedLike, as_generator, spawn
from repro.workloads.workload import Workload

__all__ = [
    "Session",
    "Metrics",
    "PreparedSchemeRun",
    "ParameterSweep",
    "PreparedSweep",
    "SweepResult",
    "SCHEME_NAMES",
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


@dataclass
class PreparedSchemeRun:
    """A scheme run split at the execution seam: requests + a finisher.

    Produced by :meth:`Session.prepare_scheme`.  ``backend`` is the
    engine whose seed streams the requests draw from — executing
    ``requests`` on it and handing the PMFs (in request order) to
    ``finish`` is *exactly* what ``Session.run_scheme`` does, so any
    caller that executes the requests elsewhere with the same per-request
    streams (the service layer's cross-job merged batches) reproduces the
    solo result bit for bit.
    """

    scheme: str
    workload: Workload
    backend: LocalBackend
    requests: List[ExecutionRequest]
    #: PMFs (request order) -> the scheme result: a :class:`PMF` for the
    #: distribution schemes, a JigSaw(M)Result for the plan-based ones.
    finish: Callable[[List[PMF]], object] = field(repr=False)

    def output_pmf(self, result: object) -> PMF:
        """Project a finished result onto its output distribution."""
        return result.output_pmf if hasattr(result, "output_pmf") else result


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
        # templates keyed by (scheme, structure, content, budget) and
        # EDM ensembles keyed by circuit content.
        self._templates: Dict[tuple, PlanTemplate] = {}
        self._edm_ensembles: Dict[str, List[ExecutableCircuit]] = {}

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------

    def global_executable(
        self, workload: Union[Workload, QuantumCircuit]
    ) -> ExecutableCircuit:
        """The baseline (Noise-Aware SABRE) compilation, shared per program.

        Accepts a workload or a bare circuit (the sweep layer compiles
        *symbolic* template circuits through the same baseline stream).
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

    def edm_ensemble(
        self, circuit: QuantumCircuit
    ) -> List[ExecutableCircuit]:
        """The EDM mapping ensemble for ``circuit``, compiled once per
        content key.

        Used by the sweep layer: a K-iteration EDM sweep compiles the
        symbolic ensemble a single time and binds it per iteration.
        (``prepare_scheme("edm", ...)`` deliberately keeps its historical
        uncached behaviour — caching would shift the EDM seed stream of
        repeated solo runs.)
        """
        key = circuit_fingerprint(circuit)
        if key not in self._edm_ensembles:
            self._edm_ensembles[key] = ensemble_of_diverse_mappings(
                circuit,
                self.compile_pipeline,
                ensemble_size=self.ensemble_size,
                attempts=self.compile_attempts,
                seed=self._edm_seed,
            )
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

    def plan(
        self,
        workload: Union[Workload, QuantumCircuit],
        scheme: str = "jigsaw",
        total_trials: Optional[int] = None,
    ) -> ExecutionPlan:
        """Plan (and cache) a JigSaw or JigSaw-M run without executing it."""
        circuit = workload.circuit if isinstance(workload, Workload) else workload
        if scheme == "jigsaw_m":
            runner: JigSaw = self._jigsawm_runner()
        elif scheme in {"jigsaw", "jigsaw_nr"}:
            runner = self._jigsaw_runner(recompile=scheme == "jigsaw")
        else:
            raise ExperimentError(
                f"cannot plan scheme {scheme!r}; planable: "
                "('jigsaw', 'jigsaw_nr', 'jigsaw_m')"
            )
        global_executable = (
            self.global_executable(workload)
            if isinstance(workload, Workload)
            else None
        )
        return runner.plan(
            circuit,
            total_trials=total_trials or self.total_trials,
            global_executable=global_executable,
        )

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

    # ------------------------------------------------------------------
    # Variational sweeps (compile once, bind many, execute stacked)
    # ------------------------------------------------------------------

    def plan_template(
        self,
        workload: Union[Workload, QuantumCircuit],
        scheme: str = "jigsaw",
        total_trials: Optional[int] = None,
    ) -> PlanTemplate:
        """Compile a parameterized program into a reusable plan template.

        The full pipeline runs once on the *symbolic* circuit (every
        compile stage is parameter independent); ``template.bind(p)``
        then yields each iteration's :class:`ExecutionPlan` by pure
        substitution.  Templates are cached per (scheme, structure,
        content, budget), so repeated sweeps of one program share one
        compilation.

        Mirrors :meth:`plan`'s seed discipline: a :class:`Workload`
        compiles its global through the session baseline stream, a bare
        circuit lets the scheme runner auto-compile it.
        """
        circuit = resolve_template_circuit(workload)
        trials = total_trials or self.total_trials
        key = (
            scheme,
            structure_fingerprint(circuit),
            circuit_fingerprint(circuit),
            trials,
        )
        if key not in self._templates:
            global_executable = (
                self.global_executable(circuit)
                if isinstance(workload, Workload)
                else None
            )
            if scheme == "jigsaw_m":
                runner: JigSaw = self._jigsawm_runner()
            elif scheme in {"jigsaw", "jigsaw_nr"}:
                runner = self._jigsaw_runner(recompile=scheme == "jigsaw")
            else:
                raise ExperimentError(
                    f"cannot template scheme {scheme!r}; planable: "
                    "('jigsaw', 'jigsaw_nr', 'jigsaw_m')"
                )
            plan = runner.plan(
                circuit,
                total_trials=trials,
                global_executable=global_executable,
            )
            self._templates[key] = PlanTemplate.from_plan(plan, runner.pipeline)
        return self._templates[key]

    def parameter_sweep(
        self,
        workload: Union[Workload, QuantumCircuit],
        scheme: str = "jigsaw",
        total_trials: Optional[int] = None,
    ) -> ParameterSweep:
        """A reusable sweep runner over this session (optimizer loops)."""
        return ParameterSweep(
            self, workload, scheme=scheme, total_trials=total_trials
        )

    def prepare_sweep(
        self,
        scheme: str,
        workload: Union[Workload, QuantumCircuit],
        parameter_sets: Sequence[ParameterValues],
        total_trials: Optional[int] = None,
    ) -> PreparedSweep:
        """Compile/bind a K-iteration sweep down to its execution seam.

        The sweep twin of :meth:`prepare_scheme`: executing the returned
        requests on the prepared backend and finishing is exactly
        :meth:`run_sweep` — the service tier splices the requests into
        its merged batches instead and finishes identically.
        """
        return self.parameter_sweep(
            workload, scheme=scheme, total_trials=total_trials
        ).prepare(parameter_sets)

    def run_sweep(
        self,
        scheme: str,
        workload: Union[Workload, QuantumCircuit],
        parameter_sets: Sequence[ParameterValues],
        total_trials: Optional[int] = None,
    ) -> SweepResult:
        """Run all K parameter points as one coalesced stacked batch.

        Compiles once (route calls O(1) in K), binds per iteration, and
        submits every bound instance in a single backend batch so the
        stacked kernels evaluate the whole wave in ``(K, 2^n)`` stacks.
        Bit-for-bit equal to running the iterations one at a time.
        """
        sweep = self.parameter_sweep(
            workload, scheme=scheme, total_trials=total_trials
        )
        return sweep.run(parameter_sets)

    # ------------------------------------------------------------------
    # Schemes
    # ------------------------------------------------------------------

    def prepare_scheme(
        self, scheme: str, workload: Workload
    ) -> PreparedSchemeRun:
        """Compile a scheme run down to its execution seam.

        Everything *before* the backend call happens here (baseline/EDM
        compilation, JigSaw planning through the cache); everything
        *after* it is captured in the returned ``finish`` callback.  The
        ``run_*`` methods execute the requests on the prepared backend
        and finish — the service layer instead splices many prepared
        runs into one merged batch (spawning each one's seed streams from
        its own backend), which is why the two paths cannot drift.
        """
        if scheme == "baseline":
            executable = self.global_executable(workload)
            return PreparedSchemeRun(
                scheme=scheme,
                workload=workload,
                backend=self.backend,
                requests=[ExecutionRequest(executable, self.total_trials)],
                finish=lambda pmfs: pmfs[0],
            )
        if scheme == "mbm":
            if workload.num_outcome_bits > MAX_MBM_QUBITS:
                raise ExperimentError(
                    f"MBM limited to {MAX_MBM_QUBITS}-bit outputs"
                )
            executable = self.global_executable(workload)
            return PreparedSchemeRun(
                scheme=scheme,
                workload=workload,
                backend=self.backend,
                requests=[ExecutionRequest(executable, self.total_trials)],
                finish=lambda pmfs: mitigate_executable_pmf(
                    pmfs[0], executable, self.noise_model
                ),
            )
        if scheme == "edm":
            executables = ensemble_of_diverse_mappings(
                workload.circuit,
                self.compile_pipeline,
                ensemble_size=self.ensemble_size,
                attempts=self.compile_attempts,
                seed=self._edm_seed,
            )
            per_mapping = self.total_trials // len(executables)
            allocations = [per_mapping] * len(executables)
            # Fold the integer-division remainder into the first mapping
            # so the whole budget is spent.
            allocations[0] += self.total_trials - per_mapping * len(executables)
            return PreparedSchemeRun(
                scheme=scheme,
                workload=workload,
                backend=self.backend,
                requests=[
                    ExecutionRequest(executable, trials, tag=f"edm[{index}]")
                    for index, (executable, trials) in enumerate(
                        zip(executables, allocations)
                    )
                ],
                finish=lambda pmfs: self._pool_edm(pmfs, allocations),
            )
        if scheme in {"jigsaw", "jigsaw_nr", "jigsaw_m", "jigsaw_mbm"}:
            plan = self.plan(
                workload, scheme="jigsaw" if scheme == "jigsaw_mbm" else scheme
            )
            runner = self.runner_for(plan)
            if scheme == "jigsaw_mbm":
                finish = lambda pmfs: jigsaw_with_mbm(  # noqa: E731
                    runner.reconstruct(plan, pmfs), self.noise_model
                )
            else:
                finish = lambda pmfs: runner.reconstruct(plan, pmfs)  # noqa: E731
            return PreparedSchemeRun(
                scheme=scheme,
                workload=workload,
                backend=runner.backend,
                requests=plan.requests(),
                finish=finish,
            )
        raise ExperimentError(f"unknown scheme {scheme!r}; known: {SCHEME_NAMES}")

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

    def _run_prepared(self, prepared: PreparedSchemeRun) -> object:
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

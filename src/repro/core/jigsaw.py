"""The JigSaw framework (paper §4) and JigSaw-M, its multi-layer form (§4.4).

:class:`JigSaw` orchestrates the full pipeline as two first-class stages:

1. :meth:`JigSaw.plan` — **plan & compile**: choose the measurement
   subsets, compile the program with the noise-aware baseline compiler,
   build and recompile one Circuit with Partial Measurements per subset,
   and split the trial budget.  The result is an
   :class:`~repro.runtime.plan.ExecutionPlan` with one
   :class:`~repro.runtime.plan.PlanLayer` per subset size — serializable,
   inspectable, and cacheable through a
   :class:`~repro.runtime.cache.CompilationCache`.
2. :meth:`JigSaw.execute` — **batch-execute & reconstruct**: evaluate
   the plan's batch (global circuit + every CPM) on the runner's
   :class:`~repro.runtime.backend.LocalBackend`, then
   :meth:`JigSaw.reconstruct` Bayesian-updates the global PMF with the
   local PMFs until convergence, one layer at a time.

The config names the layers.  :class:`JigSawConfig` is plain JigSaw: one
layer, a sliding window of size 2 by default (random or explicit subsets
on request).  :class:`JigSawMConfig` is JigSaw-M: JigSaw's gains saturate
once more same-size CPMs stop adding unique information (§6.5), so it
plans one sliding-window layer per size 2..5 — small CPMs read more
reliably, large ones capture more correlation.  Reconstruction runs
**largest size first** (§4.4.2): the most-correlated marginals shape the
PMF before the smaller, higher-fidelity ones sharpen it.  All layers
share one measurement-free body, so the extra CPMs cost retarget + EPS
only (see :mod:`repro.compiler.pipeline`).

:meth:`JigSaw.run` chains the two stages and remains the convenient
entry point.  The backend's exact mode evaluates the closed-form noisy
distributions (the infinite-trials limit; the paper notes fidelity
saturates in trials, Fig. 7), sampling mode draws the allocated trials.
Compilation runs on the runner's
:class:`~repro.compiler.pipeline.CompilerPipeline`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from itertools import islice
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.pipeline import CompilerPipeline, ExecutableCircuit
from repro.core.payload import PAYLOAD_VERSION
from repro.core.pmf import PMF, Marginal
from repro.core.reconstruction import (
    DEFAULT_MAX_ROUNDS,
    DEFAULT_TOLERANCE,
    iterate_reconstruction,
)
from repro.core.subsets import (
    random_subsets,
    sliding_window_subsets,
    validate_subsets,
)
from repro.core.trials import split_trial_budget
from repro.devices.device import Device
from repro.exceptions import CircuitError, ReconstructionError
from repro.noise.model import NoiseModel
from repro.noise.sampler import NoisySampler
from repro.runtime.backend import LocalBackend
from repro.runtime.cache import CompilationCache
from repro.runtime.fingerprint import (
    circuit_fingerprint,
    config_fingerprint,
    executable_fingerprint,
)
from repro.runtime.plan import ExecutionPlan, PlanLayer
from repro.telemetry.metrics import MetricsRegistry
from repro.utils.random import SeedLike, as_generator, skip_spawns, spawn

__all__ = [
    "JigSawConfig",
    "JigSawMConfig",
    "JigSawResult",
    "JigSaw",
    "measured_positions_map",
]

#: ``reconstruct.rounds`` buckets: one per round up to the default cap
#: (rounds past it land in the overflow bucket).
_ROUND_BUCKETS = tuple(range(1, DEFAULT_MAX_ROUNDS + 1))


def measured_positions_map(circuit: QuantumCircuit) -> Dict[int, int]:
    """Validated qubit -> clbit map for a JigSaw-eligible program.

    JigSaw requires the measurement map to be monotone (ascending qubits
    measure into ascending clbits) so that subset positions in the global
    outcome string line up with CPM outcome bits.  Every benchmark in the
    paper satisfies this; a violation raises.
    """
    meas_map = circuit.measurement_map
    if len(meas_map) < 2:
        raise ReconstructionError("JigSaw needs a program measuring >= 2 qubits")
    ordered = sorted(meas_map.items())
    clbits = [c for _, c in ordered]
    if clbits != sorted(clbits):
        raise ReconstructionError(
            "JigSaw requires ascending qubits to measure into ascending clbits"
        )
    return meas_map


@dataclass
class JigSawConfig:
    """Tunable knobs of the JigSaw pipeline (defaults follow the paper)."""

    #: Scheme tag of the plans and result payloads this config produces.
    scheme: ClassVar[str] = "jigsaw"

    #: Number of qubits each CPM measures.  2 is the smallest subset that
    #: still captures correlation (§4.2.1).
    subset_size: int = 2
    #: "sliding" (default) or "random" subset generation.
    subset_method: str = "sliding"
    #: Number of subsets for the random method (defaults to #measured bits).
    num_subsets: Optional[int] = None
    #: Recompile each CPM for readout fidelity (§4.2.2); disable to get the
    #: "JigSaw w/o recompilation" ablation of Fig. 11.
    recompile_cpms: bool = True
    #: Fraction of trials spent in global mode (§5.4 uses an even split).
    global_fraction: float = 0.5
    #: Placement+routing candidates for the global compilation.
    compile_attempts: int = 4
    #: Candidate layout pool size per CPM recompilation.
    cpm_attempts: int = 3
    #: Readout-error percentile above which qubits count as vulnerable.
    vulnerable_percentile: float = 75.0
    #: Reconstruction convergence tolerance (Hellinger distance).
    tolerance: float = DEFAULT_TOLERANCE
    #: Reconstruction round cap.
    max_rounds: int = DEFAULT_MAX_ROUNDS
    #: Use closed-form noisy distributions instead of sampling trials.
    exact: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.global_fraction < 1.0:
            raise ReconstructionError("global_fraction must be in (0, 1)")
        if self.subset_method not in {"sliding", "random"}:
            raise ReconstructionError(
                f"unknown subset method: {self.subset_method!r}"
            )
        tolerance = self.tolerance
        if (
            isinstance(tolerance, bool)
            or not isinstance(tolerance, numbers.Real)
            or not math.isfinite(tolerance)
            or tolerance < 0.0
        ):
            raise ReconstructionError(
                f"tolerance must be a finite number >= 0, got {tolerance!r}"
            )
        rounds = self.max_rounds
        if (
            isinstance(rounds, bool)
            or not isinstance(rounds, numbers.Integral)
            or rounds < 1
        ):
            raise ReconstructionError(
                f"max_rounds must be an int >= 1, got {rounds!r}"
            )

    def sizes_for(self, num_outcome_bits: int) -> List[int]:
        """Subset size of each plan layer, ascending: JigSaw's one size,
        clipped to the program width."""
        return [min(self.subset_size, num_outcome_bits)]


@dataclass
class JigSawMConfig(JigSawConfig):
    """JigSaw-M configuration: one sliding-window layer per subset size
    in ``min_subset_size..max_subset_size`` (default 2..5).

    The one-layer knobs ``subset_size``, ``subset_method`` and
    ``num_subsets`` do not apply, so a value other than their default is
    refused.
    """

    scheme: ClassVar[str] = "jigsaw_m"

    min_subset_size: int = 2
    max_subset_size: int = 5

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("subset_size", "subset_method", "num_subsets"):
            value = getattr(self, name)
            if value != getattr(JigSawConfig, name):
                raise ReconstructionError(
                    f"JigSaw-M plans sliding windows of sizes "
                    f"min_subset_size..max_subset_size; {name}={value!r} "
                    "does not apply"
                )
        if self.min_subset_size < 2:
            raise ReconstructionError("min_subset_size must be >= 2")
        if self.max_subset_size < self.min_subset_size:
            raise ReconstructionError("max_subset_size < min_subset_size")

    def sizes_for(self, num_outcome_bits: int) -> List[int]:
        """Subset sizes applicable to a program with that many outcome bits.

        Sizes are clipped to the program width; a size equal to the full
        width is excluded (it would duplicate the global mode).
        """
        upper = min(self.max_subset_size, num_outcome_bits - 1)
        sizes = list(range(self.min_subset_size, upper + 1))
        if not sizes:
            raise ReconstructionError(
                f"no valid subset sizes for a {num_outcome_bits}-bit program"
            )
        return sizes


def _by_layer(
    plan: ExecutionPlan, marginals: Sequence[Marginal]
) -> List[Tuple[int, List[Marginal]]]:
    """(subset size, its marginals) per plan layer, in plan order."""
    rest = iter(marginals)
    return [
        (layer.subset_size, list(islice(rest, layer.num_cpms)))
        for layer in plan.layers
    ]


def _marginal_payloads(marginals: Sequence[Marginal]) -> List[Dict[str, object]]:
    return [
        {"qubits": list(m.qubits), "pmf": m.pmf.to_payload()} for m in marginals
    ]


@dataclass
class JigSawResult:
    """Everything one JigSaw or JigSaw-M execution produced.

    The distributions are the result's own; the subsets, executables and
    trial split are read off the plan it ran.
    """

    output_pmf: PMF
    global_pmf: PMF
    #: One marginal per CPM, in plan (batch) order.
    marginals: List[Marginal]
    plan: ExecutionPlan

    @property
    def subsets(self) -> List[Tuple[int, ...]]:
        return self.plan.subsets

    @property
    def global_executable(self) -> ExecutableCircuit:
        return self.plan.global_executable

    @property
    def cpm_executables(self) -> List[ExecutableCircuit]:
        return self.plan.cpm_executables

    @property
    def global_trials(self) -> int:
        return self.plan.global_trials

    @property
    def trials_per_cpm(self) -> int:
        return self.plan.trials_per_cpm

    @property
    def total_trials(self) -> int:
        return self.plan.allocated_trials

    @property
    def marginals_by_size(self) -> Dict[int, List[Marginal]]:
        """The marginals grouped by plan layer, keyed by subset size."""
        return dict(_by_layer(self.plan, self.marginals))

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready result payload.

        Distributions are serialized in the native array form —
        ``{codes, probs, num_bits}`` (see :meth:`PMF.to_payload`) — so a
        round-trip through JSON and :meth:`PMF.from_payload` never renders
        a bitstring.  The payload carries a ``payload_version`` (see
        :mod:`repro.core.payload`) so persisted results — e.g. the job
        service's journal records — can evolve without silent misreads.

        A JigSaw payload lists its marginals flat beside their subsets; a
        JigSaw-M payload groups them under ``marginals_by_size``, whose
        subset sizes are **string** keys: a payload must survive a JSON
        round-trip byte-identically (the service's on-disk result store
        relies on it), and JSON object keys are always strings.
        """
        payload: Dict[str, object] = {
            "scheme": self.plan.scheme,
            "payload_version": PAYLOAD_VERSION,
            "output_pmf": self.output_pmf.to_payload(),
            "global_pmf": self.global_pmf.to_payload(),
        }
        if self.plan.scheme == JigSawMConfig.scheme:
            payload["marginals_by_size"] = {
                str(size): _marginal_payloads(marginals)
                for size, marginals in sorted(self.marginals_by_size.items())
            }
        else:
            payload["marginals"] = _marginal_payloads(self.marginals)
            payload["subsets"] = [list(subset) for subset in self.subsets]
        payload["global_trials"] = self.global_trials
        payload["trials_per_cpm"] = self.trials_per_cpm
        payload["total_trials"] = self.total_trials
        return payload


class JigSaw:
    """JigSaw runner bound to one device (paper §4, Fig. 4); given a
    :class:`JigSawMConfig`, the JigSaw-M runner (§4.4).

    Args:
        device: the target device.
        config: pipeline knobs (see :class:`JigSawConfig`); its class
            names the scheme.
        seed: RNG seed; drives compilation exploration and sampling.
        cache: optional :class:`CompilationCache`; when set, ``plan`` and
            ``run`` reuse compiled plans for identical (circuit, device,
            config) keys instead of recompiling.
        cache_salt: extra cache-key component.  Share a cache between
            runners only under the same salt+seed if bit-for-bit
            reproducibility matters: a hit replays the compilation of the
            first planning call for that key.
    """

    #: Config knobs that cannot affect the compiled artifact — excluded
    #: from the plan-cache key so e.g. a tolerance sweep or an exact vs
    #: sampled comparison still reuses compilations.  (global_fraction is
    #: excluded too: the trial split is recomputed on every cache hit.)
    _EXECUTION_ONLY_CONFIG_FIELDS = (
        "global_fraction",
        "tolerance",
        "max_rounds",
        "exact",
    )

    def __init__(
        self,
        device: Device,
        config: Optional[JigSawConfig] = None,
        seed: SeedLike = None,
        cache: Optional[CompilationCache] = None,
        cache_salt: str = "",
    ) -> None:
        self.device = device
        self.config = config or JigSawConfig()
        self._rng = as_generator(seed)
        self.noise_model = NoiseModel.from_device(device)
        self.sampler = NoisySampler(self.noise_model, seed=spawn(self._rng, 1)[0])
        self.cache = cache
        self.cache_salt = cache_salt
        #: The runner's telemetry registry: its pipeline and its backend
        #: count into it (``compiler.*``, ``backend.*``), so an owner
        #: attaches it once.
        self.metrics = MetricsRegistry()
        #: Local simulation in ``config.exact``'s mode.  Its counters are
        #: cumulative across runs; the service splices its seed streams
        #: into merged batches (see ``LocalBackend.execute_spliced``).
        self.backend = LocalBackend(
            self.sampler, exact=self.config.exact, metrics=self.metrics
        )
        # The staged compiler pipeline (see repro.compiler.pipeline).  Its
        # stage cache holds routed bodies: with an attached plan cache the
        # stage store is shared (sweeps reuse routings across runners);
        # without one, the pipeline's private default cache still
        # guarantees the route-once invariant within and across this
        # runner's plans.  Routing is a pure function of content, so
        # sharing is always bit-for-bit safe.
        self.pipeline = CompilerPipeline(
            device, cache=cache, metrics=self.metrics
        )

    @property
    def scheme(self) -> str:
        """The plan scheme tag: the config's."""
        return self.config.scheme

    # ------------------------------------------------------------------
    # Planning helpers
    # ------------------------------------------------------------------

    def generate_subsets(
        self, circuit: QuantumCircuit, subsets: Optional[Sequence[Sequence[int]]] = None
    ) -> List[Tuple[int, ...]]:
        """Subsets of *outcome-bit positions* to be measured by CPMs, in
        plan order."""
        return [
            subset
            for _, layer in self._layer_subsets(circuit, subsets)
            for subset in layer
        ]

    def split_trials(self, total_trials: int, num_cpms: int) -> Tuple[int, int]:
        """(global trials, trials per CPM) under the configured split.

        Delegates to :func:`repro.core.trials.split_trial_budget` — the
        same split the Appendix A.2 sufficiency report
        (:func:`repro.core.trials.plan_trial_budget`) describes, so the
        reported budget is always the budget that runs.  The integer
        remainder is folded into the global allocation:
        ``global + per_cpm * num_cpms == total_trials`` always holds.
        """
        return split_trial_budget(
            total_trials, num_cpms, self.config.global_fraction
        )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def compile_global(self, circuit: QuantumCircuit) -> ExecutableCircuit:
        """Noise-aware baseline compilation of the full program (§4.1)."""
        return self.pipeline.compile(
            circuit,
            seed=spawn(self._rng, 1)[0],
            attempts=self.config.compile_attempts,
        )

    def build_cpm_circuit(
        self, circuit: QuantumCircuit, subset: Sequence[int]
    ) -> QuantumCircuit:
        """CPM measuring the program qubits behind outcome positions ``subset``."""
        meas_map = measured_positions_map(circuit)
        clbit_to_qubit = {c: q for q, c in meas_map.items()}
        qubits = [clbit_to_qubit[c] for c in subset]
        return circuit.with_measured_subset(qubits)

    def compile_cpms(
        self,
        circuit: QuantumCircuit,
        subsets: Sequence[Tuple[int, ...]],
        global_executable: ExecutableCircuit,
    ) -> List[ExecutableCircuit]:
        """Compile every CPM (recompiled or reusing the global mapping).

        Route-once/retarget-many: every CPM shares the program's
        measurement-free body, so the candidate routings (the global
        layout plus the deterministic pool) are computed once through the
        runner's pipeline and each CPM only retargets its measured subset
        onto them.  The runner's spawn counter still advances by one
        per CPM (no generator is built) to keep its seed stream, and
        cached plans' ``compile_spawns`` replay, aligned with the
        historical discipline.
        """
        skip_spawns(self._rng, len(subsets))
        return [
            self.pipeline.compile_cpm(
                self.build_cpm_circuit(circuit, subset),
                global_executable,
                recompile=self.config.recompile_cpms,
                pool_size=self.config.cpm_attempts,
                vulnerable_percentile=self.config.vulnerable_percentile,
            )
            for subset in subsets
        ]

    # ------------------------------------------------------------------
    # Stage 1: plan & compile
    # ------------------------------------------------------------------

    def _layer_subsets(
        self,
        circuit: QuantumCircuit,
        subsets: Optional[Sequence[Sequence[int]]],
    ) -> List[Tuple[int, List[Tuple[int, ...]]]]:
        """(subset size, subsets) per plan layer, ascending: one layer per
        size the config names, or one layer of explicit subsets."""
        config = self.config
        if subsets is not None and isinstance(config, JigSawMConfig):
            raise ReconstructionError(
                "JigSaw-M generates its own multi-size subsets; "
                "use a JigSawConfig for explicit subsets"
            )
        num_bits = len(measured_positions_map(circuit))
        if subsets is not None:
            chosen = validate_subsets(subsets, num_bits)
            return [(len(chosen[0]), chosen)]
        layers = []
        for size in config.sizes_for(num_bits):
            if config.subset_method == "sliding":
                chosen = sliding_window_subsets(num_bits, size)
            else:
                count = config.num_subsets or num_bits
                chosen = random_subsets(
                    num_bits, size, count, ensure_coverage=True, seed=self._rng
                )
            layers.append((size, chosen))
        return layers

    def _build_plan(
        self,
        circuit: QuantumCircuit,
        total_trials: int,
        subsets: Optional[Sequence[Sequence[int]]],
        global_executable: Optional[ExecutableCircuit],
    ) -> ExecutionPlan:
        layer_specs = self._layer_subsets(circuit, subsets)
        compile_spawns = 0
        if global_executable is None:
            global_executable = self.compile_global(circuit)
            compile_spawns += 1
        layers = []
        for size, layer_subsets in layer_specs:
            executables = self.compile_cpms(
                circuit, layer_subsets, global_executable
            )
            compile_spawns += len(layer_subsets)
            layers.append(
                PlanLayer(
                    subset_size=size,
                    subsets=tuple(tuple(s) for s in layer_subsets),
                    executables=tuple(executables),
                )
            )
        num_cpms = sum(layer.num_cpms for layer in layers)
        global_trials, per_cpm = self.split_trials(total_trials, num_cpms)
        return ExecutionPlan(
            scheme=self.scheme,
            circuit=circuit,
            circuit_fingerprint=circuit_fingerprint(circuit),
            device_name=self.device.name,
            config=replace(self.config),
            total_trials=total_trials,
            global_trials=global_trials,
            trials_per_cpm=per_cpm,
            global_executable=global_executable,
            layers=tuple(layers),
            compile_spawns=compile_spawns,
        )

    def _plan_cache_key(
        self,
        circuit: QuantumCircuit,
        global_executable: Optional[ExecutableCircuit],
    ) -> str:
        return CompilationCache.make_key(
            (
                self.scheme,
                circuit_fingerprint(circuit),
                self.device.name,
                config_fingerprint(
                    self.config, exclude=self._EXECUTION_ONLY_CONFIG_FIELDS
                ),
                executable_fingerprint(global_executable)
                if global_executable is not None
                else "auto-global",
                self.cache_salt,
            )
        )

    def plan(
        self,
        circuit: QuantumCircuit,
        total_trials: int = 32_768,
        subsets: Optional[Sequence[Sequence[int]]] = None,
        global_executable: Optional[ExecutableCircuit] = None,
    ) -> ExecutionPlan:
        """Plan and compile a JigSaw run without executing it.

        When a :class:`CompilationCache` is attached and the subsets are
        deterministic (the default sliding method, no explicit subsets),
        an identical prior plan is reused with only the trial split
        recomputed; the spawn counter skips the RNG children the skipped
        compilation would have consumed, so downstream seed streams stay
        aligned.
        """
        if not isinstance(circuit, QuantumCircuit):
            raise CircuitError(
                f"JigSaw plans a QuantumCircuit, not a "
                f"{type(circuit).__name__}; pass workload.circuit "
                "(Session.plan accepts either)"
            )
        cache = self.cache
        key = None
        if (
            cache is not None
            and subsets is None
            and self.config.subset_method == "sliding"
        ):
            key = self._plan_cache_key(circuit, global_executable)
            cached = cache.get(key)
            if cached is not None:
                skip_spawns(self._rng, cached.compile_spawns)
                global_trials, per_cpm = self.split_trials(
                    total_trials, cached.num_cpms
                )
                rebudgeted = cached.with_trials(
                    total_trials, global_trials, per_cpm
                )
                # The key ignores execution-only knobs, so refresh the
                # config snapshot to this runner's (e.g. its tolerance).
                return replace(rebudgeted, config=replace(self.config))
        built = self._build_plan(circuit, total_trials, subsets, global_executable)
        if key is not None:
            cache.put(key, built)
        return built

    # ------------------------------------------------------------------
    # Stage 2: batch-execute & reconstruct
    # ------------------------------------------------------------------

    def execute(self, plan: ExecutionPlan) -> JigSawResult:
        """Evaluate a plan's batch on :attr:`backend` and reconstruct."""
        if plan.scheme != self.scheme:
            raise ReconstructionError(
                f"a {self.scheme!r} runner cannot execute a "
                f"{plan.scheme!r} plan"
            )
        return self.reconstruct(plan, self.backend.execute(plan.requests()))

    def reconstruct(
        self, plan: ExecutionPlan, pmfs: Sequence[PMF]
    ) -> JigSawResult:
        """Build the result from a plan's already-executed batch PMFs.

        ``pmfs`` must be the PMFs of ``plan.requests()`` in batch order
        (the global distribution first).  The global PMF is updated one
        plan layer at a time, largest subset size first (§4.4.2), so a
        one-layer JigSaw plan is one reconstruction.  :meth:`execute` ends
        here, and callers that execute a plan's batch elsewhere (a sweep's
        batch, the service layer's cross-job merged batches) or correct
        its PMFs first (JigSaw + MBM) use it to finish the run.
        """
        global_pmf = pmfs[0]
        marginals = [
            Marginal(subset, pmf) for subset, pmf in zip(plan.subsets, pmfs[1:])
        ]
        output = global_pmf
        for _, layer in reversed(_by_layer(plan, marginals)):
            output = self._bayesian_reconstruction(output, layer)
        return JigSawResult(output, global_pmf, marginals, plan)

    def _bayesian_reconstruction(
        self, prior: PMF, marginals: Sequence[Marginal]
    ) -> PMF:
        """Reconstruct under this runner's knobs, counted into its registry.

        Observes the round count into the ``reconstruct.rounds``
        histogram and adds 1 to ``reconstruct.capped`` when the round
        cap, not the tolerance, ended the loop.
        """
        output, rounds, capped = iterate_reconstruction(
            prior, marginals, self.config.tolerance, self.config.max_rounds
        )
        self.metrics.histogram(
            "reconstruct.rounds", _ROUND_BUCKETS, unit="rounds"
        ).observe(rounds)
        self.metrics.counter("reconstruct.capped").add(int(capped))
        return output

    # ------------------------------------------------------------------
    # Convenience: the historical one-call pipeline
    # ------------------------------------------------------------------

    def run(
        self,
        circuit: QuantumCircuit,
        total_trials: int = 32_768,
        subsets: Optional[Sequence[Sequence[int]]] = None,
        global_executable: Optional[ExecutableCircuit] = None,
    ) -> JigSawResult:
        """Execute the full JigSaw pipeline on ``circuit``.

        Thin wrapper over :meth:`plan` + :meth:`execute`.
        ``global_executable`` lets experiments reuse one baseline
        compilation across schemes so comparisons share a mapping.
        """
        return self.execute(
            self.plan(
                circuit,
                total_trials=total_trials,
                subsets=subsets,
                global_executable=global_executable,
            )
        )

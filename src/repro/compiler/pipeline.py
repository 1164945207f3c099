"""Staged compiler pipeline: route-once/retarget-many CPM compilation.

:class:`CompilerPipeline` is the one compile entry: ``compile`` is the
paper's baseline flow (Noise-Aware SABRE — several noise-aware initial
layouts, each routed, the best by Expected Probability of Success kept)
and ``compile_cpm`` the CPM recompiler (§4.2.2).  Every CPM of a program
shares the *same unitary body* and differs only in which qubits are
measured — and SABRE emits measurements as a final layer on each logical
qubit's resting position anyway — so compilation is factored into
explicit stages over a shared :class:`CompilationState`:

``Placement -> Route -> MeasureRetarget -> EpsScore -> Select``

* **Placement** proposes initial layouts (noise-aware exploration for the
  global compile; a deterministic, measured-set-agnostic *pool* for CPMs).
* **Route** runs SABRE on the **measurement-free body** only.  The
  router's tie-break stream is seeded from
  :func:`~repro.runtime.fingerprint.routing_fingerprint`, making routing a
  pure function of ``(device, body, initial layout)`` — the *route-once
  invariant*: a ``(body, layout)`` pair is routed at most once per plan
  and cached/shared through the
  :class:`~repro.runtime.cache.CompilationCache` stage store.
* **MeasureRetarget** is the cheap per-CPM stage: it appends measurements
  of the circuit's measured qubits on their final physical positions,
  never touching the routed body.
* **EpsScore** computes plain and readout-emphasised EPS; the gate factor
  is a property of the routed body and is computed once per routing.
* **Select** picks the best candidate (for CPMs: subject to the paper's
  no-extra-SWAPs rule against the global compilation, §4.2.2).

``JigSaw.plan``/``JigSawM.plan`` compile dozens of CPMs by reusing cached
routed bodies and only re-running retarget+EPS per subset; the stages
count into the pipeline's registry (``compiler.route_calls``,
``compiler.retargets`` ...) and the stage store counts its hits and
misses (``cache.stage.<stage>.hits``), all read through
``Session.telemetry_snapshot()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.eps import gate_eps, readout_eps_targets
from repro.compiler.layout import Layout
from repro.compiler.placement import candidate_layouts, pool_layouts
from repro.compiler.sabre import emit_measurements, route
from repro.devices.device import Device
from repro.exceptions import CompilationError
from repro.runtime.cache import CompilationCache, IdealStore
from repro.runtime.fingerprint import (
    body_fingerprint,
    device_fingerprint,
    routing_fingerprint,
)
from repro.sim.statevector import StatevectorSimulator
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import current_span, get_tracer
from repro.utils.random import SeedLike, as_generator

__all__ = [
    "ExecutableCircuit",
    "RoutedBody",
    "CompilationState",
    "CompilerPipeline",
    "STAGE_PLACE",
    "STAGE_ROUTE",
]

#: Stage names used for cache namespaces and counters.
STAGE_PLACE = "place"
STAGE_ROUTE = "route"


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------


@dataclass
class ExecutableCircuit:
    """A program compiled for a device, ready for noisy execution.

    Attributes:
        logical: the program as written (defines the ideal distribution).
        physical: the routed schedule on device qubits (defines gate noise
            and, through its measurement targets, readout noise).
        initial_layout / final_layout: logical->physical maps before and
            after routing.
        num_swaps: SWAPs inserted by the router.
        eps: expected probability of success of the physical schedule.

    An executable the pipeline compiles links to its cache's
    :class:`~repro.runtime.cache.IdealStore`, where the backend finds the
    body's ideal vector if the cache has seen the body.  The link is
    process-local: a pickled executable (in a pickled plan) crosses
    without it.
    """

    logical: QuantumCircuit
    physical: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    device: Device
    num_swaps: int
    eps: float
    _ideal_probabilities: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _ideal_store: Optional[IdealStore] = field(
        default=None, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # The store holds a lock and other bodies' vectors; it stays home.
        return dict(self.__dict__, _ideal_store=None)

    @property
    def measured_physical_qubits(self) -> List[int]:
        """Physical qubit read for each measurement, in clbit order."""
        by_clbit = {
            ins.clbits[0]: ins.qubits[0] for ins in self.physical.measurements
        }
        return [by_clbit[c] for c in sorted(by_clbit)]

    def ideal_probabilities(self) -> np.ndarray:
        """Exact probabilities of the logical circuit over all basis states.

        Cached: JigSaw reuses one statevector across the global circuit and
        every CPM because their unitary bodies are identical.
        """
        if self._ideal_probabilities is None:
            self._ideal_probabilities = StatevectorSimulator().probabilities(
                self.logical
            )
        return self._ideal_probabilities

    def share_ideal_probabilities(self, probabilities: np.ndarray) -> None:
        """Inject a precomputed probability vector (same unitary body)."""
        expected = 1 << self.logical.num_qubits
        if probabilities.shape != (expected,):
            raise CompilationError("shared probability vector has wrong size")
        self._ideal_probabilities = probabilities


@dataclass
class RoutedBody:
    """The Route stage's artifact: one body routed from one initial layout.

    Measured-set agnostic — any CPM of the program retargets onto it.
    ``gate_eps`` is the gate-success factor of the physical body; the
    readout factor is a property of the retargeted measurements, not of
    the routing, so EPS scoring reuses this value across every subset.
    """

    body_fingerprint: str
    physical_body: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int
    gate_eps: float


@dataclass
class CompiledCandidate:
    """One (routed body, retargeted measurements) candidate mid-pipeline.

    ``measured_qubits`` lists the physical qubit behind each of the
    circuit's measurements (circuit order) under the routed body's final
    layout — all EpsScore needs.  The full physical schedule is only
    materialised for the *selected* candidate (see
    :meth:`CompilerPipeline.retarget`), keeping the per-CPM stages cheap.
    """

    routed: RoutedBody
    measured_qubits: List[int]
    plain_eps: float = float("nan")
    score: float = float("nan")


@dataclass
class CompilationState:
    """Shared state the stages operate on, one instance per compilation."""

    circuit: QuantumCircuit
    body: QuantumCircuit
    body_fingerprint: str
    readout_emphasis: float
    avoid_qubits: Tuple[int, ...]
    rng: Optional[np.random.Generator] = None
    attempts: int = 1
    initial_layouts: Optional[Sequence[Layout]] = None
    #: CPM mode only: the global compilation (layout fallback, SWAP budget).
    global_executable: Optional["ExecutableCircuit"] = None
    recompile: bool = True
    # Stage outputs:
    layouts: List[Layout] = field(default_factory=list)
    routed: List[RoutedBody] = field(default_factory=list)
    candidates: List[CompiledCandidate] = field(default_factory=list)
    selected: Optional["ExecutableCircuit"] = None


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------


class PlacementStage:
    """Propose initial layouts: explicit list, noise-aware exploration, or
    the deterministic CPM pool (global layout first, pool behind it)."""

    name = STAGE_PLACE

    def run(self, state: CompilationState, pipeline: "CompilerPipeline") -> None:
        pipeline.metrics.counter("compiler.place_runs").add()
        if state.global_executable is not None:
            base = state.global_executable.initial_layout
            state.layouts = [base]
            if state.recompile:
                state.layouts += [
                    layout
                    for layout in pipeline._cpm_pool(state)
                    if layout != base
                ]
            return
        if state.initial_layouts is not None:
            state.layouts = list(state.initial_layouts)
            if not state.layouts:
                raise CompilationError("initial_layouts must not be empty")
            return
        state.layouts = candidate_layouts(
            state.circuit,
            pipeline.device,
            num_candidates=state.attempts,
            readout_weight=state.readout_emphasis,
            avoid_qubits=state.avoid_qubits,
            seed=state.rng,
        )


class RouteStage:
    """Route the measurement-free body from every proposed layout.

    Delegates to the pipeline's content-keyed routing cache, so equal
    ``(body, layout)`` pairs are routed at most once per cache lifetime.
    """

    name = STAGE_ROUTE

    def run(self, state: CompilationState, pipeline: "CompilerPipeline") -> None:
        state.routed = [
            pipeline.routed_body(state.body, state.body_fingerprint, layout)
            for layout in state.layouts
        ]


class MeasureRetargetStage:
    """Resolve the circuit's measurements onto each routed body's resting
    positions — the only per-CPM work; the routed body is never altered."""

    name = "retarget"

    def run(self, state: CompilationState, pipeline: "CompilerPipeline") -> None:
        measures = state.circuit.measurements
        candidates = []
        for routed in state.routed:
            pipeline.metrics.counter("compiler.retargets").add()
            candidates.append(
                CompiledCandidate(
                    routed=routed,
                    measured_qubits=[
                        routed.final_layout.physical(ins.qubits[0])
                        for ins in measures
                    ],
                )
            )
        state.candidates = candidates


class EpsScoreStage:
    """Score candidates: plain EPS plus the readout-emphasised objective.

    The gate factor rides along from the routed body; only the readout
    factor (a function of the retargeted measurements) is recomputed.
    """

    name = "eps"

    def run(self, state: CompilationState, pipeline: "CompilerPipeline") -> None:
        if state.readout_emphasis < 0:
            raise CompilationError("readout_emphasis must be non-negative")
        for candidate in state.candidates:
            pipeline.metrics.counter("compiler.eps_evals").add()
            readout = readout_eps_targets(
                candidate.measured_qubits, pipeline.device
            )
            candidate.plain_eps = candidate.routed.gate_eps * readout
            candidate.score = candidate.routed.gate_eps * (
                readout ** state.readout_emphasis
            )


class SelectStage:
    """Keep the candidate with the best emphasised EPS (first wins ties)."""

    name = "select"

    def run(self, state: CompilationState, pipeline: "CompilerPipeline") -> None:
        pipeline.metrics.counter("compiler.selects").add()
        best: Optional[CompiledCandidate] = None
        for candidate in state.candidates:
            if best is None or candidate.score > best.score:
                best = candidate
        state.selected = pipeline._finalize(best, state.circuit)


class CpmSelectStage:
    """Selection under the paper's no-extra-SWAPs rule (§4.2.2).

    Candidate 0 is always the global-layout baseline.  Pool candidates
    within the global SWAP budget compete with the baseline on the
    readout-emphasised EPS; when none is SWAP-neutral, the fallback picks
    whichever candidate maximises plain EPS.
    """

    name = "select"

    def run(self, state: CompilationState, pipeline: "CompilerPipeline") -> None:
        pipeline.metrics.counter("compiler.selects").add()
        baseline = state.candidates[0]
        pool = state.candidates[1:]
        budget = state.global_executable.num_swaps
        qualified = [c for c in pool if c.routed.num_swaps <= budget]
        if qualified:
            chosen = max([baseline] + qualified, key=lambda c: c.score)
        elif pool:
            chosen = max([baseline] + pool, key=lambda c: c.plain_eps)
        else:
            chosen = baseline
        state.selected = pipeline._finalize(chosen, state.circuit)


#: The canonical stage graphs.
_TRANSPILE_STAGES = (
    PlacementStage(),
    RouteStage(),
    MeasureRetargetStage(),
    EpsScoreStage(),
    SelectStage(),
)
_CPM_STAGES = (
    PlacementStage(),
    RouteStage(),
    MeasureRetargetStage(),
    EpsScoreStage(),
    CpmSelectStage(),
)


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------


class CompilerPipeline:
    """Staged compilation bound to one device and one stage cache.

    Args:
        device: the compilation target.
        cache: the :class:`CompilationCache` whose *stage store* holds
            routed bodies and layout pools.  Defaults to a private cache;
            pass a shared one (e.g. a session's) to share routings across
            runners, or ``CompilationCache.disabled()`` to route every
            candidate afresh — results are bit-for-bit identical either
            way, because routing is a pure function of its content key.
        metrics: the registry the stages count into (``compiler.*``);
            defaults to a private one.  The cache's registry is attached
            to it, so one snapshot covers the pipeline and its stage
            store.
    """

    def __init__(
        self,
        device: Device,
        cache: Optional[CompilationCache] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.device = device
        #: Content fingerprint of the device (name + topology + full
        #: calibration): stage-cache keys carry this, so two devices that
        #: merely share a name (e.g. a noise-scaled sweep variant) can
        #: never exchange routed bodies through a shared cache.
        self.device_key = device_fingerprint(device)
        self.cache = cache if cache is not None else CompilationCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if self.cache.metrics is not self.metrics:
            self.metrics.attach(self.cache.metrics)
        #: ``(num_qubits, instructions, body_fingerprint)`` of the last
        #: body hashed (see :meth:`_body_fingerprint`).
        self._last_body: Optional[Tuple[int, Tuple[object, ...], str]] = None

    def _stage_cached(self, stage: str, key: str, hit_counter: str, compute):
        """Per-key-locked stage-store lookup: compute at most once per key.

        Delegates to :meth:`CompilationCache.stage_get_or_compute`, whose
        per-key in-flight locks make concurrent misses from drain workers
        that share a cache run the compute once — the second thread waits
        and replays the first's result, keeping the route-once invariant
        (and the route_calls == stage-entries accounting) true at any
        worker count.
        """
        value, hit = self.cache.stage_get_or_compute(stage, key, compute)
        if hit:
            self.metrics.counter(hit_counter).add()
        span = current_span()
        if span is not None:
            attr = "cache_hits" if hit else "cache_misses"
            span.attrs[attr] = span.attrs.get(attr, 0) + 1
        return value

    def _body_fingerprint(self, body: QuantumCircuit) -> str:
        """:func:`body_fingerprint` of ``body``, hashed once per program.

        A program's global compile and all of its CPMs strip their
        measurements off the very same (immutable) instruction objects, so
        a body whose width and instructions are identical, object for
        object, to the last body hashed gets that body's string back.
        """
        instructions = body.instructions
        last = self._last_body
        if (
            last is not None
            and last[0] == body.num_qubits
            and len(last[1]) == len(instructions)
            and all(a is b for a, b in zip(last[1], instructions))
        ):
            return last[2]
        key = body_fingerprint(body)
        self._last_body = (body.num_qubits, instructions, key)
        return key

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def compile(
        self,
        circuit: QuantumCircuit,
        seed: SeedLike = None,
        attempts: int = 4,
        readout_emphasis: float = 1.0,
        avoid_qubits: Sequence[int] = (),
        initial_layouts: Optional[Sequence[Layout]] = None,
    ) -> ExecutableCircuit:
        """Compile ``circuit`` maximising (emphasised) EPS.

        Args:
            circuit: logical program; must end in measurements for
                execution.
            seed: RNG seed controlling placement exploration (routing is
                a pure function of content).
            attempts: number of placement+routing candidates to evaluate.
            readout_emphasis: exponent on the readout term of EPS; > 1
                steers the measurements onto strong readout qubits.
            avoid_qubits: physical qubits to penalise during placement
                (EDM diversity, vulnerable-qubit avoidance).
            initial_layouts: optional explicit layouts to route
                (bypasses placement; still selects by EPS).
        """
        if attempts < 1:
            raise CompilationError("attempts must be >= 1")
        self.metrics.counter("compiler.compiles").add()
        state = CompilationState(
            circuit=circuit,
            body=circuit.remove_measurements(),
            body_fingerprint="",
            readout_emphasis=readout_emphasis,
            avoid_qubits=tuple(int(q) for q in avoid_qubits),
            rng=as_generator(seed),
            attempts=attempts,
            initial_layouts=initial_layouts,
        )
        state.body_fingerprint = self._body_fingerprint(state.body)
        return self._run(state, _TRANSPILE_STAGES)

    def compile_cpm(
        self,
        cpm_circuit: QuantumCircuit,
        global_executable: ExecutableCircuit,
        recompile: bool = True,
        pool_size: int = 4,
        readout_emphasis: float = 4.0,
        vulnerable_percentile: float = 75.0,
    ) -> ExecutableCircuit:
        """Compile one CPM by retargeting the shared routed bodies.

        The candidate set is the global mapping (the no-recompilation
        baseline) plus the deterministic layout pool; all of them route
        through the stage cache, so across a whole plan the pool is routed
        once and each CPM only pays retarget + EPS + select.

        Args:
            cpm_circuit: the program body with a measured subset.
            global_executable: the global-mode compilation; its initial
                layout is the no-recompilation fallback and its SWAP
                count the budget no candidate may exceed.
            recompile: ``False`` reuses the global layout (the paper's
                "JigSaw w/o recompilation" ablation, Fig. 11).
            pool_size: size of the candidate layout pool.
            readout_emphasis: readout-EPS exponent of the objective;
                measurement fidelity dominates, since a CPM reads only
                2-5 qubits.
            vulnerable_percentile: readout-error percentile above which
                a physical qubit is avoided.
        """
        self.metrics.counter("compiler.compiles").add()
        vulnerable = (
            self.device.vulnerable_qubits(vulnerable_percentile)
            if recompile
            else ()
        )
        state = CompilationState(
            circuit=cpm_circuit,
            body=cpm_circuit.remove_measurements(),
            body_fingerprint="",
            readout_emphasis=readout_emphasis,
            avoid_qubits=tuple(int(q) for q in vulnerable),
            attempts=pool_size,
            global_executable=global_executable,
            recompile=recompile,
        )
        state.body_fingerprint = self._body_fingerprint(state.body)
        return self._run(state, _CPM_STAGES)

    def _run(
        self, state: CompilationState, stages: Tuple[object, ...]
    ) -> ExecutableCircuit:
        tracer = get_tracer()
        if not tracer.enabled:
            for stage in stages:
                stage.run(state, self)
            return state.selected
        with tracer.span("compile", circuit=state.circuit.name):
            for stage in stages:
                with tracer.span(f"compile.{stage.name}"):
                    stage.run(state, self)
        return state.selected

    # ------------------------------------------------------------------
    # Stage helpers (cache-aware primitives the stages build on)
    # ------------------------------------------------------------------

    def routed_body(
        self, body: QuantumCircuit, body_fingerprint: str, layout: Layout
    ) -> RoutedBody:
        """Route ``body`` from ``layout`` — at most once per content key.

        The router's tie-break jitter is seeded from the routing
        fingerprint itself, so the result is a pure function of
        ``(device, body, layout)``: cache hits and recomputes are
        bit-for-bit interchangeable.
        """
        key = routing_fingerprint(self.device_key, body_fingerprint, layout)

        def _route() -> RoutedBody:
            self.metrics.counter("compiler.route_calls").add()
            routed = route(body, self.device, layout, seed=int(key[:16], 16))
            return RoutedBody(
                body_fingerprint=body_fingerprint,
                physical_body=routed.physical,
                initial_layout=routed.initial_layout,
                final_layout=routed.final_layout,
                num_swaps=routed.num_swaps,
                gate_eps=gate_eps(routed.physical, self.device),
            )

        return self._stage_cached(
            STAGE_ROUTE, key, "compiler.route_hits", _route
        )

    def retarget(
        self, routed: RoutedBody, circuit: QuantumCircuit
    ) -> QuantumCircuit:
        """Materialise the physical schedule: routed body plus ``circuit``'s
        measurements on its resting positions, preserving clbits.  The
        routed body is shared, never mutated — the result is a fresh
        circuit.  Only selected candidates pay this copy; scoring works
        from the measurement targets alone."""
        physical = QuantumCircuit(
            self.device.num_qubits,
            circuit.num_clbits,
            f"{circuit.name}@{self.device.name}",
        )
        for ins in routed.physical_body.instructions:
            physical.append(ins)
        emit_measurements(physical, circuit, routed.final_layout)
        return physical

    def _cpm_pool(self, state: CompilationState) -> List[Layout]:
        """The deterministic CPM layout pool (cached per content key)."""
        key = CompilationCache.make_key(
            (
                self.device_key,
                state.body_fingerprint,
                f"size={state.attempts}",
                f"weight={state.readout_emphasis!r}",
                f"avoid={sorted(state.avoid_qubits)!r}",
            )
        )

        def _place() -> List[Layout]:
            return pool_layouts(
                state.body,
                self.device,
                pool_size=state.attempts,
                readout_weight=state.readout_emphasis,
                avoid_qubits=state.avoid_qubits,
            )

        return self._stage_cached(
            STAGE_PLACE, key, "compiler.place_hits", _place
        )

    def _finalize(
        self, candidate: CompiledCandidate, circuit: QuantumCircuit
    ) -> ExecutableCircuit:
        """Freeze the winning candidate into an :class:`ExecutableCircuit`."""
        return ExecutableCircuit(
            logical=circuit,
            physical=self.retarget(candidate.routed, circuit),
            initial_layout=candidate.routed.initial_layout.copy(),
            final_layout=candidate.routed.final_layout.copy(),
            device=self.device,
            num_swaps=candidate.routed.num_swaps,
            eps=candidate.plain_eps,
            _ideal_store=self.cache.ideal,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompilerPipeline(device={self.device.name!r})"

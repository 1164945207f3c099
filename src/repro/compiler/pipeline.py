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
* **Route** runs SABRE (:mod:`~repro.compiler.sabre`) on the array form
  of the **measurement-free body**, built once per body fingerprint and
  kept in the :class:`~repro.runtime.cache.CompilationCache` stage store.
  The router's tie-break stream is seeded from
  :func:`~repro.runtime.fingerprint.routing_fingerprint`, making routing a
  pure function of ``(device, body, initial layout)`` — the *route-once
  invariant*: a ``(body, layout)`` pair is routed at most once per cache
  and shared through the stage store.  A :class:`RoutedBody` is
  angle-free — body-instruction indices and SWAPs on physical qubits —
  so programs that differ only in their rotation angles share it, and
  each executable's physical schedule is materialised from *its own*
  body's gates.
* **MeasureRetarget** is the cheap per-CPM stage: it resolves the
  circuit's measured qubits onto their final physical positions, never
  touching the routed body.
* **EpsScore** computes plain and readout-emphasised EPS; the gate factor
  is a property of the routed body and is computed once per routing.
* **Select** picks the best candidate (for CPMs: subject to the paper's
  no-extra-SWAPs rule against the global compilation, §4.2.2).

What a program body fixes is worked out once per pipeline and body, not
once per CPM: its fingerprints, its array form, the routing key of each
layout and each routed body's physical gates (:class:`_BodyMemo`).  The
vulnerable-qubit set is taken once per percentile, and placement's
coupler-error means once per device.  Each executable keeps the routed
body it was materialised from, so the backend reads the gate-failure
product and builds the exact-mode coalescing key
(:meth:`ExecutableCircuit.coalescing_key`) from content already in hand.

``JigSaw.plan``/``JigSawM.plan`` compile dozens of CPMs by reusing cached
routed bodies and only re-running retarget+EPS per subset; the stages
count into the pipeline's registry (``compiler.route_calls``,
``compiler.retargets`` ...) and the stage store counts its hits and
misses (``cache.stage.<stage>.hits``), all read through
``Session.telemetry_snapshot()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.compiler.eps import readout_eps_targets, schedule_gate_eps
from repro.compiler.layout import Layout
from repro.compiler.placement import (
    candidate_layouts,
    edge_error_means,
    pool_layouts,
    qubit_badness,
)
from repro.compiler.sabre import (
    RoutedSchedule,
    RoutingBody,
    emit_measurements,
    materialise,
    route_schedule,
)
from repro.devices.device import Device
from repro.exceptions import CompilationError
from repro.runtime.cache import CompilationCache, IdealStore
from repro.runtime.fingerprint import (
    body_fingerprint,
    device_fingerprint,
    executable_fingerprint,
    routing_fingerprint,
    unitary_body_fingerprint,
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
    "STAGE_BODY",
    "STAGE_PLACE",
    "STAGE_ROUTE",
]

#: Stage names used for cache namespaces and counters.
STAGE_BODY = "body"
STAGE_PLACE = "place"
STAGE_ROUTE = "route"
#: Stage-store namespace of per-device placement inputs.
_STAGE_DEVICE = "device"


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
        routed: the angle-free :class:`RoutedBody` ``physical`` was
            materialised from (``None`` for a hand-built executable).
            It carries the routing key and the gate-success product, so
            the backend reads both once per routed body.

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
    routed: Optional["RoutedBody"] = field(
        default=None, repr=False, compare=False
    )
    _unitary_key: Optional[str] = field(
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

    @property
    def unitary_key(self) -> str:
        """:func:`unitary_body_fingerprint` of the logical circuit, once."""
        if self._unitary_key is None:
            self._unitary_key = unitary_body_fingerprint(self.logical)
        return self._unitary_key

    def coalescing_key(self) -> Hashable:
        """Equal keys mean equal closed-form noisy distributions on one
        noise model — the exact-mode backend evaluates each key once.

        The exact channel reads the logical unitary body (the ideal
        vector), its measurement map, the physical gates (the failure
        product) and the physical qubit behind each clbit (readout).  A
        compiled executable has them in hand: the unitary key, the map,
        the routed body's routing key (device, body structure and
        initial layout fix the physical gates) and the measured qubits.
        A hand-built executable falls back to
        :func:`~repro.runtime.fingerprint.executable_fingerprint`.
        """
        if self.routed is None:
            return ("executable", executable_fingerprint(self))
        return (
            self.unitary_key,
            tuple(sorted(self.logical.measurement_map.items())),
            self.routed.routing_key,
            tuple(self.measured_physical_qubits),
        )

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


@dataclass(frozen=True)
class RoutedBody(RoutedSchedule):
    """The Route stage's artifact: one body routed from one initial layout.

    A :class:`~repro.compiler.sabre.RoutedSchedule` — body-instruction
    indices and SWAPs on physical qubits, the layouts and the SWAP count —
    plus its routing key.  It holds no gate object, so it is
    measured-set agnostic (any CPM of the program retargets onto it) and
    angle-free (every program with the body's structure materialises it
    with its own rotation angles).  ``gate_eps`` is the gate-success
    product of the physical body; the readout factor is a property of the
    retargeted measurements, not of the routing, so EPS scoring reuses
    this value across every subset, and the noise model reuses it as the
    gate-survival probability of every executable on this routing.
    """

    routing_key: str
    gate_eps: float


class _BodyMemo:
    """What one program body fixes, worked out once per pipeline.

    A program's global compile and all of its CPMs strip their
    measurements off the very same (immutable) instruction objects, so
    the pipeline keeps this for the last body it saw and recognises the
    body by the identity of its instructions.  It holds the body
    fingerprint, the array form (shared through the stage store), the
    unitary fingerprint, the routing key of each layout, and each routed
    body's physical gates built from *this* body's instructions.
    """

    __slots__ = (
        "num_qubits", "instructions", "fingerprint", "routing",
        "unitary_key", "routing_keys", "physical",
    )

    def __init__(
        self,
        body: QuantumCircuit,
        instructions: Tuple[Instruction, ...],
        fingerprint: str,
        routing: RoutingBody,
    ) -> None:
        self.num_qubits = body.num_qubits
        self.instructions = instructions
        self.fingerprint = fingerprint
        self.routing = routing
        self.unitary_key = unitary_body_fingerprint(body)
        self.routing_keys: Dict[Tuple[Tuple[int, int], ...], str] = {}
        self.physical: Dict[str, Tuple[Instruction, ...]] = {}

    def matches(self, body: QuantumCircuit, instructions) -> bool:
        return (
            self.num_qubits == body.num_qubits
            and len(self.instructions) == len(instructions)
            and all(a is b for a, b in zip(self.instructions, instructions))
        )


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
    memo: _BodyMemo
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
            interactions=state.memo.routing.interactions,
            badness=pipeline._badness(state),
        )


class RouteStage:
    """Route the measurement-free body from every proposed layout.

    Delegates to the pipeline's content-keyed routing cache, so equal
    ``(body, layout)`` pairs are routed at most once per cache lifetime.
    """

    name = STAGE_ROUTE

    def run(self, state: CompilationState, pipeline: "CompilerPipeline") -> None:
        state.routed = [
            pipeline._routed(state.memo, layout) for layout in state.layouts
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
        state.selected = pipeline._finalize(best, state)


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
        state.selected = pipeline._finalize(chosen, state)


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
        #: What the last program body fixes (see :class:`_BodyMemo`).
        self._last_body: Optional[_BodyMemo] = None
        #: Vulnerable-qubit sets by percentile (the device is fixed).
        self._vulnerable: Dict[float, Tuple[int, ...]] = {}

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

    def _body(self, body: QuantumCircuit) -> _BodyMemo:
        """The :class:`_BodyMemo` of ``body``, worked out once per program.

        A body whose width and instructions are identical, object for
        object, to the last body seen gets that body's memo back; any
        other body is hashed, and its array form comes from the stage
        store (built on a miss).
        """
        instructions = body.instructions
        last = self._last_body
        if last is not None and last.matches(body, instructions):
            return last
        fingerprint = body_fingerprint(body)
        routing, _ = self.cache.stage_get_or_compute(
            STAGE_BODY, fingerprint, lambda: RoutingBody.from_circuit(body)
        )
        memo = _BodyMemo(body, instructions, fingerprint, routing)
        self._last_body = memo
        return memo

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
        body = circuit.remove_measurements()
        state = CompilationState(
            circuit=circuit,
            body=body,
            memo=self._body(body),
            readout_emphasis=readout_emphasis,
            avoid_qubits=tuple(int(q) for q in avoid_qubits),
            rng=as_generator(seed),
            attempts=attempts,
            initial_layouts=initial_layouts,
        )
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
        avoid: Tuple[int, ...] = ()
        if recompile:
            avoid = self._vulnerable.get(vulnerable_percentile)
            if avoid is None:
                avoid = self._vulnerable[vulnerable_percentile] = tuple(
                    self.device.vulnerable_qubits(vulnerable_percentile)
                )
        body = cpm_circuit.remove_measurements()
        state = CompilationState(
            circuit=cpm_circuit,
            body=body,
            memo=self._body(body),
            readout_emphasis=readout_emphasis,
            avoid_qubits=avoid,
            attempts=pool_size,
            global_executable=global_executable,
            recompile=recompile,
        )
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

    def routed_body(self, body: QuantumCircuit, layout: Layout) -> RoutedBody:
        """Route ``body`` from ``layout`` — at most once per content key.

        The router's tie-break jitter is seeded from the routing
        fingerprint itself, so the result is a pure function of
        ``(device, body structure, layout)``: cache hits and recomputes
        are bit-for-bit interchangeable.
        """
        return self._routed(self._body(body), layout)

    def _routed(self, memo: _BodyMemo, layout: Layout) -> RoutedBody:
        layout_key = tuple(layout.items())
        key = memo.routing_keys.get(layout_key)
        if key is None:
            key = memo.routing_keys[layout_key] = routing_fingerprint(
                self.device_key, memo.fingerprint, layout
            )
        routing = memo.routing

        def _route() -> RoutedBody:
            self.metrics.counter("compiler.route_calls").add()
            schedule = route_schedule(
                routing, self.device, layout, seed=int(key[:16], 16)
            )
            return RoutedBody(
                ops=schedule.ops,
                qubits=schedule.qubits,
                initial_layout=schedule.initial_layout,
                final_layout=schedule.final_layout,
                num_swaps=schedule.num_swaps,
                routing_key=key,
                gate_eps=schedule_gate_eps(schedule, routing, self.device),
            )

        return self._stage_cached(
            STAGE_ROUTE, key, "compiler.route_hits", _route
        )

    def retarget(
        self, routed: RoutedBody, circuit: QuantumCircuit
    ) -> QuantumCircuit:
        """Materialise the physical schedule of ``circuit`` on ``routed``.

        The routed body's gates come from ``circuit``'s own instructions —
        its rotation angles, whichever program routed the body first —
        followed by its measurements on their resting positions,
        preserving clbits.  The routed body is shared, never mutated — the
        result is a fresh circuit.  Only selected candidates pay this;
        scoring works from the measurement targets alone.
        """
        return self._physical(
            routed, self._body(circuit.remove_measurements()), circuit
        )

    def _physical(
        self, routed: RoutedBody, memo: _BodyMemo, circuit: QuantumCircuit
    ) -> QuantumCircuit:
        # Every CPM of a program that selects this routing shares one
        # tuple of physical gate instructions.
        gates = memo.physical.get(routed.routing_key)
        if gates is None:
            gates = memo.physical[routed.routing_key] = materialise(
                routed, memo.instructions
            )
        physical = QuantumCircuit(
            self.device.num_qubits,
            circuit.num_clbits,
            f"{circuit.name}@{self.device.name}",
        )
        physical._instructions = list(gates)
        emit_measurements(physical, circuit, routed.final_layout)
        return physical

    def _badness(self, state: CompilationState) -> np.ndarray:
        """Placement's per-qubit badness at the state's weight and avoid
        set, from the device's coupler-error means (kept once per device
        in the stage store)."""
        edge_means, _ = self.cache.stage_get_or_compute(
            _STAGE_DEVICE, self.device_key, lambda: edge_error_means(self.device)
        )
        return qubit_badness(
            self.device,
            state.readout_emphasis,
            state.avoid_qubits,
            edge_means=edge_means,
        )

    def _cpm_pool(self, state: CompilationState) -> List[Layout]:
        """The deterministic CPM layout pool (cached per content key)."""
        key = CompilationCache.make_key(
            (
                self.device_key,
                state.memo.fingerprint,
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
                interactions=state.memo.routing.interactions,
                badness=self._badness(state),
            )

        return self._stage_cached(
            STAGE_PLACE, key, "compiler.place_hits", _place
        )

    def _finalize(
        self, candidate: CompiledCandidate, state: CompilationState
    ) -> ExecutableCircuit:
        """Freeze the winning candidate into an :class:`ExecutableCircuit`."""
        routed = candidate.routed
        return ExecutableCircuit(
            logical=state.circuit,
            physical=self._physical(routed, state.memo, state.circuit),
            initial_layout=routed.initial_layout.copy(),
            final_layout=routed.final_layout.copy(),
            device=self.device,
            num_swaps=routed.num_swaps,
            eps=candidate.plain_eps,
            _ideal_store=self.cache.ideal,
            routed=routed,
            _unitary_key=state.memo.unitary_key,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompilerPipeline(device={self.device.name!r})"

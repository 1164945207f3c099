"""The compiler: Noise-Aware SABRE and CPM recompilation, routed once.

:class:`CompilerPipeline` is the one compile entry.  ``compile`` is the
paper's baseline flow (Noise-Aware SABRE, §4.1: several noise-aware
initial layouts, each routed, the best by Expected Probability of
Success kept) and ``compile_cpm`` the CPM recompiler (§4.2.2).  Every
CPM of a program shares the *same unitary body* and differs only in
which qubits are measured — and SABRE emits measurements as a final
layer on each logical qubit's resting position anyway — so both run the
same five steps in line, each under its own ``compile.*`` span:

``place -> route -> retarget -> eps -> select``

* **place** proposes initial layouts (noise-aware exploration for the
  global compile; the global layout plus a deterministic,
  measured-set-agnostic *pool* for a CPM).
* **route** runs SABRE (:mod:`~repro.compiler.sabre`) on the array form
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
* **retarget** is the cheap per-CPM step: it resolves the circuit's
  measured qubits onto their final physical positions, never touching
  the routed body.
* **eps** computes plain and readout-emphasised EPS; the gate factor is
  a property of the routed body and is computed once per routing.
* **select** picks the best candidate: the emphasised-EPS argmax for the
  global compile, the no-extra-SWAPs rule against the global
  compilation for a CPM (:meth:`CompilerPipeline.compile_cpm`).

What a program body fixes is worked out once per pipeline and body, not
once per CPM: its fingerprints, its array form, the routing key of each
layout and each routed body's physical gates (:class:`_BodyMemo`).  The
vulnerable-qubit set is taken once per percentile, and placement's
coupler-error means once per device.  Each executable keeps the routed
body it was materialised from, so the backend reads the gate-failure
product and builds the exact-mode coalescing key
(:meth:`ExecutableCircuit.coalescing_key`) from content already in hand.

``JigSaw.plan`` compiles dozens of CPMs (more for JigSaw-M) by reusing
cached routed bodies and only re-running retarget+EPS per subset; each
step counts into the pipeline's registry (``compiler.route_calls``,
``compiler.retargets`` ...) and the stage store counts its hits and
misses (``cache.stage.<stage>.hits``), all read through
``Session.telemetry_snapshot()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

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
#: Exponent on the readout factor of the global compile's objective: it
#: maximises plain EPS.
GLOBAL_READOUT_EMPHASIS = 1.0
#: Exponent on the readout factor of the CPM objective: a CPM reads only
#: 2-5 qubits, so its measurement fidelity dominates (§4.2.2).
CPM_READOUT_EMPHASIS = 4.0


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


class _Candidate(NamedTuple):
    """One routed layout, scored for the circuit's measurements.

    ``eps`` is the plain EPS of the circuit on ``routed`` with its
    measurements retargeted; ``score`` is the procedure's objective (the
    readout factor raised to its emphasis).  Only the selected candidate
    is materialised into a physical schedule.
    """

    routed: RoutedBody
    eps: float
    score: float


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------


class CompilerPipeline:
    """The two compile procedures, bound to one device and one stage cache.

    Args:
        device: the compilation target.
        cache: the :class:`CompilationCache` whose *stage store* holds
            routed bodies and layout pools.  Defaults to a private cache;
            pass a shared one (e.g. a session's) to share routings across
            runners, or ``CompilationCache.disabled()`` to route every
            candidate afresh — results are bit-for-bit identical either
            way, because routing is a pure function of its content key.
        metrics: the registry compilation counts into (``compiler.*``);
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
        avoid_qubits: Sequence[int] = (),
        initial_layouts: Optional[Sequence[Layout]] = None,
    ) -> ExecutableCircuit:
        """Compile ``circuit`` maximising EPS (Noise-Aware SABRE, §4.1).

        Args:
            circuit: logical program; must end in measurements for
                execution.
            seed: RNG seed controlling placement exploration (routing is
                a pure function of content).
            attempts: number of placement+routing candidates to evaluate.
            avoid_qubits: physical qubits to penalise during placement
                (EDM diversity, vulnerable-qubit avoidance).
            initial_layouts: optional explicit layouts to route
                (bypasses placement; still selects by EPS).
        """
        if attempts < 1:
            raise CompilationError("attempts must be >= 1")
        self.metrics.counter("compiler.compiles").add()
        memo = self._body(circuit.remove_measurements())
        tracer = get_tracer()
        with tracer.span("compile", circuit=circuit.name):
            with tracer.span("compile.place"):
                self.metrics.counter("compiler.place_runs").add()
                if initial_layouts is None:
                    avoid = tuple(int(q) for q in avoid_qubits)
                    layouts = candidate_layouts(
                        circuit,
                        self.device,
                        num_candidates=attempts,
                        readout_weight=GLOBAL_READOUT_EMPHASIS,
                        avoid_qubits=avoid,
                        seed=as_generator(seed),
                        interactions=memo.routing.interactions,
                        badness=self._badness(GLOBAL_READOUT_EMPHASIS, avoid),
                    )
                else:
                    layouts = list(initial_layouts)
                    if not layouts:
                        raise CompilationError(
                            "initial_layouts must not be empty"
                        )
            candidates = self._candidates(
                circuit, memo, layouts, GLOBAL_READOUT_EMPHASIS
            )
            with tracer.span("compile.select"):
                self.metrics.counter("compiler.selects").add()
                # max keeps the first of equal scores.
                best = max(candidates, key=lambda c: c.score)
                return self._finalize(best, circuit, memo)

    def compile_cpm(
        self,
        cpm_circuit: QuantumCircuit,
        global_executable: ExecutableCircuit,
        recompile: bool = True,
        pool_size: int = 4,
        vulnerable_percentile: float = 75.0,
    ) -> ExecutableCircuit:
        """Compile one CPM by retargeting the shared routed bodies (§4.2.2).

        The candidates are the global layout (the no-recompilation
        baseline) and, with ``recompile``, the deterministic layout pool
        behind it; all of them route through the stage cache, so across a
        whole plan the pool is routed once and each CPM only pays
        retarget + EPS + select.  Selection follows the paper's
        no-extra-SWAPs rule: pool layouts whose routing needs no more
        SWAPs than the global compilation compete with the global layout
        on readout-emphasised EPS; when no pool layout fits that budget,
        the candidate with the best plain EPS wins, whatever its SWAP
        count (the global layout included).  Ties keep the earlier
        candidate, the global layout first.

        Args:
            cpm_circuit: the program body with a measured subset.
            global_executable: the global-mode compilation; its initial
                layout is the no-recompilation fallback and its SWAP
                count the budget pool layouts must meet.
            recompile: ``False`` reuses the global layout (the paper's
                "JigSaw w/o recompilation" ablation, Fig. 11).
            pool_size: size of the candidate layout pool.
            vulnerable_percentile: readout-error percentile above which
                a physical qubit is avoided.
        """
        self.metrics.counter("compiler.compiles").add()
        body = cpm_circuit.remove_measurements()
        memo = self._body(body)
        tracer = get_tracer()
        with tracer.span("compile", circuit=cpm_circuit.name):
            with tracer.span("compile.place"):
                self.metrics.counter("compiler.place_runs").add()
                base = global_executable.initial_layout
                layouts = [base]
                if recompile:
                    layouts += [
                        layout
                        for layout in self._cpm_pool(
                            body, memo, pool_size, vulnerable_percentile
                        )
                        if layout != base
                    ]
            baseline, *pool = self._candidates(
                cpm_circuit, memo, layouts, CPM_READOUT_EMPHASIS
            )
            with tracer.span("compile.select"):
                self.metrics.counter("compiler.selects").add()
                budget = global_executable.num_swaps
                qualified = [c for c in pool if c.routed.num_swaps <= budget]
                if qualified:
                    chosen = max([baseline] + qualified, key=lambda c: c.score)
                else:
                    chosen = max([baseline] + pool, key=lambda c: c.eps)
                return self._finalize(chosen, cpm_circuit, memo)

    def _candidates(
        self,
        circuit: QuantumCircuit,
        memo: _BodyMemo,
        layouts: Sequence[Layout],
        emphasis: float,
    ) -> List[_Candidate]:
        """Route ``circuit``'s body from every layout, retarget its
        measurements onto each routing and score each candidate: plain
        EPS and ``gate EPS * readout EPS ** emphasis``.  The gate factor
        rides along from the routed body; only the readout factor (a
        function of the retargeted measurements) is computed here."""
        tracer = get_tracer()
        with tracer.span("compile.route"):
            routings = [self._routed(memo, layout) for layout in layouts]
        with tracer.span("compile.retarget"):
            self.metrics.counter("compiler.retargets").add(len(routings))
            measures = circuit.measurements
            targets = [
                [routed.final_layout.physical(m.qubits[0]) for m in measures]
                for routed in routings
            ]
        with tracer.span("compile.eps"):
            self.metrics.counter("compiler.eps_evals").add(len(routings))
            candidates = []
            for routed, qubits in zip(routings, targets):
                readout = readout_eps_targets(qubits, self.device)
                candidates.append(
                    _Candidate(
                        routed,
                        routed.gate_eps * readout,
                        routed.gate_eps * readout ** emphasis,
                    )
                )
        return candidates

    # ------------------------------------------------------------------
    # Cache-aware primitives
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

    def _badness(
        self, weight: float, avoid: Tuple[int, ...]
    ) -> np.ndarray:
        """Placement's per-qubit badness at readout ``weight`` and avoid
        set, from the device's coupler-error means (kept once per device
        in the stage store)."""
        edge_means, _ = self.cache.stage_get_or_compute(
            _STAGE_DEVICE, self.device_key, lambda: edge_error_means(self.device)
        )
        return qubit_badness(self.device, weight, avoid, edge_means=edge_means)

    def _cpm_pool(
        self,
        body: QuantumCircuit,
        memo: _BodyMemo,
        size: int,
        vulnerable_percentile: float,
    ) -> List[Layout]:
        """The deterministic CPM layout pool, avoiding the vulnerable
        qubits (cached per content key)."""
        avoid = self._vulnerable.get(vulnerable_percentile)
        if avoid is None:
            avoid = self._vulnerable[vulnerable_percentile] = tuple(
                self.device.vulnerable_qubits(vulnerable_percentile)
            )
        key = CompilationCache.make_key(
            (
                self.device_key,
                memo.fingerprint,
                f"size={size}",
                f"weight={CPM_READOUT_EMPHASIS!r}",
                f"avoid={sorted(avoid)!r}",
            )
        )

        def _place() -> List[Layout]:
            return pool_layouts(
                body,
                self.device,
                pool_size=size,
                readout_weight=CPM_READOUT_EMPHASIS,
                avoid_qubits=avoid,
                interactions=memo.routing.interactions,
                badness=self._badness(CPM_READOUT_EMPHASIS, avoid),
            )

        return self._stage_cached(
            STAGE_PLACE, key, "compiler.place_hits", _place
        )

    def _finalize(
        self, candidate: _Candidate, circuit: QuantumCircuit, memo: _BodyMemo
    ) -> ExecutableCircuit:
        """Freeze the selected candidate into an :class:`ExecutableCircuit`."""
        routed = candidate.routed
        return ExecutableCircuit(
            logical=circuit,
            physical=self._physical(routed, memo, circuit),
            initial_layout=routed.initial_layout.copy(),
            final_layout=routed.final_layout.copy(),
            device=self.device,
            num_swaps=routed.num_swaps,
            eps=candidate.eps,
            _ideal_store=self.cache.ideal,
            routed=routed,
            _unitary_key=memo.unitary_key,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompilerPipeline(device={self.device.name!r})"

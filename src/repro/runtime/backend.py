"""Execution backend: batch evaluation of compiled circuits into PMFs.

:class:`LocalBackend` takes a **batch** of :class:`ExecutionRequest`s —
the global executable plus every CPM, each with its trial allocation —
and returns one :class:`~repro.core.pmf.PMF` per request.  Every
executable in a JigSaw batch shares one unitary body, so the backend
computes **one statevector per body** (grouped by
:func:`~repro.runtime.fingerprint.unitary_body_fingerprint`, which the
pipeline hands each executable it compiles) instead of one per circuit —
and, through the compiling cache's
:class:`~repro.runtime.cache.IdealStore`, once per cache rather than
once per batch.

It is the one execution engine; every batch — a solo session's, a
sweep's, the serving tier's merged splice — is evaluated in-process
through the same body, and every request of a batch evaluates on the
backend's own :class:`~repro.noise.sampler.NoisySampler`:

* **Exact or sampled** — ``exact=True`` evaluates the closed-form noisy
  distribution (the infinite-trials limit, deterministic and RNG-free);
  ``exact=False`` samples the allocated trials through **per-request
  seed streams**: each batch spawns one child stream per request *index*
  off the sampler's stream before any evaluation, so a request's draws
  depend only on its position in the batch.
* **Coalescing** — exact mode merges requests whose executables share a
  coalescing key (sweeps and scheme comparisons repeat whole programs)
  into one evaluation group and shares its PMF: output unchanged, one
  channel evaluation per *unique* executable.  The key
  (:meth:`~repro.compiler.pipeline.ExecutableCircuit.coalescing_key`)
  is built from what the executable already carries — the logical
  unitary fingerprint and measurement map, the routed body's routing key
  and the measured physical qubits — not hashed over the physical
  circuit per request, and it tells apart programs that share a routed
  body but not their angles.  The channel's gate-failure product comes
  off the routed body as well, once per routing.  Sampling keeps one
  group per request, so every request keeps its own stream.

Work counters (``backend.requests``, ``backend.groups``,
``backend.statevector_evals``, ``backend.channel_evals`` ...) live in the
backend's telemetry registry, so benchmarks assert the coalescing win on
a snapshot instead of guessing at it from wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.pmf import PMF
from repro.exceptions import SimulationError
from repro.noise.model import NoiseModel
from repro.noise.sampler import NoisySampler
from repro.sim.kernels import structure_key
from repro.telemetry.metrics import MetricsRegistry
from repro.sim.statevector import StatevectorSimulator
from repro.utils.random import SeedLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.compiler.pipeline import ExecutableCircuit

__all__ = [
    "ExecutionRequest",
    "LocalBackend",
]


def stacked_channel_counts(
    executables: Sequence[ExecutableCircuit],
) -> Tuple[int, int]:
    """Stacking counters of one exact-channel call over ``executables``.

    :meth:`NoisySampler.exact_group_distributions` contracts each measured
    width as one stack; returns ``(stacked_evals, stacked_circuits)``:
    the widths holding more than one executable, and how many
    executables those cover.
    """
    widths: Dict[int, int] = {}
    for executable in executables:
        k = len(executable.logical.measurement_map)
        widths[k] = widths.get(k, 0) + 1
    stacked = [count for count in widths.values() if count > 1]
    return len(stacked), sum(stacked)


@dataclass(frozen=True)
class ExecutionRequest:
    """One circuit execution: a compiled artifact plus its trial budget.

    ``trials == 0`` is a valid request in exact mode (which evaluates the
    closed-form distribution regardless of the allocation); a sampling
    backend rejects it at execution time.

    ``tag`` is free-form provenance (e.g. ``"global"``, ``"cpm[3]"``)
    carried into logs.  A request's *seed stream* is not part of the
    request: a sampling backend spawns one child stream per batch
    position, so the position of a request in its batch — not its tag —
    determines its draws.
    """

    executable: ExecutableCircuit
    trials: int
    tag: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise SimulationError(
                f"trials must be non-negative, got {self.trials}"
            )


class LocalBackend:
    """Local simulation of a batch, exact or sampled, evaluated in-process.

    Args:
        sampler: supplies the noise model, the chunk size and — when
            sampling — the per-request seed streams.  Built from
            ``noise_model`` and ``seed`` when omitted.
        exact: evaluate closed-form distributions (RNG-free; trial counts
            are recorded but do not affect the output, and duplicate
            executables coalesce) instead of sampling the allocations.
        noise_model / seed: build the sampler when ``sampler`` is None.
        metrics: the registry the ``backend.*`` work counters record
            into; defaults to a private one.
    """

    def __init__(
        self,
        sampler: Optional[NoisySampler] = None,
        exact: bool = True,
        noise_model: Optional[NoiseModel] = None,
        seed: SeedLike = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if sampler is None:
            if noise_model is None:
                raise SimulationError(
                    "a local backend needs a sampler or a noise model"
                )
            sampler = NoisySampler(noise_model, seed=seed)
        self.sampler = sampler
        self.exact = exact
        self.name = "local-exact" if exact else "local-sampling"
        #: Work counters — the quantities batching and coalescing save;
        #: benchmarks assert on these instead of wall time.
        #: ``backend.stacked_evals``/``backend.stacked_circuits`` count
        #: the contractions that ran stacked (batch > 1) and the circuits
        #: that rode them.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._batches = self.metrics.counter("backend.batches")
        self._requests_seen = self.metrics.counter("backend.requests")
        self._groups_evaluated = self.metrics.counter("backend.groups")
        self._statevector_evals = self.metrics.counter(
            "backend.statevector_evals"
        )
        self._channel_evals = self.metrics.counter("backend.channel_evals")
        self._spliced_parts = self.metrics.counter("backend.spliced_parts")
        self._stacked_evals = self.metrics.counter("backend.stacked_evals")
        self._stacked_circuits = self.metrics.counter(
            "backend.stacked_circuits"
        )

    # ------------------------------------------------------------------

    @staticmethod
    def share_statevectors(
        requests: Sequence[ExecutionRequest],
    ) -> Tuple[int, int, int]:
        """Give every executable of a batch its ideal probabilities.

        Executables that already carry (shared) ideal probabilities are
        left untouched; the rest are grouped by unitary-body fingerprint.
        A body whose vector the compiling cache's
        :class:`~repro.runtime.cache.IdealStore` holds is served from it;
        the others are simulated once each, and bodies sharing a gate
        *structure* evolve as one stacked contraction whose rows are
        recorded in the store.  Returns ``(contractions, stacked_evals,
        stacked_circuits)``: the number of simulator calls (one per gate
        structure), how many of them ran with batch > 1, and how many
        unique bodies those covered.
        """
        pending: Dict[str, List[ExecutableCircuit]] = {}
        for request in requests:
            executable = request.executable
            if executable._ideal_probabilities is not None:
                continue
            pending.setdefault(executable.unitary_key, []).append(executable)
        by_structure: Dict[tuple, List[tuple]] = {}
        for key, group in pending.items():
            # A body's executables come from one compilation cache.
            store = group[0]._ideal_store
            vector = store.get(key) if store is not None else None
            if vector is not None:
                for executable in group:
                    executable.share_ideal_probabilities(vector)
                continue
            by_structure.setdefault(
                structure_key(group[0].logical), []
            ).append((key, group, store))
        simulator = StatevectorSimulator()
        stacked_evals = 0
        stacked_circuits = 0
        for body_groups in by_structure.values():
            rows = simulator.probabilities_stacked(
                [group[0].logical for _, group, _ in body_groups]
            )
            stacked = len(body_groups) > 1
            if stacked:
                stacked_evals += 1
                stacked_circuits += len(body_groups)
            for row, (key, group, store) in zip(rows, body_groups):
                vector = row
                if store is not None:
                    # A stacked row is a view of the whole stack: a kept
                    # copy lets the stack go and the bound count true bytes.
                    vector = row.copy() if stacked else row
                    store.put(key, vector)
                for executable in group:
                    executable.share_ideal_probabilities(vector)
        return len(by_structure), stacked_evals, stacked_circuits

    def request_streams(self, count: int) -> List[Optional[object]]:
        """One RNG stream per batch position (``None`` in exact mode).

        Exact evaluation never touches the sampler RNG; keeping the
        spawn counter untouched preserves RNG-free exact runs.
        """
        if self.exact:
            return [None] * count
        return list(self.sampler.spawn_streams(count))

    def _group_indices(
        self, requests: Sequence[ExecutionRequest]
    ) -> List[List[int]]:
        """Batch positions grouped by coalescing key (order-stable).

        Only exact mode coalesces: its evaluation is content-pure, and the
        key covers everything it reads, so a group's shared PMF is every
        member's.  Sampling keeps one group (and therefore one stream)
        per request.
        """
        if not self.exact:
            return [[index] for index in range(len(requests))]
        groups: Dict[object, List[int]] = {}
        for index, request in enumerate(requests):
            key = request.executable.coalescing_key()
            groups.setdefault(key, []).append(index)
        return list(groups.values())

    def execute(self, requests: Sequence[ExecutionRequest]) -> List[PMF]:
        """Evaluate the batch; one PMF per request, in order."""
        requests = list(requests)
        if not requests:
            return []
        # Seed streams are spawned per request index *before* evaluation —
        # the whole determinism story.
        return self._execute_prepared(
            requests, self.request_streams(len(requests))
        )

    def execute_spliced(
        self,
        parts: Sequence[Tuple["LocalBackend", Sequence[ExecutionRequest]]],
    ) -> List[List[PMF]]:
        """Execute several independently-seeded batches as **one** batch.

        This is the cross-job submission path of the service layer
        (:mod:`repro.service`): each part is one job's ``(local backend,
        requests)`` pair.  Every part spawns its seed streams from *its
        own* backend, exactly as a solo ``execute`` of just that part
        would — so a part's draws are independent of which other parts
        share the merged batch — while every request evaluates on this
        backend's sampler, and statevector sharing and (in exact mode)
        coalescing by coalescing key operate across the whole splice.  Returns one PMF list per part, in part order.

        A part must share this backend's mode (exact vs sampling) and
        ``chunk_shots`` — the one sampler setting that moves sampled
        bits — or :class:`SimulationError` is raised.  All parts must
        also share this backend's noise model by content, which the
        service guarantees by grouping jobs by device fingerprint and
        mode.  Under these preconditions every part's PMFs equal a solo
        ``execute`` of it, bit for bit.
        """
        prepared: List[Tuple[LocalBackend, List[ExecutionRequest]]] = []
        for part, requests in parts:
            if not isinstance(part, LocalBackend):
                raise SimulationError(
                    "execute_spliced takes local-backend parts; got "
                    f"{type(part).__name__}"
                )
            if part.exact != self.exact:
                raise SimulationError(
                    "spliced parts must all share the backend mode "
                    "(exact vs sampling)"
                )
            if part.sampler.chunk_shots != self.sampler.chunk_shots:
                raise SimulationError(
                    "spliced parts must share the executor's chunk_shots "
                    f"({self.sampler.chunk_shots}); got "
                    f"{part.sampler.chunk_shots}"
                )
            prepared.append((part, list(requests)))
        all_requests: List[ExecutionRequest] = []
        all_streams: List[object] = []
        bounds = []
        for part, requests in prepared:
            start = len(all_requests)
            all_streams.extend(part.request_streams(len(requests)))
            all_requests.extend(requests)
            bounds.append((start, len(all_requests)))
        self._spliced_parts.add(len(prepared))
        if not all_requests:
            return [[] for _ in prepared]
        results = self._execute_prepared(all_requests, all_streams)
        return [results[start:stop] for start, stop in bounds]

    def _execute_prepared(
        self, requests: List[ExecutionRequest], streams: Sequence[object]
    ) -> List[PMF]:
        """Shared tail of ``execute``/``execute_spliced``: share the ideal
        vectors, group, evaluate on this backend's sampler; PMFs in batch
        order.  ``streams`` is aligned per request."""
        self._batches.add(1)
        self._requests_seen.add(len(requests))
        contractions, stacked, circuits = self.share_statevectors(requests)
        self._statevector_evals.add(contractions)
        self._stacked_evals.add(stacked)
        self._stacked_circuits.add(circuits)
        groups = self._group_indices(requests)
        if not self.exact and any(request.trials <= 0 for request in requests):
            raise SimulationError("shots must be positive")
        self._groups_evaluated.add(len(groups))
        self._channel_evals.add(len(groups))
        if self.exact:
            return self._exact_pmfs(requests, groups)
        # Sampling: one group, and one stream, per request.
        return [
            self.sampler.run_codes(
                request.executable, request.trials, rng=stream
            ).to_pmf()
            for request, stream in zip(requests, streams)
        ]

    def _exact_pmfs(
        self, requests: List[ExecutionRequest], groups: List[List[int]]
    ) -> List[PMF]:
        """One closed-form PMF per coalesced group, shared by its members.

        The groups' leaders evaluate as one stacked channel contraction
        per measured width (:meth:`NoisySampler.exact_group_distributions`).
        """
        executables = [requests[group[0]].executable for group in groups]
        distributions = self.sampler.exact_group_distributions(executables)
        stacked, circuits = stacked_channel_counts(executables)
        self._stacked_evals.add(stacked)
        self._stacked_circuits.add(circuits)
        results: List[Optional[PMF]] = [None] * len(requests)
        for group, (codes, probs, num_bits) in zip(groups, distributions):
            pmf = PMF.from_codes(codes, probs, num_bits)
            for index in group:
                results[index] = pmf
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LocalBackend(exact={self.exact})"

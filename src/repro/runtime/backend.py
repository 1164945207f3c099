"""Execution backend: batch evaluation of compiled circuits into PMFs.

A :class:`Backend` takes a **batch** of :class:`ExecutionRequest`s — the
global executable plus every CPM, each with its trial allocation — and
returns one :class:`~repro.core.pmf.PMF` per request.  Batching is what
makes the JigSaw pipeline cheap on a simulator and natural on hardware:

* every executable in a JigSaw batch shares one unitary body, so the
  local backend computes **one statevector per body** for the whole batch
  (grouped by :func:`~repro.runtime.fingerprint.unitary_body_fingerprint`)
  instead of one per circuit;
* a single entry point per batch is the seam where a remote backend would
  submit one job with many circuits instead of round-tripping per CPM.

:class:`LocalBackend` is the one local engine; every batch — a solo
session's, a sharded sweep's, the serving tier's merged splice — runs
through the same body:

* **Exact or sampled** — ``exact=True`` evaluates the closed-form noisy
  distribution (the infinite-trials limit, deterministic and RNG-free);
  ``exact=False`` samples the allocated trials through **per-request
  seed streams**: each batch spawns one child stream per request *index*
  off the :class:`~repro.noise.sampler.NoisySampler` stream, so a
  request's draws depend only on its position in the batch.
* **Coalescing** — exact mode merges requests whose executables share a
  content fingerprint (JigSaw's global circuit and its CPMs share one
  body, and sweeps repeat whole programs) into one evaluation group and
  shares its PMF: output unchanged, one channel evaluation per *unique*
  executable.  Sampling keeps one group per request, so every request
  keeps its own stream.
* **Sharding** — ``workers > 1`` partitions the batch's groups across a
  thread or process pool.  Streams are spawned before dispatch, so a
  request's draws never depend on which worker ran it: every worker
  count yields bit-for-bit the same PMFs under a fixed seed.

Work counters (``backend.requests``, ``backend.groups``,
``backend.statevector_evals``, ``backend.channel_evals`` ...) live in the
backend's telemetry registry, so benchmarks assert the coalescing win on
a snapshot instead of guessing at it from wall clock.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.core.pmf import PMF
from repro.exceptions import SimulationError
from repro.noise.model import NoiseModel
from repro.noise.sampler import NoisySampler
from repro.runtime.fingerprint import (
    executable_fingerprint,
    unitary_body_fingerprint,
)
from repro.sim.kernels import structure_key
from repro.telemetry.metrics import MetricsRegistry
from repro.sim.statevector import StatevectorSimulator
from repro.utils.random import SeedLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.compiler.pipeline import ExecutableCircuit

__all__ = [
    "EXECUTORS",
    "ExecutionRequest",
    "Backend",
    "LocalBackend",
]

#: Worker-pool kinds :class:`LocalBackend` shards across.
EXECUTORS = ("thread", "process")


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

    ``trials == 0`` is a valid request for backends that do not sample
    (exact mode evaluates the closed-form distribution regardless of the
    allocation); sampling backends reject it at execution time.

    ``tag`` is free-form provenance (e.g. ``"global"``, ``"cpm[3]"``)
    carried into logs and shard summaries.  A request's *seed stream* is
    not part of the request: sampling backends spawn one child stream per
    batch position, so the position of a request in its batch — not its
    tag, not the worker that evaluates it — determines its draws.
    """

    executable: ExecutableCircuit
    trials: int
    tag: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise SimulationError(
                f"trials must be non-negative, got {self.trials}"
            )


@runtime_checkable
class Backend(Protocol):
    """Anything that turns a batch of execution requests into PMFs.

    Implementations must return exactly one PMF per request, in request
    order.  ``name`` identifies the engine in plan summaries and logs.
    """

    name: str

    def execute(self, requests: Sequence[ExecutionRequest]) -> List[PMF]:
        """Evaluate every request; one PMF per request, in order."""
        ...  # pragma: no cover - protocol


def _evaluate_shard(payload) -> Tuple[List[int], List[tuple], Dict[str, int]]:
    """Evaluate one shard — a contiguous run of coalesced groups.

    Module-level (not a closure) so the process-pool executor can pickle
    it.  Exact shards stack their groups: all group leaders sharing one
    sampler configuration evaluate the noise channel as one batched
    contraction per measured width (:meth:`NoisySampler.
    exact_group_distributions`); sampling shards run each group through
    the group-stacked sampler (:meth:`NoisySampler.run_many_codes`).
    Returns raw ``(codes, values, num_bits)`` array triples, not PMFs, so
    the result crosses process boundaries cheaply, plus the shard's
    stacking counters; the parent rebuilds PMFs in batch order.
    """
    groups, exact = payload
    indices_out: List[int] = []
    distributions: List[tuple] = []
    shard_stats = {"stacked_evals": 0, "stacked_circuits": 0}
    # Seed 0 avoids an OS-entropy pull for default streams that are never
    # drawn: exact mode is RNG-free and sampling always passes rng in.
    samplers: Dict[Tuple[int, int], NoisySampler] = {}

    def sampler_for(noise_model, chunk_shots) -> NoisySampler:
        key = (id(noise_model), chunk_shots)
        if key not in samplers:
            samplers[key] = NoisySampler(
                noise_model, seed=0, chunk_shots=chunk_shots
            )
        return samplers[key]

    if exact:
        # Partition the shard's groups by sampler configuration (spliced
        # parts may carry distinct noise-model instances) and evaluate
        # each partition as one stacked channel contraction.
        partitions: Dict[Tuple[int, int], List[tuple]] = {}
        for group in groups:
            noise_model, chunk_shots = group[0], group[1]
            partitions.setdefault(
                (id(noise_model), chunk_shots), []
            ).append(group)
        for members in partitions.values():
            sampler = sampler_for(members[0][0], members[0][1])
            executables = [group[2] for group in members]
            triples = sampler.exact_group_distributions(executables)
            stacked, circuits = stacked_channel_counts(executables)
            shard_stats["stacked_evals"] += stacked
            shard_stats["stacked_circuits"] += circuits
            for group, triple in zip(members, triples):
                group_indices = group[3]
                indices_out.extend(group_indices)
                distributions.extend([triple] * len(group_indices))
        return indices_out, distributions, shard_stats

    for noise_model, chunk_shots, executable, group_indices, trials, rng in groups:
        sampler = sampler_for(noise_model, chunk_shots)
        histograms = sampler.run_many_codes(executable, trials, rng=rng)
        if len(trials) > 1:
            shard_stats["stacked_evals"] += 1
            shard_stats["stacked_circuits"] += len(trials)
        indices_out.extend(group_indices)
        distributions.extend(
            (chunk.codes, chunk.counts.astype(float), chunk.num_bits)
            for chunk in histograms
        )
    return indices_out, distributions, shard_stats


class LocalBackend:
    """Local simulation of a batch: exact or sampled, in-process or sharded.

    Args:
        sampler: supplies the noise model, the chunk size and — when
            sampling — the per-request seed streams.  Built from
            ``noise_model`` and ``seed`` when omitted.
        exact: evaluate closed-form distributions (RNG-free; trial counts
            are recorded but do not affect the output, and duplicate
            executables coalesce) instead of sampling the allocations.
        workers: pool size; ``None``/``0``/``1`` evaluates in-process.
            Any value yields identical PMFs.
        executor: ``"thread"`` (default) or ``"process"``.  Threads share
            the parent's executables (no pickling); processes sidestep
            the GIL for CPU-bound channel evaluation at the cost of
            shipping payloads.
        noise_model / seed: build the sampler when ``sampler`` is None.
        metrics: the registry the ``backend.*`` work counters record
            into; defaults to a private one.
    """

    def __init__(
        self,
        sampler: Optional[NoisySampler] = None,
        exact: bool = True,
        workers: Optional[int] = None,
        executor: str = "thread",
        noise_model: Optional[NoiseModel] = None,
        seed: SeedLike = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise SimulationError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if workers is not None and workers < 0:
            raise SimulationError("workers must be >= 0")
        if sampler is None:
            if noise_model is None:
                raise SimulationError(
                    "a local backend needs a sampler or a noise model"
                )
            sampler = NoisySampler(noise_model, seed=seed)
        self.sampler = sampler
        self.exact = exact
        self.workers = workers
        self.executor = executor
        self.name = "local-exact" if exact else "local-sampling"
        # The pool is created lazily on first use and reused across
        # batches — process workers in particular are far too expensive
        # to respawn per execute().  close() (or the context manager)
        # releases it.
        self._pool = None
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
        self._shards_dispatched = self.metrics.counter("backend.shards")
        self._stacked_evals = self.metrics.counter("backend.stacked_evals")
        self._stacked_circuits = self.metrics.counter(
            "backend.stacked_circuits"
        )

    # ------------------------------------------------------------------

    @staticmethod
    def share_statevectors(
        requests: Sequence[ExecutionRequest],
    ) -> Tuple[int, int, int]:
        """Compute the ideal statevectors of a batch, stacked where possible.

        Executables that already carry (shared) ideal probabilities are
        left untouched; the rest are grouped by unitary-body fingerprint
        (one simulation per unique body) and bodies sharing a gate
        *structure* evolve as one stacked contraction.  Returns
        ``(contractions, stacked_evals, stacked_circuits)``: the number
        of simulator calls (one per gate structure), how many of them ran
        with batch > 1, and how many unique bodies those covered.  The
        batch saving is ``len(requests) - contractions``.
        """
        pending: Dict[str, List[ExecutableCircuit]] = {}
        for request in requests:
            executable = request.executable
            if executable._ideal_probabilities is not None:
                continue
            key = unitary_body_fingerprint(executable.logical)
            pending.setdefault(key, []).append(executable)
        by_structure: Dict[tuple, List[List[ExecutableCircuit]]] = {}
        for group in pending.values():
            by_structure.setdefault(
                structure_key(group[0].logical), []
            ).append(group)
        simulator = StatevectorSimulator()
        stacked_evals = 0
        stacked_circuits = 0
        for body_groups in by_structure.values():
            rows = simulator.probabilities_stacked(
                [group[0].logical for group in body_groups]
            )
            if len(body_groups) > 1:
                stacked_evals += 1
                stacked_circuits += len(body_groups)
            for row, group in zip(rows, body_groups):
                for executable in group:
                    executable.share_ideal_probabilities(row)
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
        """Batch positions grouped by executable content (order-stable).

        Only exact mode coalesces: its evaluation is content-pure, so a
        group's shared PMF is every member's.  Sampling keeps one group
        (and therefore one stream) per request.
        """
        if not self.exact:
            return [[index] for index in range(len(requests))]
        by_fingerprint: Dict[str, List[int]] = {}
        for index, request in enumerate(requests):
            key = executable_fingerprint(request.executable)
            by_fingerprint.setdefault(key, []).append(index)
        return list(by_fingerprint.values())

    def _payloads(
        self,
        requests: Sequence[ExecutionRequest],
        groups: Sequence[List[int]],
        streams: Sequence[object],
        samplers: Sequence[NoisySampler],
    ) -> List[tuple]:
        """One group tuple per coalesced group; the leader's sampler
        supplies the noise model and chunk size (``samplers`` is aligned
        per request — spliced batches carry one sampler per job)."""
        payloads = []
        for group in groups:
            leader = requests[group[0]]
            sampler = samplers[group[0]]
            trials = [requests[index].trials for index in group]
            if not self.exact:
                for allocation in trials:
                    if allocation <= 0:
                        raise SimulationError("shots must be positive")
            payloads.append(
                (
                    sampler.noise_model,
                    sampler.chunk_shots,
                    leader.executable,
                    list(group),
                    trials,
                    streams[group[0]],
                )
            )
        return payloads

    def _shards(self, group_payloads: List[tuple]) -> List[List[tuple]]:
        """Contiguous split of the batch's groups into worker shards.

        A shard — not a single group — is the unit of work a worker
        executes, so each worker evaluates its run of groups as stacked
        contractions.  Contiguity keeps the split deterministic and
        order-stable; the shard count is ``min(workers, groups)``.
        """
        total = len(group_payloads)
        workers = self.workers if self.workers and self.workers > 1 else 1
        count = max(1, min(workers, total))
        shards: List[List[tuple]] = []
        start = 0
        for index in range(count):
            size = total // count + (1 if index < total % count else 0)
            shards.append(group_payloads[start : start + size])
            start += size
        return shards

    def execute(self, requests: Sequence[ExecutionRequest]) -> List[PMF]:
        """Evaluate the batch; one PMF per request, in order."""
        requests = list(requests)
        if not requests:
            return []
        # Seed streams are spawned per request index *before* dispatch —
        # the whole determinism story.
        streams = self.request_streams(len(requests))
        return self._execute_prepared(
            requests, streams, [self.sampler] * len(requests)
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
        share the merged batch — while statevector sharing, sharding,
        and (in exact mode) coalescing by executable fingerprint all
        operate across the whole splice.  Returns one PMF list per part,
        in part order.

        Preconditions (the service enforces them by grouping jobs by
        device fingerprint and mode): every part's backend must share
        this backend's mode (exact vs sampling), and in sampling mode all
        parts must share one noise model by content.  Exact-mode
        coalescing across parts is bit-for-bit safe: evaluation is
        content-pure and RNG-free.
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
            prepared.append((part, list(requests)))
        all_requests: List[ExecutionRequest] = []
        all_streams: List[object] = []
        all_samplers: List[NoisySampler] = []
        bounds = []
        for part, requests in prepared:
            start = len(all_requests)
            all_streams.extend(part.request_streams(len(requests)))
            all_requests.extend(requests)
            all_samplers.extend([part.sampler] * len(requests))
            bounds.append((start, len(all_requests)))
        self._spliced_parts.add(len(prepared))
        if not all_requests:
            return [[] for _ in prepared]
        results = self._execute_prepared(all_requests, all_streams, all_samplers)
        return [results[start:stop] for start, stop in bounds]

    def _execute_prepared(
        self,
        requests: List[ExecutionRequest],
        streams: Sequence[object],
        samplers: Sequence[NoisySampler],
    ) -> List[PMF]:
        """Shared tail of ``execute``/``execute_spliced``: group, shard,
        fan out, rebuild PMFs in batch order."""
        self._batches.add(1)
        self._requests_seen.add(len(requests))
        contractions, stacked, circuits = self.share_statevectors(requests)
        self._statevector_evals.add(contractions)
        self._stacked_evals.add(stacked)
        self._stacked_circuits.add(circuits)
        groups = self._group_indices(requests)
        group_payloads = self._payloads(requests, groups, streams, samplers)
        self._groups_evaluated.add(len(groups))
        self._channel_evals.add(len(groups))

        shards = self._shards(group_payloads)
        self._shards_dispatched.add(len(shards))
        payloads = [(shard, self.exact) for shard in shards]
        pool = self._get_pool()
        if pool is None:
            outcomes = [_evaluate_shard(payload) for payload in payloads]
        else:
            outcomes = list(pool.map(_evaluate_shard, payloads))

        results: List[Optional[PMF]] = [None] * len(requests)
        for indices, distributions, shard_stats in outcomes:
            self._stacked_evals.add(shard_stats["stacked_evals"])
            self._stacked_circuits.add(shard_stats["stacked_circuits"])
            shared: Dict[int, PMF] = {}
            for index, (codes, values, num_bits) in zip(indices, distributions):
                # Exact groups share one distribution object; build the
                # PMF once and share it the way the arrays are shared.
                key = id(codes)
                if key not in shared:
                    shared[key] = PMF.from_codes(codes, values, num_bits)
                results[index] = shared[key]
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _get_pool(self):
        if self.workers is None or self.workers <= 1:
            return None
        if self._pool is None:
            pool_cls = (
                ProcessPoolExecutor
                if self.executor == "process"
                else ThreadPoolExecutor
            )
            self._pool = pool_cls(max_workers=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down; the backend stays usable (relazied)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "LocalBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LocalBackend(exact={self.exact}, workers={self.workers}, "
            f"executor={self.executor!r})"
        )

"""Sharded execution: partition a batch across workers, deterministically.

:class:`ShardedBackend` wraps a local backend and makes ``execute`` scale
without changing a single bit of its output:

* **Sharding** — the batch is partitioned across a thread or process
  pool.  Determinism survives because seed streams are spawned **per
  request index** before dispatch (see
  :meth:`~repro.runtime.backend.LocalSamplingBackend.request_streams`):
  a request's draws depend on its batch position, never on which worker
  ran it or in what order workers finished.  ``workers=1`` and
  ``workers=16`` are bit-for-bit identical to the serial backend under a
  fixed seed.
* **Coalescing** — requests whose executables share a content
  fingerprint (the common case: JigSaw's global circuit and its CPMs
  share one unitary body, and sweeps repeat whole programs) are merged
  into one evaluation group.  Exact mode evaluates the noisy channel
  once per group and shares the PMF — output unchanged, work reduced
  from one channel evaluation per request to one per *unique*
  executable.  Sampling mode keeps one stream per request by default
  (coalescing off) so serial parity holds; opting in
  (``coalesce=True``) draws each group's allocations sequentially from
  the group leader's stream — still deterministic at any worker count,
  but a differently-seeded (equally valid) sample than the serial
  backend's.

Work counters (``backend.requests``, ``backend.groups``,
``backend.statevector_evals``, ``backend.channel_evals`` ...) live in the
backend's telemetry registry, so benchmarks assert the coalescing win on
a snapshot instead of guessing at it from wall clock.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pmf import PMF
from repro.exceptions import SimulationError
from repro.noise.sampler import NoisySampler
from repro.runtime.backend import (
    Backend,
    ExecutionRequest,
    _LocalBackend,
    local_backend,
    stacked_channel_counts,
)
from repro.runtime.fingerprint import executable_fingerprint
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["ShardedBackend", "sharded_local_backend"]


def sharded_local_backend(
    sampler,
    exact: bool,
    workers: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Backend:
    """The local backend for a sampler, sharded when a fan-out is set.

    The single place that turns a ``workers`` knob into a backend —
    shared by :class:`~repro.runtime.session.Session` and the JigSaw
    runners so their wrap rules cannot drift.  ``None``/``0``/``1``
    stays serial (no wrapper), anything larger shards; either way the
    results are bit-for-bit identical.  ``metrics`` lands on whichever
    backend does the counting (the wrapper when sharded).
    """
    if workers is not None and workers > 1:
        return ShardedBackend(
            local_backend(sampler, exact), workers=workers, metrics=metrics
        )
    return local_backend(sampler, exact, metrics=metrics)


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


class ShardedBackend:
    """A local backend partitioned across a worker pool, bit-for-bit.

    Args:
        inner: the local backend to shard (``LocalExactBackend`` or
            ``LocalSamplingBackend``).  Its sampler supplies the noise
            model, the chunk size, and — for sampling — the per-request
            seed streams.
        workers: pool size; ``None``/``0``/``1`` evaluates in-process
            (still coalesced).  Any value yields identical PMFs.
        coalesce: merge requests with identical executable fingerprints
            into one evaluation group.  ``None`` (default) enables it
            exactly when the inner backend is deterministic (exact mode),
            where it provably cannot change results.  Forcing ``True`` on
            a sampling backend merges the groups' seed streams: results
            stay deterministic and worker-count independent but differ
            from the uncoalesced stream.
        executor: ``"thread"`` (default) or ``"process"``.  Threads share
            the parent's executables (no pickling); processes sidestep
            the GIL for CPU-bound channel evaluation at the cost of
            shipping payloads.
    """

    def __init__(
        self,
        inner: _LocalBackend,
        workers: Optional[int] = None,
        coalesce: Optional[bool] = None,
        executor: str = "thread",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not isinstance(inner, _LocalBackend):
            raise SimulationError(
                "ShardedBackend shards the local backends; got "
                f"{type(inner).__name__}"
            )
        if executor not in {"thread", "process"}:
            raise SimulationError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if workers is not None and workers < 0:
            raise SimulationError("workers must be >= 0")
        self.inner = inner
        self.workers = workers
        self.coalesce = inner.deterministic if coalesce is None else coalesce
        self.executor = executor
        self.name = f"sharded-{inner.name}"
        # The pool is created lazily on first use and reused across
        # batches — process workers in particular are far too expensive
        # to respawn per execute().  close() (or the context manager)
        # releases it.
        self._pool = None
        #: Work counters under ``backend.*``.  The inner backend's
        #: registry is attached: whichever side counts an event (the
        #: wrapper on sharded paths, the inner on direct
        #: ``inner.execute`` calls), the merged view sums correctly.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if self.metrics is not inner.metrics:
            self.metrics.attach(inner.metrics)
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

    def _group_indices(
        self, requests: Sequence[ExecutionRequest]
    ) -> List[List[int]]:
        """Batch positions grouped by executable content (order-stable)."""
        if not self.coalesce:
            return [[index] for index in range(len(requests))]
        by_fingerprint: "Dict[str, List[int]]" = {}
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
        exact = self.inner.deterministic
        payloads = []
        for group in groups:
            leader = requests[group[0]]
            sampler = samplers[group[0]]
            trials = [requests[index].trials for index in group]
            if not exact:
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
        """Evaluate the batch across the pool; one PMF per request, in order."""
        requests = list(requests)
        if not requests:
            return []
        # Seed streams are spawned per request index *before* dispatch —
        # the whole determinism story.  Exact mode returns Nones and
        # leaves the sampler's spawn counter untouched.
        streams = self.inner.request_streams(len(requests))
        return self._execute_prepared(
            requests, streams, [self.inner.sampler] * len(requests)
        )

    def execute_spliced(
        self,
        parts: Sequence[Tuple[_LocalBackend, Sequence[ExecutionRequest]]],
    ) -> List[List[PMF]]:
        """Execute several independently-seeded batches as **one** batch.

        This is the cross-job submission path of the service layer
        (:mod:`repro.service`): each part is one job's ``(inner local
        backend, requests)`` pair.  Every part spawns its seed streams
        from *its own* backend, exactly as a solo ``execute`` of just
        that part would — so a part's draws are independent of which
        other parts share the merged batch — while statevector sharing,
        sharding, and (in exact mode) coalescing by executable
        fingerprint all operate across the whole splice.  Returns one
        PMF list per part, in part order.

        Preconditions (the service enforces them by grouping jobs by
        device fingerprint and mode): every part's backend must share
        this backend's mode (exact vs sampling), and in sampling mode all
        parts must share one noise model by content.  Exact-mode
        coalescing across parts is bit-for-bit safe (evaluation is
        content-pure and RNG-free); forcing ``coalesce=True`` on a
        sampling backend merges seed streams across parts and therefore
        breaks solo parity — leave it on the default for spliced use.
        """
        prepared: List[Tuple[_LocalBackend, List[ExecutionRequest]]] = []
        for inner, requests in parts:
            if not isinstance(inner, _LocalBackend):
                raise SimulationError(
                    "execute_spliced takes local-backend parts; got "
                    f"{type(inner).__name__}"
                )
            if inner.deterministic != self.inner.deterministic:
                raise SimulationError(
                    "spliced parts must all share the backend mode "
                    "(exact vs sampling)"
                )
            prepared.append((inner, list(requests)))
        all_requests: List[ExecutionRequest] = []
        all_streams: List[object] = []
        all_samplers: List[NoisySampler] = []
        bounds = []
        for inner, requests in prepared:
            start = len(all_requests)
            all_streams.extend(inner.request_streams(len(requests)))
            all_requests.extend(requests)
            all_samplers.extend([inner.sampler] * len(requests))
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
        contractions, stacked, circuits = self.inner.share_statevectors(
            requests
        )
        self._statevector_evals.add(contractions)
        self._stacked_evals.add(stacked)
        self._stacked_circuits.add(circuits)
        groups = self._group_indices(requests)
        group_payloads = self._payloads(requests, groups, streams, samplers)
        self._groups_evaluated.add(len(groups))
        self._channel_evals.add(len(groups))

        shards = self._shards(group_payloads)
        self._shards_dispatched.add(len(shards))
        payloads = [(shard, self.inner.deterministic) for shard in shards]
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

    def __enter__(self) -> "ShardedBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedBackend({self.inner.name!r}, workers={self.workers}, "
            f"coalesce={self.coalesce}, executor={self.executor!r})"
        )

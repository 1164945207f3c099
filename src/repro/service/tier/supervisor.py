"""The serving front end: N drain workers under one supervisor.

:class:`ServiceSupervisor` is the job service's only front end (one
worker is the single-drain deployment).  One supervisor owns:

* the **admission path** — the memo check against the result store,
  then the fair-share queue, rejecting with
  :class:`~repro.exceptions.AdmissionError` (queue backpressure, or a
  program that cannot be built);
* a pool of **drain workers** (:mod:`repro.service.tier.worker`), each
  with a private execution engine and its own queue lane (submissions
  are dealt round-robin over the lanes), all sharing one device
  registry (stage caches span workers) and one result store;
* the **retry state machine** — a worker crash or a retryable batch
  failure re-queues the job with exponential backoff, bounded by
  ``max_retries`` attempts and a per-job deadline of
  :data:`RETRY_TIMEOUT_S` from admission, after which the job fails
  terminally (the error text names the crash);
* a **monitor thread** that detects dead workers, re-queues their
  in-flight jobs, respawns the lane, and delivers delayed (backed-off)
  re-queues when they come due;
* the **status surface** — per-job event logs
  (:mod:`repro.service.tier.events`) streamed through ``watch()``, and
  :meth:`telemetry_snapshot` with every counter and latency histogram of
  the tier (job, queue, store, engine, backend and cache counts under
  their dotted names).

Determinism: none of this machinery can change what a job computes.
Every job runs through the same engine seam as a solo ``Session.run`` —
its own session, its own seed streams — so results are bit-for-bit
identical at any worker count, any arrival order, and
across any crash/retry schedule (a retry replays the same inputs).  The
tier tests assert exactly that.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.exceptions import AdmissionError, ReproError, ServiceError
from repro.service.engine import DeviceRegistry, ExecutionEngine, compiler_salt
from repro.service.job import Job, JobSpec, JobStatus, job_fingerprint, spec_circuit
from repro.service.queue import FairShareQueue
from repro.service.tier.events import JobEvent, JobEventLog
from repro.service.tier.journal import SegmentedResultStore
from repro.service.tier.worker import (
    POLL_INTERVAL_S,
    DrainWorker,
    FaultInjector,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import NULL_TRACER, Span, Tracer

__all__ = ["ServiceSupervisor"]

_SpecLike = Union[JobSpec, Mapping[str, Any]]

#: Queue placement: each worker owns a lane and submissions are dealt
#: round-robin over them (deterministic per-worker workloads).
PLACEMENTS = ("round_robin",)

#: Per-job wall-clock deadline for retries, in seconds from admission.
RETRY_TIMEOUT_S = 60.0


class ServiceSupervisor:
    """Concurrent serving front end: submit/poll/watch over N workers.

    Args:
        devices: device registry mapping (defaults to the library's).
        store: shared result store; defaults to a memory-only
            :class:`~repro.service.tier.SegmentedResultStore` (pass one
            with a ``root`` directory to memoize across restarts).
        workers: drain-worker count.
        placement: ``"round_robin"``, the only placement (one lane per
            worker, submissions dealt in order).
        capacity / fair_share: fair-share queue knobs.
        max_batch: jobs per drained batch (the coalescing window).
        max_retries: re-queues allowed per job after retryable failures.
        backoff_base: first retry delay (doubles per attempt).
        compile_attempts / cpm_attempts / ensemble_size: compiler knobs,
            applied identically by every worker's engine.
        executor: ``"thread"``, the only drain-worker kind (any other
            value raises :class:`~repro.exceptions.ServiceError`).
        fault_injector: test hook, see :mod:`repro.service.tier.worker`.
        tracing: collect hierarchical spans for every job (admission ->
            queue_wait -> prepare -> compile stages -> execute ->
            reconstruct -> finish); retrieve with :meth:`job_trace`.
            Off by default — the disabled path costs one branch per
            span site.
    """

    def __init__(
        self,
        devices: Optional[Mapping[str, Any]] = None,
        store: Optional[Any] = None,
        workers: int = 2,
        placement: str = "round_robin",
        capacity: int = 256,
        fair_share: float = 0.5,
        max_batch: int = 8,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        compile_attempts: int = 4,
        cpm_attempts: int = 3,
        ensemble_size: int = 4,
        executor: str = "thread",
        fault_injector: Optional[FaultInjector] = None,
        tracing: bool = False,
    ) -> None:
        if workers < 1:
            raise ServiceError("workers must be >= 1")
        if placement not in PLACEMENTS:
            raise ServiceError(
                f"unknown placement {placement!r}; options: {PLACEMENTS}"
            )
        if max_batch < 1:
            raise ServiceError("max_batch must be >= 1")
        if max_retries < 0:
            raise ServiceError("max_retries must be >= 0")
        if executor != "thread":
            raise ServiceError(
                f"unknown executor {executor!r}; drain workers are threads "
                "(executor='thread')"
            )
        self.registry = DeviceRegistry(devices)
        self.store = store if store is not None else SegmentedResultStore()
        self.workers_count = workers
        self.max_batch = max_batch
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.fault_injector = fault_injector
        self.config_salt = compiler_salt(
            compile_attempts, cpm_attempts, ensemble_size
        )
        self._engine_kwargs = dict(
            compile_attempts=compile_attempts,
            cpm_attempts=cpm_attempts,
            ensemble_size=ensemble_size,
        )
        self.queue = FairShareQueue(
            capacity=capacity, fair_share=fair_share, lanes=workers
        )
        #: Unified telemetry root: tier counters + latency histograms
        #: live here; the queue's and store's registries and every worker
        #: engine's are attached, so :meth:`telemetry_snapshot` is one
        #: atomic view of the tier.
        self.metrics = MetricsRegistry()
        for part in (self.queue, self.store):
            self.metrics.attach(part.metrics)
        self.tracer = Tracer() if tracing else NULL_TRACER
        self._jobs: Dict[str, Job] = {}
        self._events: Dict[str, JobEventLog] = {}
        self._lane_of: Dict[str, int] = {}
        self._enqueued_at: Dict[str, float] = {}
        self._deadline_of: Dict[str, float] = {}
        self._inflight: Dict[str, List[Job]] = {}
        #: (due_time, job) re-queues waiting out their backoff.
        self._delayed: List[Tuple[float, Job]] = []
        self._lock = threading.RLock()
        self._job_done = threading.Condition(self._lock)
        self._placement_counter = 0
        #: Jobs admitted to the queue and not yet settled.
        self.open_jobs = 0
        #: The drain workers (a crashed one is respawned in place); each
        #: lane's counts are in its ``engine.metrics``.
        self.drain_workers: List[DrainWorker] = []
        self._monitor: Optional[threading.Thread] = None
        self._stop_flag = threading.Event()
        self._started = False
        self._closed = False
        # Job-level counters.
        self._submitted = self.metrics.counter("tier.submitted")
        self._memoized = self.metrics.counter("tier.memoized")
        self._executed = self.metrics.counter("tier.executed")
        self._failed = self.metrics.counter("tier.failed")
        self._unbuildable = self.metrics.counter("tier.rejected_unbuildable")
        self._retried = self.metrics.counter("tier.retried")
        self._store_errors = self.metrics.counter("tier.store_errors")
        self._crashes = self.metrics.counter("tier.worker_crashes")
        self._batches = self.metrics.counter("tier.batches")
        self._batch_jobs = self.metrics.counter("tier.batch_jobs")
        # The engines record prepare/execute/finish on their own
        # registries; the waits that span threads are the supervisor's.
        self._queue_wait = self.metrics.histogram("tier.queue_wait")
        self._job_total = self.metrics.histogram("tier.job_total")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _new_worker(self, index: int, generation: int = 0) -> DrainWorker:
        """A drain worker for lane ``index``, not yet started: callers
        list it in :attr:`drain_workers` first, so no job it runs can
        finish while the pool does not list it."""
        engine = ExecutionEngine(self.registry, self.store, **self._engine_kwargs)
        # Fold the lane's counters (engine + backends + shared
        # caches) into the tier registry; the merge dedups the shared
        # DeviceRegistry child by identity across lanes.
        self.metrics.attach(engine.metrics)
        return DrainWorker(
            self,
            index=index,
            engine=engine,
            fault_injector=self.fault_injector,
            generation=generation,
        )

    def start(self) -> "ServiceSupervisor":
        """Spawn the worker pool and the monitor thread (idempotent)."""
        with self._lock:
            if self._started:
                return self
            if self._closed:
                raise ServiceError("supervisor is closed")
            self._started = True
            self._stop_flag.clear()
        self.drain_workers = [
            self._new_worker(index) for index in range(self.workers_count)
        ]
        for worker in self.drain_workers:
            worker.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="tier-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = 60.0) -> None:
        """Stop the tier; with ``drain`` (default) finish all open jobs
        first — no admitted job is ever dropped by a graceful shutdown.

        ``drain=False`` stops after in-progress batches: still-queued
        jobs stay QUEUED (a restart against the same store would pick
        their fingerprints up memoized-or-fresh).
        """
        if not self._started:
            return
        if drain:
            with self._job_done:
                if not self._job_done.wait_for(
                    lambda: self.open_jobs == 0, timeout=timeout
                ):
                    raise ServiceError(
                        f"drain timed out with {self.open_jobs} open jobs"
                    )
        with self._lock:
            self._stop_flag.set()
            workers = list(self.drain_workers)
        for worker in workers:
            worker.stop()
        for worker in workers:
            worker.join()
        if self._monitor is not None:
            self._monitor.join()
            self._monitor = None
        with self._lock:
            self._started = False

    def close(self) -> None:
        """Graceful stop; the supervisor cannot be restarted after it."""
        self.stop(drain=True)
        self.drain_workers = []
        self._closed = True

    def __enter__(self) -> "ServiceSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission / status
    # ------------------------------------------------------------------

    def submit(self, spec: _SpecLike) -> Job:
        """Admit one job through memoization -> fair share; returns its
        handle (events start flowing at once).

        Raises :class:`~repro.exceptions.AdmissionError` on rejection:
        queue backpressure, or a job that cannot be built (an unknown
        workload name or device, a build over the simulator's qubit cap,
        unparsable QASM).
        """
        if isinstance(spec, Mapping):
            spec = JobSpec.from_dict(spec)
        try:
            circuit = spec_circuit(spec)
            device_key = self.registry.device_key(spec.device)
        except ReproError as exc:
            self._unbuildable.add(1)
            raise AdmissionError(str(exc)) from exc
        fingerprint = job_fingerprint(
            spec, circuit, device_key, self.config_salt
        )
        job = Job(spec=spec, fingerprint=fingerprint)
        log = JobEventLog(job.job_id)
        tracer = self.tracer
        if tracer.enabled:
            # The root of the job's trace; ended by finish()/fail().
            job.trace = tracer.start_span(
                "job",
                trace_id=tracer.new_trace_id(),
                job_id=job.job_id,
                tenant=spec.tenant,
                device=spec.device,
                scheme=spec.scheme,
            )
            log.trace_id = job.trace.trace_id
        admission_span = tracer.start_span("admission", parent=job.trace)
        cached = self.store.get(fingerprint)
        if cached is not None:
            with self._lock:
                self._jobs[job.job_id] = job
                self._events[job.job_id] = log
            self._submitted.add(1)
            tracer.end_span(admission_span, memoized=True)
            log.append("queued", memoized=True)
            self.finish(job, cached, source="memoized")
            return job
        with self._lock:
            lane = self._placement_counter % self.workers_count
        try:
            self.queue.push(job, lane=lane)  # raises on rejection
        except Exception as exc:
            tracer.end_span(admission_span, rejected=type(exc).__name__)
            tracer.end_span(job.trace, status="rejected")
            raise
        now = time.monotonic()
        with self._lock:
            self._placement_counter += 1
            self._jobs[job.job_id] = job
            self._events[job.job_id] = log
            self._lane_of[job.job_id] = lane
            self._enqueued_at[job.job_id] = now
            self._deadline_of[job.job_id] = now + RETRY_TIMEOUT_S
            self.open_jobs += 1
        self._submitted.add(1)
        tracer.end_span(admission_span, memoized=False, lane=lane)
        # Cross-thread interval: opened here, closed by the drain
        # worker that claims the batch (_begin_batch).
        job.queue_span = tracer.start_span("queue_wait", parent=job.trace)
        log.append("queued", lane=lane)
        return job

    def job(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ServiceError(f"unknown job {job_id!r}") from None

    def _resolve(self, job_or_id: Union[Job, str]) -> Job:
        return self.job(job_or_id) if isinstance(job_or_id, str) else job_or_id

    def poll(self, job_or_id: Union[Job, str]) -> Dict[str, Any]:
        """One JSON-ready status row (no payload; see :meth:`result`)."""
        job = self._resolve(job_or_id)
        row = job.describe()
        row["attempts"] = job.attempts
        with self._lock:
            log = self._events.get(job.job_id)
        row["events"] = len(log.snapshot()) if log is not None else 0
        return row

    def events(self, job_or_id: Union[Job, str]) -> List[JobEvent]:
        """The job's full event history so far."""
        job = self._resolve(job_or_id)
        with self._lock:
            log = self._events[job.job_id]
        return log.snapshot()

    def watch(
        self,
        job_or_id: Union[Job, str],
        after_seq: int = 0,
        timeout: Optional[float] = None,
    ) -> Iterator[JobEvent]:
        """Stream the job's events (blocking iterator, ends at the
        terminal event; per-event ``timeout`` raises ``TimeoutError``)."""
        job = self._resolve(job_or_id)
        with self._lock:
            log = self._events[job.job_id]
        return log.watch(after_seq=after_seq, timeout=timeout)

    def wait(
        self, job_or_id: Union[Job, str], timeout: Optional[float] = None
    ) -> Job:
        """Block until the job settles; raises on timeout."""
        job = self._resolve(job_or_id)
        with self._job_done:
            if not self._job_done.wait_for(lambda: job.done, timeout=timeout):
                raise ServiceError(
                    f"timed out waiting for job {job.job_id} "
                    f"(status {job.status.value})"
                )
        return job

    def result(self, job_or_id: Union[Job, str]) -> Dict[str, Any]:
        """The finished payload; raises if pending or failed."""
        job = self._resolve(job_or_id)
        if job.status is JobStatus.FAILED:
            raise ServiceError(f"job {job.job_id} failed: {job.error}")
        if job.result is None:
            raise ServiceError(
                f"job {job.job_id} is {job.status.value}; wait() for it"
            )
        return job.result

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    # ------------------------------------------------------------------
    # Worker callbacks (in-flight registry)
    # ------------------------------------------------------------------

    def _begin_batch(self, worker: DrainWorker, batch: List[Job]) -> None:
        now = time.monotonic()
        self._batches.add(1)
        self._batch_jobs.add(len(batch))
        with self._lock:
            self._inflight[worker.name] = list(batch)
        for job in batch:
            enqueued = self._enqueued_at.get(job.job_id)
            if enqueued is not None:
                self._queue_wait.observe(max(0.0, now - enqueued))
            span, job.queue_span = job.queue_span, None
            self.tracer.end_span(span, worker=worker.name)
            log = self._events.get(job.job_id)
            if log is not None:
                log.append("running", worker=worker.name, attempt=job.attempts)

    def _end_batch(self, worker: DrainWorker, batch: List[Job]) -> None:
        with self._lock:
            self._inflight.pop(worker.name, None)

    # ------------------------------------------------------------------
    # BatchSink: outcomes and the retry state machine
    # ------------------------------------------------------------------

    def finish(self, job: Job, payload: Dict[str, Any], source: str) -> None:
        now = time.monotonic()
        if source == "memoized":
            self._memoized.add(1)
        else:
            self._executed.add(1)
        with self._job_done:
            job.result = payload
            job.source = source
            job.status = JobStatus.DONE
            enqueued = self._enqueued_at.pop(job.job_id, None)
            self._deadline_of.pop(job.job_id, None)
            if enqueued is not None:
                self.open_jobs -= 1
                self._job_total.observe(max(0.0, now - enqueued))
            log = self._events.get(job.job_id)
            self._job_done.notify_all()
        self.tracer.end_span(job.trace, status="done", source=source)
        if log is not None:
            log.append("done", source=source)

    def fail(self, job: Job, error: str, retryable: bool = False) -> None:
        """The engine's failure path: retryable failures enter the retry
        state machine; deterministic ones (and exhausted retries) settle
        terminally."""
        if retryable and self._schedule_retry(job, error):
            return
        self._failed.add(1)
        with self._job_done:
            job.error = error
            job.status = JobStatus.FAILED
            if self._enqueued_at.pop(job.job_id, None) is not None:
                self.open_jobs -= 1
            self._deadline_of.pop(job.job_id, None)
            log = self._events.get(job.job_id)
            self._job_done.notify_all()
        span, job.queue_span = job.queue_span, None
        self.tracer.end_span(span, outcome="failed")
        self.tracer.end_span(job.trace, status="failed", error=error)
        if log is not None:
            log.append("failed", error=error, attempts=job.attempts)

    def store_error(self, job: Job) -> None:
        self._store_errors.add(1)

    def _schedule_retry(self, job: Job, error: str) -> bool:
        """Queue a backed-off re-queue; False when the budget is gone.

        Budget: at most ``max_retries`` re-queues per job, and never past
        the job's deadline (:data:`RETRY_TIMEOUT_S` from admission).
        """
        now = time.monotonic()
        with self._lock:
            deadline = self._deadline_of.get(job.job_id)
            if job.attempts >= self.max_retries:
                return False
            if deadline is not None and now >= deadline:
                return False
            job.attempts += 1
            delay = self.backoff_base * (2 ** (job.attempts - 1))
            self._delayed.append((now + delay, job))
            self._retried.add(1)
            job.status = JobStatus.QUEUED
            log = self._events.get(job.job_id)
        if log is not None:
            log.append(
                "retrying", error=error, attempt=job.attempts, delay=delay
            )
        return True

    # ------------------------------------------------------------------
    # Monitor: delayed re-queues, crash detection, respawn
    # ------------------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop_flag.is_set():
            self._deliver_due_requeues()
            self._reap_crashed_workers()
            time.sleep(POLL_INTERVAL_S / 2)
        # One final sweep so a drain-stop never strands a due re-queue.
        self._deliver_due_requeues()

    def _deliver_due_requeues(self) -> None:
        now = time.monotonic()
        with self._lock:
            due = [entry for entry in self._delayed if entry[0] <= now]
            self._delayed = [
                entry for entry in self._delayed if entry[0] > now
            ]
        for _, job in sorted(due, key=lambda entry: entry[0]):
            lane = self._lane_of.get(job.job_id, 0)
            # A retried job was admitted once: a full queue must never
            # lose it, so the capacity and fair-share checks are skipped.
            self.queue.push(job, lane=lane, force=True)
            # A re-queued job waits again: a fresh queue_wait interval.
            job.queue_span = self.tracer.start_span(
                "queue_wait", parent=job.trace, attempt=job.attempts
            )
            with self._lock:
                log = self._events.get(job.job_id)
            if log is not None:
                log.append("requeued", lane=lane, attempt=job.attempts)

    def _reap_crashed_workers(self) -> None:
        for position, worker in enumerate(list(self.drain_workers)):
            if worker.alive or worker.crashed is None:
                continue
            self._crashes.add(1)
            with self._lock:
                stranded = self._inflight.pop(worker.name, [])
            for job in stranded:
                if job.done:
                    continue
                self.fail(
                    job,
                    f"worker {worker.name} crashed: {worker.crashed!r}",
                    retryable=True,
                )
            with self._lock:
                # stop() reads the pool under this lock after raising the
                # flag, so it stops and joins every worker that starts.
                if self._stop_flag.is_set():
                    return
                replacement = self._new_worker(
                    worker.index, generation=worker.generation + 1
                )
                self.drain_workers[position] = replacement
                replacement.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """The unified registry view: every counter and histogram of the
        tier (supervisor + queue + store + workers' engines
        + backends + shared caches), merged.  State that is not an
        event count (queue depth, open jobs, worker liveness) is read
        from the object holding it; per-lane counts from each worker's
        ``engine.metrics``."""
        return self.metrics.snapshot()

    def job_trace(self, job_or_id: Union[Job, str]) -> List[Span]:
        """Every finished span of one job's trace (start order).

        Empty when tracing is off or the job is still running its first
        span.  The root ``job`` span files when the job settles.
        """
        job = self._resolve(job_or_id)
        if job.trace is None:
            return []
        return self.tracer.spans_for(job.trace.trace_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServiceSupervisor(workers={self.workers_count})"

"""The batch-execution engine: the splice-and-reconstruct core.

The serving tier (:mod:`repro.service.tier`) runs one or more concurrent
drain workers, each of which needs its own engine — its own backends,
its own work counters — while sharing the registries and the result
store.  This module is that split:

``DeviceRegistry``
    Thread-safe name -> :class:`~repro.devices.device.Device` resolution
    plus the **shared per-device stage caches** — one
    :class:`~repro.runtime.cache.CompilationCache` per device
    fingerprint, shared by every engine so the route-once store works
    across workers exactly as it does across jobs.

``ExecutionEngine``
    One drain lane's executor: groups a drained batch by device lane,
    plans every job through a per-job equally-parameterised
    ``Session``, splices everything into one merged
    :meth:`~repro.runtime.backend.LocalBackend.execute_spliced` batch —
    the same execution body a solo session runs — reconstructs, and
    stores.  Results are reported through a :class:`BatchSink` —
    the front end decides what "finished" and "failed" mean (the
    supervisor turns retryable failures into re-queues instead of
    terminal failures).

The determinism contract: every job gets its own ``Session`` seeded
from its spec, and the spliced execution spawns each job's per-request
seed streams from that job's own backend — so payloads are bit-for-bit
equal to solo ``Session.run`` regardless of batch composition, arrival
order, worker count, or *which engine* ran the job.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Protocol, Tuple

from repro.core.payload import PAYLOAD_VERSION
from repro.core.pmf import PMF
from repro.devices.device import Device
from repro.devices.library import DEVICE_FACTORIES
from repro.exceptions import ServiceError
from repro.noise.model import NoiseModel
from repro.runtime.backend import LocalBackend
from repro.runtime.cache import CompilationCache
from repro.runtime.fingerprint import device_fingerprint
from repro.runtime.session import Session
from repro.service.job import (
    Job,
    JobSpec,
    JobStatus,
    SweepJobSpec,
    resolve_spec_circuit,
)
from repro.sim.kernels import check_qubit_cap, default_max_qubits
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import get_tracer

__all__ = [
    "BatchSink",
    "DeviceRegistry",
    "ExecutionEngine",
    "compiler_salt",
]


def compiler_salt(
    compile_attempts: int, cpm_attempts: int, ensemble_size: int
) -> str:
    """The knob salt folded into every job fingerprint.

    Two services (or tiers) with different compiler knobs must never
    share stored results; the format is stable because it participates
    in fingerprints persisted by disk stores.
    """
    return (
        f"attempts={compile_attempts}|cpm={cpm_attempts}"
        f"|ensemble={ensemble_size}"
    )


class BatchSink(Protocol):
    """Where an engine reports batch outcomes.

    ``finish``/``fail`` settle a job; ``retryable`` marks failures the
    front end may re-queue (the merged batch failing as a whole, a
    backstop-caught defect) versus deterministic per-job failures (bad
    scheme inputs fail identically on every attempt).  ``store_error``
    records a store that could not persist a payload — memoization lost,
    result delivered anyway.
    """

    def finish(self, job: Job, payload: Dict[str, Any], source: str) -> None:
        ...  # pragma: no cover - protocol

    def fail(self, job: Job, error: str, retryable: bool) -> None:
        ...  # pragma: no cover - protocol

    def store_error(self, job: Job) -> None:
        ...  # pragma: no cover - protocol


class DeviceRegistry:
    """Thread-safe device resolution + shared per-device stage caches.

    One registry is shared by every engine of a deployment, so:

    * a device (and its fingerprint) is materialised once, and
    * all drain workers compile through **one** stage cache per device —
      the route-once store spans workers, which is where the tier's
      cross-worker compilation reuse comes from.
    """

    def __init__(self, factories: Optional[Mapping[str, Any]] = None) -> None:
        self._factories = dict(
            DEVICE_FACTORIES if factories is None else factories
        )
        self._devices: Dict[str, Device] = {}
        self._device_keys: Dict[str, str] = {}
        self._caches: Dict[str, CompilationCache] = {}
        self._lock = threading.RLock()
        #: Telemetry parent of every shared cache's counters; engines
        #: attach it so one snapshot folds in cross-worker cache reuse.
        self.metrics = MetricsRegistry()

    def device(self, name: str) -> Device:
        """Resolve a device short name (memoised; factories run once)."""
        with self._lock:
            device = self._devices.get(name)
            if device is None:
                entry = self._factories.get(name)
                if entry is None:
                    raise ServiceError(
                        f"unknown device {name!r}; options: "
                        f"{sorted(self._factories)}"
                    )
                device = entry() if callable(entry) else entry
                self._devices[name] = device
                self._device_keys[name] = device_fingerprint(device)
            return device

    def device_key(self, name: str) -> str:
        """The content fingerprint of a device short name."""
        self.device(name)
        with self._lock:
            return self._device_keys[name]

    def cache_for(self, device_key: str) -> CompilationCache:
        """The shared compilation cache of one device fingerprint."""
        with self._lock:
            cache = self._caches.get(device_key)
            if cache is None:
                cache = self._caches[device_key] = CompilationCache()
                self.metrics.attach(cache.metrics)
            return cache


class ExecutionEngine:
    """One drain lane's splice-execution core.

    Args:
        registry: shared device registry (devices + stage caches).
        store: shared result store (``get``/``put`` keyed by job
            fingerprint; ``put`` receives the device fingerprint as the
            ``shard`` routing hint).
        compile_attempts / cpm_attempts / ensemble_size: compiler knobs
            applied to every job's session.

    Each engine keeps **private** :class:`LocalBackend` executors (one
    per device+mode lane), so concurrent drain workers never share a
    backend's counters.  The engine's counters (``engine.batches`` ...)
    and its stage latency histograms (``tier.prepare``/``tier.execute``/
    ``tier.finish``) live in its private :attr:`metrics` registry, to
    which the shared :class:`DeviceRegistry` registry and every
    executor's registry are attached, so one atomic snapshot covers the
    whole lane.
    """

    def __init__(
        self,
        registry: DeviceRegistry,
        store,
        compile_attempts: int = 4,
        cpm_attempts: int = 3,
        ensemble_size: int = 4,
    ) -> None:
        self.registry = registry
        self.store = store
        self.compile_attempts = compile_attempts
        self.cpm_attempts = cpm_attempts
        self.ensemble_size = ensemble_size
        self.config_salt = compiler_salt(
            compile_attempts, cpm_attempts, ensemble_size
        )
        self._executors: Dict[Tuple[str, bool], LocalBackend] = {}
        self._lock = threading.RLock()
        self.metrics = MetricsRegistry()
        self.metrics.attach(registry.metrics)
        # Cumulative engine counters (the sink owns job-level ones).
        self._batches = self.metrics.counter("engine.batches")
        self._memoized = self.metrics.counter("engine.memoized")
        self._executed = self.metrics.counter("engine.executed")
        self._prepare_seconds = self.metrics.histogram("tier.prepare")
        self._execute_seconds = self.metrics.histogram("tier.execute")
        self._finish_seconds = self.metrics.histogram("tier.finish")

    # ------------------------------------------------------------------

    def _executor_for(self, device: Device, exact: bool) -> LocalBackend:
        """The spliced-batch executor of one (device, mode) lane.

        It supplies the mode, the work counters and the sampler every
        request of a merged batch evaluates on (the device's noise model
        at the default chunk size, as in every job's session); spliced
        parts bring only their seed streams, so one executor serves every
        batch of the lane.
        """
        key = (device_fingerprint(device), exact)
        with self._lock:
            executor = self._executors.get(key)
            if executor is None:
                # Each executor keeps its own single-writer registry;
                # attaching folds it into the engine's snapshot, where
                # merge sums same-named counters across lanes.
                executor = LocalBackend(
                    exact=exact,
                    noise_model=NoiseModel.from_device(device),
                    seed=0,
                )
                self._executors[key] = executor
                self.metrics.attach(executor.metrics)
            return executor

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------

    def process_batch(self, jobs: List[Job], sink: BatchSink) -> None:
        """Run a batch; a defect can fail its jobs but never the caller.

        Per-job failures are handled inside :meth:`_process_batch`; this
        backstop catches anything unexpected that escapes it (an I/O
        error from the result store, a bug) and fails the batch's
        unsettled jobs loudly — marked retryable, because an environment
        hiccup is exactly what the tier's retry path is for.
        """
        self._batches.add(1)
        try:
            self._process_batch(jobs, sink)
        except Exception as exc:  # noqa: BLE001 - the worker must survive
            for job in jobs:
                if not job.done:
                    sink.fail(job, f"service error: {exc!r}", retryable=True)

    def _process_batch(self, jobs: List[Job], sink: BatchSink) -> None:
        """Run one drained batch: memoize, group, splice, fan out."""
        ready: List[Job] = []
        followers: Dict[str, List[Job]] = {}
        primaries: Dict[str, Job] = {}
        for job in jobs:
            # Late memoization: an identical job may have finished while
            # this one sat in the queue.
            cached = self.store.get(job.fingerprint)
            if cached is not None:
                self._memoized.add(1)
                sink.finish(job, cached, source="memoized")
                continue
            # Within-batch duplicates ride their primary's execution.
            primary = primaries.get(job.fingerprint)
            if primary is not None:
                followers.setdefault(primary.job_id, []).append(job)
                continue
            primaries[job.fingerprint] = job
            ready.append(job)

        groups: Dict[Tuple[str, bool], List[Job]] = {}
        for job in ready:
            key = (self.registry.device_key(job.spec.device), job.spec.exact)
            groups.setdefault(key, []).append(job)
        for (device_key, exact), group in sorted(
            groups.items(), key=lambda item: item[0]
        ):
            self._process_group(group, device_key, exact, sink)

        for primary in primaries.values():
            for job in followers.get(primary.job_id, []):
                if primary.status is JobStatus.DONE:
                    self._memoized.add(1)
                    sink.finish(job, primary.result, source="memoized")
                else:
                    sink.fail(
                        job,
                        primary.error or "primary job failed",
                        retryable=False,
                    )

    def _process_group(
        self, jobs: List[Job], device_key: str, exact: bool, sink: BatchSink
    ) -> None:
        """Plan every job of one (device, mode) lane, splice, reconstruct."""
        tracer = get_tracer()
        prepared_jobs: List[tuple] = []
        device: Optional[Device] = None
        prepare_start = time.perf_counter()
        for job in jobs:
            job.status = JobStatus.RUNNING
            # Context-activating the span makes the compiler's
            # ``compile``/``compile.<stage>`` spans (and a sweep's
            # ``sweep.*`` spans) nest under this job's tree.
            with tracer.span(
                "prepare", parent=job.trace, scheme=job.spec.scheme
            ):
                try:
                    if job.workload is None:
                        job.workload = resolve_spec_circuit(job.spec)
                    # Refuse an over-cap circuit here, where the
                    # failure is this job's alone; inside the merged
                    # batch it would fail every groupmate too.
                    check_qubit_cap(
                        job.workload.circuit.num_qubits,
                        default_max_qubits(),
                    )
                    device = self.registry.device(job.spec.device)
                    session = Session(
                        device,
                        seed=job.spec.seed,
                        total_trials=job.spec.total_trials,
                        exact=job.spec.exact,
                        compile_attempts=self.compile_attempts,
                        cpm_attempts=self.cpm_attempts,
                        ensemble_size=self.ensemble_size,
                        cache=self.registry.cache_for(device_key),
                    )
                    if isinstance(job.spec, SweepJobSpec):
                        # A sweep ends at the same seam as a scheme
                        # run (one PreparedRun: a request batch plus a
                        # finisher), so sweep jobs splice into merged
                        # batches like any other job.
                        prepared = session.prepare_sweep(
                            job.spec.scheme,
                            job.workload,
                            job.spec.parameter_sets,
                        )
                    else:
                        prepared = session.prepare_scheme(
                            job.spec.scheme, job.workload
                        )
                except Exception as exc:
                    # ReproError is the expected shape (bad scheme
                    # inputs, MBM or simulator width, ...); anything
                    # else is a defect — either way it fails this
                    # job deterministically (retrying replays the
                    # same inputs), never its groupmates.
                    sink.fail(job, str(exc) or repr(exc), retryable=False)
                    continue
                prepared_jobs.append((job, prepared))
        self._prepare_seconds.observe(time.perf_counter() - prepare_start)
        if not prepared_jobs:
            return
        executor = self._executor_for(device, exact)
        execute_start = time.perf_counter()
        try:
            pmf_lists = executor.execute_spliced(
                [
                    (prepared.backend, prepared.requests)
                    for _, prepared in prepared_jobs
                ]
            )
        except Exception as exc:
            # The merged batch is all-or-nothing: a backend-level
            # failure fails every job it carried — retryable, because
            # re-running the jobs re-derives every input.
            self._execute_seconds.observe(
                time.perf_counter() - execute_start
            )
            for job, _ in prepared_jobs:
                sink.fail(
                    job, f"batch execution failed: {exc}", retryable=True
                )
            return
        execute_elapsed = time.perf_counter() - execute_start
        self._execute_seconds.observe(execute_elapsed)
        if tracer.enabled:
            # The merged batch runs once for the whole lane; each
            # job's tree gets a post-hoc "execute" span covering it,
            # stamped with how much company the job had.
            for job, prepared in prepared_jobs:
                tracer.record(
                    "execute",
                    parent=job.trace,
                    start=execute_start,
                    duration=execute_elapsed,
                    batch_jobs=len(prepared_jobs),
                    requests=len(prepared.requests),
                )
        finish_start = time.perf_counter()
        for (job, prepared), pmfs in zip(prepared_jobs, pmf_lists):
            with tracer.span("reconstruct", parent=job.trace):
                try:
                    result = prepared.finish(list(pmfs))
                    payload = self._payload(job.spec, result)
                except Exception as exc:
                    sink.fail(job, str(exc) or repr(exc), retryable=False)
                    continue
            with tracer.span("finish", parent=job.trace):
                try:
                    self.store.put(
                        job.fingerprint, payload, shard=device_key
                    )
                except Exception:
                    # A store that cannot persist (full disk, bad
                    # path) costs memoization, never the computed
                    # result.
                    sink.store_error(job)
                self._executed.add(1)
                sink.finish(job, payload, source="executed")
        self._finish_seconds.observe(time.perf_counter() - finish_start)

    @staticmethod
    def _payload(spec: JobSpec, result: object) -> Dict[str, Any]:
        """The JSON-ready payload of a finished scheme result.

        Plan-based results serialize through their own ``to_dict`` (left
        byte-identical to a solo run's, including its ``scheme`` tag);
        distribution schemes wrap the output PMF.
        """
        if isinstance(result, PMF):
            return {
                "scheme": spec.scheme,
                "payload_version": PAYLOAD_VERSION,
                "output_pmf": result.to_payload(),
                "total_trials": spec.total_trials,
            }
        return result.to_dict()

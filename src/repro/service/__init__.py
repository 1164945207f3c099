"""The multi-tenant job service: batching, coalescing, memoization.

This package is the serving layer over the runtime API:

``job``      :class:`JobSpec`/:class:`Job` — serializable,
             content-fingerprinted requests;
``queue``    :class:`FairShareQueue` — bounded priority admission with
             per-tenant fair share and backpressure;
``engine``   the batch core: drains jobs, groups them by device,
             compiles through the shared stage cache, coalesces
             content-identical executables across jobs, executes one
             merged batch, and fans results back;
``tier``     :class:`~repro.service.tier.ServiceSupervisor`, the front
             end (drain workers, retries, events), and
             :class:`~repro.service.tier.SegmentedResultStore`, the
             fingerprint-keyed result store.

See the "Job service" section of ``docs/ARCHITECTURE.md``.
"""

from repro.service.job import (
    Job,
    JobSpec,
    JobStatus,
    SweepJobSpec,
    job_fingerprint,
)
from repro.service.queue import FairShareQueue

__all__ = [
    "Job",
    "JobSpec",
    "SweepJobSpec",
    "JobStatus",
    "job_fingerprint",
    "FairShareQueue",
]

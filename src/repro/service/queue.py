"""Bounded priority queue with per-tenant fair-share admission.

Admission control happens at ``push`` time, where backpressure belongs in
a serving system: a full queue or a tenant over its fair share is
rejected *immediately* (with :class:`~repro.exceptions.AdmissionError`),
not accepted and starved.  Two rules:

* **Backpressure** — at most ``capacity`` jobs pending, globally.
* **Fair share** — one tenant may hold at most
  ``max(1, ceil(capacity * fair_share))`` of the pending slots, so a
  burst from one tenant can never occupy the whole queue: the remaining
  slots stay available to everyone else.

Drain order is priority-descending, FIFO within a priority.  Note that
drain order affects *latency only*: job results are a pure function of
each job's own seed stream (see :mod:`repro.service.engine`), so
reordering the queue can never change what any job computes.

Admissions and rejections count into the queue's registry
(``queue.admitted``, ``queue.rejected_full``,
``queue.rejected_fair_share``); the serving tier attaches it.
"""

from __future__ import annotations

import heapq
import math
import threading
from typing import Dict, List, Optional

from repro.exceptions import AdmissionError, ServiceError
from repro.service.job import Job
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["FairShareQueue"]


class FairShareQueue:
    """A thread-safe bounded priority queue of :class:`Job`s.

    Args:
        capacity: maximum pending jobs (admission rejects beyond it).
        fair_share: fraction of ``capacity`` one tenant may occupy,
            in ``(0, 1]``; the per-tenant cap is
            ``max(1, ceil(capacity * fair_share))``.
        lanes: independent drain lanes (the serving tier gives each drain
            worker its own lane and deals submissions over them).
            Admission accounting — capacity, fair share, counters — is
            **global** across lanes; only the drain order is per-lane, so
            a flooding tenant is capped by the whole queue's fair share no
            matter how its jobs spread over lanes.
    """

    def __init__(
        self,
        capacity: int = 256,
        fair_share: float = 0.5,
        lanes: int = 1,
    ) -> None:
        if capacity < 1:
            raise ServiceError("queue capacity must be >= 1")
        if not 0.0 < fair_share <= 1.0:
            raise ServiceError("fair_share must be in (0, 1]")
        if lanes < 1:
            raise ServiceError("lanes must be >= 1")
        self.capacity = capacity
        self.fair_share = fair_share
        self.lanes = lanes
        self.tenant_cap = max(1, math.ceil(capacity * fair_share))
        self._heaps: List[List[tuple]] = [[] for _ in range(lanes)]
        self._pending_by_tenant: Dict[str, int] = {}
        self._sequence = 0
        self._lock = threading.Lock()
        self._not_empty = [
            threading.Condition(self._lock) for _ in range(lanes)
        ]
        self.metrics = MetricsRegistry()
        self._admitted = self.metrics.counter("queue.admitted")
        self._rejected_full = self.metrics.counter("queue.rejected_full")
        self._rejected_fair_share = self.metrics.counter(
            "queue.rejected_fair_share"
        )

    # ------------------------------------------------------------------

    def push(self, job: Job, lane: int = 0, force: bool = False) -> Job:
        """Admit ``job`` or raise :class:`AdmissionError` (counted).

        ``force`` skips the capacity and fair-share checks (it still
        counts the pending slot): the retry path re-queues a job that was
        already admitted once, and a full queue must never lose it.
        """
        tenant = job.spec.tenant
        with self._lock:
            pending = sum(len(heap) for heap in self._heaps)
            if not force:
                if pending >= self.capacity:
                    self._rejected_full.add()
                    raise AdmissionError(
                        f"queue full ({self.capacity} pending); retry later"
                    )
                held = self._pending_by_tenant.get(tenant, 0)
                if held >= self.tenant_cap:
                    self._rejected_fair_share.add()
                    raise AdmissionError(
                        f"tenant {tenant!r} holds {held} of its "
                        f"{self.tenant_cap} fair-share slots; retry later"
                    )
            self._sequence += 1
            job.sequence = self._sequence
            heapq.heappush(
                self._heaps[lane], (-job.spec.priority, job.sequence, job)
            )
            self._pending_by_tenant[tenant] = (
                self._pending_by_tenant.get(tenant, 0) + 1
            )
            self._admitted.add()
            self._not_empty[lane].notify()
            return job

    def pop_batch(
        self,
        max_jobs: int,
        timeout: Optional[float] = None,
        lane: int = 0,
    ) -> List[Job]:
        """Up to ``max_jobs`` jobs in drain order; blocks until at least
        one is available (or the timeout lapses — then an empty list)."""
        if max_jobs < 1:
            raise ServiceError("max_jobs must be >= 1")
        heap = self._heaps[lane]
        with self._not_empty[lane]:
            if not heap and timeout != 0:
                self._not_empty[lane].wait(timeout)
            batch: List[Job] = []
            while heap and len(batch) < max_jobs:
                _, _, job = heapq.heappop(heap)
                tenant = job.spec.tenant
                remaining = self._pending_by_tenant.get(tenant, 1) - 1
                if remaining > 0:
                    self._pending_by_tenant[tenant] = remaining
                else:
                    self._pending_by_tenant.pop(tenant, None)
                batch.append(job)
            return batch

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return sum(len(heap) for heap in self._heaps)

    def pending_by_tenant(self) -> Dict[str, int]:
        """Pending-slot usage per tenant (a snapshot)."""
        with self._lock:
            return dict(self._pending_by_tenant)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FairShareQueue(pending={len(self)}, capacity={self.capacity}, "
            f"tenant_cap={self.tenant_cap})"
        )

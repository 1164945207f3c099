"""Per-tenant admission control: rate limiting and trial-budget quotas.

The fair-share queue (PR 5) bounds how much of the *pending* queue one
tenant may hold; this module bounds how fast and how much a tenant may
submit **over time**:

* :class:`TokenBucket` — classic token-bucket rate limiting.  Each
  submission consumes one token; an empty bucket rejects with
  :class:`~repro.exceptions.RateLimitError` carrying ``retry_after``
  (seconds until a token refills).  The clock is injectable so tests are
  deterministic.
* **Trial-budget quota** — a cumulative cap on the total ``total_trials``
  a tenant may have admitted for execution.  Unlike the bucket it never
  refills; exhaustion rejects with
  :class:`~repro.exceptions.QuotaExceededError`.  Memoized hits are free
  (they execute nothing), which is a deliberate incentive: resubmitting
  a finished job costs no quota.

:class:`AdmissionController` layers both in front of a
:class:`~repro.service.queue.FairShareQueue`: rate limit first (it
guards the service's front door, even for would-be memoized hits — the
bucket is about request *pressure*), then quota, then the queue's
capacity/fair-share checks.  Retries bypass all of it (``requeue``): a
job charged once must never be double-charged or dropped by its own
retry.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.exceptions import QuotaExceededError, RateLimitError, ServiceError
from repro.service.job import Job
from repro.service.queue import FairShareQueue
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["TokenBucket", "TenantPolicy", "AdmissionController"]


class TokenBucket:
    """A token bucket: ``burst`` capacity refilled at ``rate`` tokens/s.

    ``rate=None`` disables limiting (consume always succeeds).  The
    ``clock`` is any zero-arg monotonic-seconds callable — tests inject a
    fake one to step time deterministically.
    """

    def __init__(
        self,
        rate: Optional[float],
        burst: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate is not None and rate <= 0:
            raise ServiceError("rate must be positive (or None to disable)")
        if burst < 1:
            raise ServiceError("burst must be >= 1")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        if self.rate is None:
            return
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(float(self.burst), self._tokens + elapsed * self.rate)
        self._updated = now

    def consume(self, tokens: float = 1.0) -> None:
        """Take ``tokens`` or raise :class:`RateLimitError` (with the
        seconds until enough tokens refill as ``retry_after``)."""
        if self.rate is None:
            return
        with self._lock:
            now = self._clock()
            self._refill(now)
            if self._tokens >= tokens:
                self._tokens -= tokens
                return
            retry_after = (tokens - self._tokens) / self.rate
        raise RateLimitError(
            f"rate limit: {self.rate:g}/s (burst {self.burst}); "
            f"retry in {retry_after:.3f}s",
            retry_after=retry_after,
        )

    def available(self) -> float:
        """Tokens available right now (refilled to the current clock)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's admission limits.

    ``rate``/``burst`` parameterise the token bucket (``rate=None``
    disables it); ``trial_budget`` is the cumulative executed-trials cap
    (``None`` for unlimited).
    """

    rate: Optional[float] = None
    burst: int = 8
    trial_budget: Optional[int] = None


class AdmissionController:
    """Rate limit -> quota -> fair-share queue, per tenant.

    Args:
        queue: the fair-share queue admissions land in.
        policies: tenant -> :class:`TenantPolicy`; tenants without an
            entry fall back to ``default_policy``.
        default_policy: limits for unlisted tenants (default: unlimited —
            admission then reduces to the queue's own checks).
        clock: injectable monotonic clock shared by every bucket.
    """

    def __init__(
        self,
        queue: FairShareQueue,
        policies: Optional[Dict[str, TenantPolicy]] = None,
        default_policy: Optional[TenantPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.queue = queue
        self.policies = dict(policies or {})
        self.default_policy = default_policy or TenantPolicy()
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        #: Trials charged per tenant (admitted for execution, not refunded).
        self.trials_used: Dict[str, int] = {}
        self._lock = threading.Lock()
        #: Rejections by cause: ``admission.rejected_rate`` and
        #: ``admission.rejected_quota``.
        self.metrics = MetricsRegistry()
        self._rejected_rate = self.metrics.counter("admission.rejected_rate")
        self._rejected_quota = self.metrics.counter(
            "admission.rejected_quota"
        )

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self.policies.get(tenant, self.default_policy)

    def _bucket_for(self, tenant: str) -> Optional[TokenBucket]:
        policy = self.policy_for(tenant)
        if policy.rate is None:
            return None
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    policy.rate, policy.burst, clock=self._clock
                )
            return bucket

    # ------------------------------------------------------------------

    def check_rate(self, tenant: str) -> None:
        """Consume one rate token or raise :class:`RateLimitError`.

        Applied to *every* submission, before memoization: the bucket
        meters request pressure on the front door, not execution cost.
        """
        bucket = self._bucket_for(tenant)
        if bucket is None:
            return
        try:
            bucket.consume()
        except RateLimitError:
            self._rejected_rate.add()
            raise

    def admit(self, job: Job, lane: int = 0) -> Job:
        """Charge quota and enqueue, or raise a typed admission error.

        The quota charge happens *before* the queue push; a queue
        rejection refunds it (the trials never entered the system).
        """
        tenant = job.spec.tenant
        trials = job.spec.total_trials
        policy = self.policy_for(tenant)
        if policy.trial_budget is not None:
            with self._lock:
                used = self.trials_used.get(tenant, 0)
                if used + trials > policy.trial_budget:
                    self._rejected_quota.add()
                    raise QuotaExceededError(
                        f"tenant {tenant!r} trial budget exhausted: "
                        f"{used} used + {trials} requested > "
                        f"{policy.trial_budget} budget"
                    )
                self.trials_used[tenant] = used + trials
        try:
            return self.queue.push(job, lane=lane)
        except Exception:
            if policy.trial_budget is not None:
                with self._lock:
                    self.trials_used[tenant] -= trials
            raise

    def requeue(self, job: Job, lane: int = 0) -> Job:
        """Re-admit an already-charged job (the retry path): no rate
        token, no quota charge, and the queue's checks are forced."""
        return self.queue.push(job, lane=lane, force=True)

"""Per-job event logs: the streaming status surface of the serving tier.

Every job admitted by the :class:`~repro.service.tier.ServiceSupervisor`
gets one :class:`JobEventLog`.  Producers (the front end, drain workers,
the retry scheduler) append :class:`JobEvent`\\ s; consumers stream them
through :meth:`JobEventLog.watch`, a blocking iterator that yields
events in order as they arrive and terminates after the job's terminal
event (``done`` or ``failed``).  The supervisor's ``watch()`` is a thin
wrapper over this.

The log is bounded: a small *head* (the job's birth certificate —
``queued``, first ``running`` ...) is kept forever, and the remainder is
a ring that keeps only the most recent ``max_events`` entries, so a job
that retries for hours cannot grow memory without bound.  ``seq`` stays
monotonically increasing across truncation — a watcher resuming from
``after_seq`` simply never sees the dropped middle (the ``truncated``
counter says how many) — and the terminal event always lands in the
ring, so ``watch`` still terminates.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional

__all__ = ["JobEvent", "JobEventLog", "TERMINAL_EVENTS"]

#: Event kinds after which a job's log receives no further events.
TERMINAL_EVENTS = frozenset({"done", "failed"})

#: Default bounds: first ``DEFAULT_HEAD_EVENTS`` kept forever, then a
#: ring of the latest ``DEFAULT_MAX_EVENTS``.
DEFAULT_HEAD_EVENTS = 8
DEFAULT_MAX_EVENTS = 256


@dataclass(frozen=True)
class JobEvent:
    """One lifecycle event of one job.

    ``kind`` is the machine-readable state transition (``queued``,
    ``running``, ``done``, ``failed``, ``retrying``, ``requeued``);
    ``detail`` carries free-form context (attempt number, worker id,
    backoff delay, error text).
    """

    seq: int
    job_id: str
    kind: str
    timestamp: float
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the ``--stats-json``/watch wire shape)."""
        return {
            "seq": self.seq,
            "job_id": self.job_id,
            "kind": self.kind,
            "timestamp": self.timestamp,
            "detail": dict(self.detail),
        }


class JobEventLog:
    """Bounded, watchable event history of one job.

    Keeps the first ``head_events`` events verbatim plus a ring of the
    last ``max_events``; everything between is dropped (counted in
    :attr:`truncated`).  A job also carries its ``trace_id`` here once
    tracing assigns one, tying the event stream to the span tree.
    """

    def __init__(
        self,
        job_id: str,
        head_events: int = DEFAULT_HEAD_EVENTS,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        if head_events < 1 or max_events < 1:
            raise ValueError("head_events and max_events must be >= 1")
        self.job_id = job_id
        self.head_events = head_events
        self.max_events = max_events
        #: Trace id of the job's span tree (set by the supervisor when
        #: tracing is enabled; ``None`` otherwise).
        self.trace_id: Optional[str] = None
        self._head: List[JobEvent] = []
        self._tail: Deque[JobEvent] = deque(maxlen=max_events)
        self._last_seq = 0
        self._truncated = 0
        self._lock = threading.Lock()
        self._appended = threading.Condition(self._lock)

    def append(self, kind: str, **detail: Any) -> JobEvent:
        """Record one event (and wake every watcher)."""
        with self._appended:
            self._last_seq += 1
            event = JobEvent(
                seq=self._last_seq,
                job_id=self.job_id,
                kind=kind,
                timestamp=time.time(),
                detail=detail,
            )
            if len(self._head) < self.head_events:
                self._head.append(event)
            else:
                if len(self._tail) == self._tail.maxlen:
                    self._truncated += 1
                self._tail.append(event)
            self._appended.notify_all()
            return event

    @property
    def truncated(self) -> int:
        """How many events the ring has dropped."""
        with self._lock:
            return self._truncated

    def snapshot(self) -> List[JobEvent]:
        """Every retained event, in order (head + ring tail)."""
        with self._lock:
            return self._head + list(self._tail)

    @property
    def closed(self) -> bool:
        """Whether a terminal event has been appended."""
        with self._lock:
            return self._closed()

    def _closed(self) -> bool:
        """:attr:`closed`, for a caller that holds the lock."""
        newest = (
            self._tail[-1]
            if self._tail
            else (self._head[-1] if self._head else None)
        )
        return newest is not None and newest.kind in TERMINAL_EVENTS

    def watch(
        self, after_seq: int = 0, timeout: Optional[float] = None
    ) -> Iterator[JobEvent]:
        """Yield retained events ``> after_seq`` as they arrive; stop
        after the terminal event.  ``timeout`` bounds the wait for
        *each* event; a lapse raises ``TimeoutError`` (a hung job must
        fail loudly, not hang its watchers too).  Events the ring
        dropped before the watcher caught up are skipped (``seq`` gaps
        mark them).  Resuming at or past the terminal event of a closed
        log yields nothing and returns at once.
        """
        last_seen = after_seq
        while True:
            with self._appended:
                if not self._appended.wait_for(
                    lambda: self._last_seq > last_seen or self._closed(),
                    timeout=timeout,
                ):
                    raise TimeoutError(
                        f"no event on job {self.job_id} within {timeout}s "
                        f"(after seq {last_seen})"
                    )
                if self._last_seq <= last_seen:
                    return
                batch = [
                    event
                    for event in self._head + list(self._tail)
                    if event.seq > last_seen
                ]
                last_seen = self._last_seq
            for event in batch:
                yield event
                if event.kind in TERMINAL_EVENTS:
                    return

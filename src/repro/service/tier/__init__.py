"""The serving tier: the job service's front end and its parts.

A :class:`ServiceSupervisor` front end (submit/poll/watch) runs N
:class:`DrainWorker` threads (one is the single-drain deployment), each
draining its own lane of the fair-share queue, over a sharded segmented
result journal with crash replay and one telemetry registry.  The
determinism contract: every result is bit-for-bit a solo
``Session.run``.
"""

from repro.service.tier.events import JobEvent, JobEventLog, TERMINAL_EVENTS
from repro.service.tier.journal import SegmentedResultStore
from repro.service.tier.supervisor import ServiceSupervisor
from repro.service.tier.worker import DrainWorker

__all__ = [
    "DrainWorker",
    "JobEvent",
    "JobEventLog",
    "SegmentedResultStore",
    "ServiceSupervisor",
    "TERMINAL_EVENTS",
]

"""Drain workers: the concurrent execution lanes of the serving tier.

A :class:`DrainWorker` is one thread of the supervisor.  Each worker
owns a **private** :class:`~repro.service.engine.ExecutionEngine` (its
own backends, its own work counters) and drains its own lane of the
supervisor's fair-share queue, while sharing the supervisor's device
registry (so stage caches span workers) and result store.  Every batch
it pops is evaluated in-process on this thread.  The loop is
deliberately small:

    pop a batch from my lane -> register it in-flight -> process it
    through my engine -> clear the in-flight registration.

Outcomes flow through the supervisor's :class:`BatchSink` implementation,
which is where retry policy lives — the worker itself has none.

Crash semantics: any exception escaping the loop — popping the lane,
registering the batch, or processing it (the engine's backstop makes
that rare in production; the test ``fault_injector`` hook makes it
deliberate) — marks the worker crashed and exits the thread **without**
clearing the in-flight registration.  The supervisor's monitor detects
the dead worker, re-queues the unsettled jobs of a batch it had
registered through the retry path, and respawns the lane.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional

from repro.service.engine import ExecutionEngine
from repro.service.job import Job
from repro.telemetry.trace import use_tracer

__all__ = ["DrainWorker"]

#: Seconds a worker blocks on its empty lane before rechecking its stop
#: flag (the supervisor's monitor polls at half this interval).
POLL_INTERVAL_S = 0.02

#: A test hook called with ``(worker_name, batch)`` before each batch; it
#: may raise to simulate the worker dying mid-flight.
FaultInjector = Callable[[str, List[Job]], None]


class DrainWorker:
    """One drain lane: a thread, an engine, and a queue lane to pop.

    Args:
        supervisor: the owning ``ServiceSupervisor`` (provides the queue,
            the sink, and the in-flight registry).
        index: stable lane index, and the
            :class:`~repro.service.queue.FairShareQueue` lane this worker
            drains (survives respawns — the respawned worker keeps its
            predecessor's lane and name generation).
        engine: this worker's private execution engine.
        generation: respawn count (names are ``worker-<index>`` for
            generation 0, ``worker-<index>.r<generation>`` after).
    """

    def __init__(
        self,
        supervisor: Any,
        index: int,
        engine: ExecutionEngine,
        fault_injector: Optional[FaultInjector] = None,
        generation: int = 0,
    ) -> None:
        self.supervisor = supervisor
        self.index = index
        self.engine = engine
        self.fault_injector = fault_injector
        self.generation = generation
        self.name = (
            f"worker-{index}" if generation == 0
            else f"worker-{index}.r{generation}"
        )
        self.crashed: Optional[BaseException] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"tier-{self.name}", daemon=True
        )

    # ------------------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Ask the loop to exit after its current batch."""
        self._stop.set()

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    # ------------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                batch = self.supervisor.queue.pop_batch(
                    self.supervisor.max_batch,
                    timeout=POLL_INTERVAL_S,
                    lane=self.index,
                )
                if not batch:
                    continue
                self.supervisor._begin_batch(self, batch)
                if self.fault_injector is not None:
                    self.fault_injector(self.name, batch)
                # The engine's backstop settles every job on an internal
                # defect, so reaching _end_batch is the normal path.
                # The supervisor's tracer becomes this thread's active
                # tracer, so the engine's per-job spans (and the
                # compiler spans nested under them) land in it.
                with use_tracer(self.supervisor.tracer):
                    self.engine.process_batch(batch, self.supervisor)
            except BaseException as exc:  # noqa: BLE001 - crash boundary
                # Crash: exit WITHOUT clearing the in-flight registry —
                # that registration is exactly how the monitor finds the
                # jobs this worker died holding.
                self.crashed = exc
                return
            self.supervisor._end_batch(self, batch)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "crashed" if self.crashed is not None
            else "alive" if self.alive else "stopped"
        )
        return f"DrainWorker({self.name}, {state})"

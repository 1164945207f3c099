"""The compilation cache: compile once, execute many.

Compilation (placement search + SABRE routing + EPS scoring, times one
global circuit plus every CPM) dominates the cost of a JigSaw run on a
simulator and is pure overhead when a sweep or a scheme comparison
re-plans an identical program.  :class:`CompilationCache` stores two
kinds of artifacts, both keyed by **content**:

* whole :class:`~repro.runtime.plan.ExecutionPlan`\\ s — circuit
  fingerprint, device name, config fingerprint (plus the caller's seed
  salt) — so identical programs stop recompiling no matter which code
  path planned them; and
* **per-stage artifacts** of the staged compiler pipeline
  (:mod:`repro.compiler.pipeline`): routed bodies keyed by
  :func:`~repro.runtime.fingerprint.routing_fingerprint`, layout pools
  keyed by placement inputs.  Stage entries have their own namespace and
  their own hit/miss counters (``cache.stage.<stage>.hits``) — they never
  perturb the plan-level ``cache.plan_hits``/``cache.plan_misses`` that
  sweeps assert on.

Both stores are bounded LRUs.  Every counter lives in the cache's
telemetry registry, so tests and benchmarks assert reuse on
``telemetry_snapshot()`` instead of guessing at it.

Determinism note: a cached plan replays the compilation of the *first*
planning call for its key.  Planning is seeded, so sharing a cache across
equally-seeded sessions is bit-for-bit safe; the seed salt in the default
key construction keeps differently-seeded sessions from sharing entries.
Stage entries are stronger: routing is a pure function of its content key
(the route-once invariant), so sharing routed bodies is always safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.runtime.plan import ExecutionPlan
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["CompilationCache"]


class CompilationCache:
    """A bounded LRU cache of plans and pipeline-stage artifacts.

    Args:
        max_entries: maximum plans kept; ``None`` means unbounded and
            ``0`` disables storage entirely (every lookup misses, for
            plans *and* stage artifacts), which is how tests and
            benchmarks compare cached compilation against compiling
            from scratch.
        max_stage_entries: maximum per-stage artifacts kept (routed
            bodies dominate; they are small relative to plans).
        metrics: the telemetry registry the hit/miss counters live in
            (``cache.plan_hits``, ``cache.stage.route.hits`` ...);
            defaults to a private one.  Attach it to a session's or
            service's registry to fold the cache into a unified snapshot.
    """

    def __init__(
        self,
        max_entries: Optional[int] = 256,
        max_stage_entries: Optional[int] = 4096,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be >= 0 or None")
        if max_stage_entries is not None and max_stage_entries < 0:
            raise ValueError("max_stage_entries must be >= 0 or None")
        self.max_entries = max_entries
        self.max_stage_entries = max_stage_entries
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._plans: "OrderedDict[str, ExecutionPlan]" = OrderedDict()
        self._stage_data: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        # Guards both stores: pipelines share a cache across the CPM
        # compilation thread fan-out (``compile_workers``).
        self._lock = threading.RLock()
        # Per-(stage, key) in-flight locks for stage_get_or_compute, as
        # [lock, callers holding or waiting on it]: a concurrent miss
        # storm on one key runs the compute once; peers block on the key
        # lock and replay the stored value.  An entry is dropped when its
        # last caller leaves — never earlier, or a late caller would get
        # a fresh lock and compute beside a waiter on the old one — so
        # the dict stays bounded by the keys currently being computed.
        self._inflight: Dict[Tuple[str, str], list] = {}
        self._inflight_guard = threading.Lock()
        self._hits = self.metrics.counter("cache.plan_hits")
        self._misses = self.metrics.counter("cache.plan_misses")

    # ------------------------------------------------------------------

    @classmethod
    def disabled(cls) -> "CompilationCache":
        """A cache that stores nothing (still counts its misses)."""
        return cls(max_entries=0, max_stage_entries=0)

    @staticmethod
    def make_key(parts: Iterable[str]) -> str:
        """Join key components into one collision-free string.

        Components are escaped (``\\`` -> ``\\\\``, ``|`` -> ``\\|``)
        before joining on ``|``, so two different part tuples can never
        collide into one key — ``("a|b", "c")`` and ``("a", "b|c")`` map
        to distinct keys.  Components without either character (the
        common case: hex fingerprints, scheme/device names) are joined
        verbatim, keeping keys readable.
        """
        return "|".join(
            part.replace("\\", "\\\\").replace("|", "\\|") for part in parts
        )

    # ------------------------------------------------------------------
    # Plan store
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[ExecutionPlan]:
        """The cached plan for ``key``, or ``None`` (counted either way)."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self._misses.add(1)
                return None
            self._plans.move_to_end(key)
            self._hits.add(1)
            return plan

    def put(self, key: str, plan: ExecutionPlan) -> None:
        """Store ``plan`` under ``key``, evicting the LRU entry if full."""
        if self.max_entries == 0:
            return
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            if self.max_entries is not None:
                while len(self._plans) > self.max_entries:
                    self._plans.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry, plans and stage artifacts (counters are kept)."""
        with self._lock:
            self._plans.clear()
            self._stage_data.clear()

    # ------------------------------------------------------------------
    # Stage store (compiler-pipeline artifacts)
    # ------------------------------------------------------------------

    def stage_get(self, stage: str, key: str) -> Optional[Any]:
        """The cached artifact of ``stage`` for ``key`` (counted per stage)."""
        with self._lock:
            value = self._stage_data.get((stage, key))
            if value is None:
                self.metrics.counter(f"cache.stage.{stage}.misses").add()
                return None
            self._stage_data.move_to_end((stage, key))
            self.metrics.counter(f"cache.stage.{stage}.hits").add()
            return value

    def stage_put(self, stage: str, key: str, value: Any) -> None:
        """Store a stage artifact (no-op on a disabled cache)."""
        if self.max_entries == 0 or self.max_stage_entries == 0:
            return
        with self._lock:
            self._stage_data[(stage, key)] = value
            self._stage_data.move_to_end((stage, key))
            if self.max_stage_entries is not None:
                while len(self._stage_data) > self.max_stage_entries:
                    self._stage_data.popitem(last=False)

    def stage_get_or_compute(
        self, stage: str, key: str, compute: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """Look a stage artifact up, computing it at most once on a miss.

        Returns ``(value, hit)``.  The fast path is a plain
        :meth:`stage_get`.  On a miss, a per-``(stage, key)`` lock makes
        concurrent callers run ``compute`` exactly once — the others block
        and replay the stored value — so e.g. the CPM compilation thread
        fan-out can never route one body twice (the route-once invariant
        holds at any worker count).  A failing ``compute`` propagates and
        releases the key, so a later caller retries cleanly.

        On a disabled cache (``max_entries == 0`` or
        ``max_stage_entries == 0``) nothing is ever stored, so every call
        computes — concurrent callers of one key still serialize, keeping
        "at most one in-flight compute per key" true even in the
        cache-disabled benchmark emulation.

        Counter discipline: each call counts exactly **one** lookup (the
        fast-path :meth:`stage_get`); the double-check inside the key lock
        is an uncounted peek.  ``hits + misses`` therefore equals the
        number of lookups under any interleaving, and the number of
        ``compute`` runs never exceeds the misses.
        """
        pair = (stage, key)
        cached = self.stage_get(stage, key)
        if cached is not None:
            return cached, True
        with self._inflight_guard:
            entry = self._inflight.setdefault(pair, [threading.Lock(), 0])
            entry[1] += 1
        try:
            with entry[0]:
                with self._lock:
                    cached = self._stage_data.get(pair)
                if cached is not None:
                    return cached, True
                value = compute()
                self.stage_put(stage, key, value)
                return value, False
        finally:
            with self._inflight_guard:
                entry[1] -= 1
                if entry[1] == 0:
                    del self._inflight[pair]

    def stage_entries(self, stage: Optional[str] = None) -> int:
        """Number of stored artifacts, for one stage or all of them."""
        with self._lock:
            if stage is None:
                return len(self._stage_data)
            return sum(1 for s, _ in self._stage_data if s == stage)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of cached *plans* (stage artifacts are counted separately)."""
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._plans

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompilationCache(entries={len(self._plans)}, "
            f"stage_entries={len(self._stage_data)})"
        )

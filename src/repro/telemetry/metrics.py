"""The central metrics registry: counters and histograms.

The one place every count the stack produces lives.  Components
(compiler pipeline, stage cache, backends, engine, queue, admission,
result store, supervisor) each own a :class:`MetricsRegistry` and bump
dotted-name metrics into it (``compiler.route_calls``,
``backend.stacked_evals``, ``tier.queue_wait`` ...).  Owners compose
views by *attaching* child registries: ``snapshot()`` walks the tree and
merges same-named metrics (counters sum, histograms bucket-merge), so a
supervisor's snapshot is the sum over its workers' engines without any
shared mutable counters.  ``Session.telemetry_snapshot()`` and
``ServiceSupervisor.telemetry_snapshot()`` are the read side.

Everything is thread-safe.  Counters take one lock per update;
histograms use log-spaced buckets (:data:`DEFAULT_LATENCY_BOUNDS`) with
quantile interpolation and cross-worker :meth:`Histogram.merge`.
``snapshot()`` reads every metric under its own lock, so consumers
(``--stats-json``) can never observe a torn count.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_QUANTILES",
]

#: Log-spaced upper bounds (seconds): 100us .. ~1.6e3 s, x4 per bucket.
DEFAULT_LATENCY_BOUNDS = tuple(1e-4 * 4**i for i in range(13))

#: The percentiles every histogram snapshot reports.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def add(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, value={self.value})"


class Histogram:
    """A fixed-bucket histogram with quantile estimation and merge.

    Buckets are non-cumulative (each observation lands in exactly one
    bucket, keyed by its upper bound; overflows land in ``inf``), which
    keeps snapshots human-readable in ``--stats-json`` output.  The
    snapshot carries count, sum, mean, min/max (keyed by ``unit``:
    ``total_seconds`` for a latency, ``total_rounds`` for
    ``reconstruct.rounds``), the buckets, and a ``quantiles`` block
    (p50/p95/p99, linearly interpolated within the landing bucket).
    """

    def __init__(
        self,
        bounds: Optional[Iterable[float]] = None,
        name: str = "",
        unit: str = "seconds",
    ) -> None:
        self.name = name
        self.unit = unit
        self.bounds = (
            tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BOUNDS
        )
        self._counts = [0] * (len(self.bounds) + 1)
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        The cross-worker aggregation path: per-worker histograms stay
        single-writer and the supervisor merges snapshots on demand.
        Bucket layouts must match.
        """
        if other.bounds != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        with other._lock:
            counts = list(other._counts)
            count, total = other.count, other.total
            other_min, other_max = other.min, other.max
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self.count += count
            self.total += total
            if other_min is not None:
                self.min = (
                    other_min if self.min is None else min(self.min, other_min)
                )
            if other_max is not None:
                self.max = (
                    other_max if self.max is None else max(self.max, other_max)
                )

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile by interpolating within buckets.

        The landing bucket's mass is assumed uniform between its bounds;
        the overflow bucket interpolates toward the observed maximum.
        Returns ``None`` when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            count = self.count
            lo_seen, hi_seen = self.min, self.max
        return self._quantile_locked_free(q, counts, count, lo_seen, hi_seen)

    def _quantile_locked_free(
        self,
        q: float,
        counts: List[int],
        count: int,
        lo_seen: Optional[float],
        hi_seen: Optional[float],
    ) -> Optional[float]:
        if count == 0:
            return None
        rank = q * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lo = self.bounds[index - 1] if index > 0 else 0.0
                hi = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else (hi_seen if hi_seen is not None else lo)
                )
                # Clamp to the observed range so tiny samples don't
                # report a bucket bound nobody ever observed.
                if lo_seen is not None:
                    lo = max(lo, lo_seen)
                if hi_seen is not None:
                    hi = min(hi, hi_seen)
                if hi <= lo:
                    return lo
                fraction = (rank - cumulative) / bucket_count
                return lo + (hi - lo) * max(0.0, min(1.0, fraction))
            cumulative += bucket_count
        return hi_seen

    def quantiles(
        self, qs: Iterable[float] = DEFAULT_QUANTILES
    ) -> Dict[str, Optional[float]]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` (None when empty)."""
        return {f"p{round(q * 100):d}": self.quantile(q) for q in qs}

    def snapshot(self) -> Dict[str, Any]:
        """Counters + per-bucket counts (empty buckets elided) + quantiles."""
        with self._lock:
            counts = list(self._counts)
            count = self.count
            total = self.total
            lo_seen, hi_seen = self.min, self.max
        buckets = {
            f"le_{bound:g}": c
            for bound, c in zip(self.bounds, counts)
            if c
        }
        if counts[-1]:
            buckets["inf"] = counts[-1]
        unit = self.unit
        return {
            "count": count,
            f"total_{unit}": total,
            f"mean_{unit}": (total / count if count else None),
            f"min_{unit}": lo_seen,
            f"max_{unit}": hi_seen,
            "buckets": buckets,
            "quantiles": {
                f"p{round(q * 100):d}": self._quantile_locked_free(
                    q, counts, count, lo_seen, hi_seen
                )
                for q in DEFAULT_QUANTILES
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """A named collection of counters and histograms.

    ``counter()``/``histogram()`` are get-or-create (the instrument for a
    name is a singleton within its registry), so call sites can look
    instruments up by name without plumbing objects.

    Registries compose by :meth:`attach`\\ ing children under an optional
    prefix.  A snapshot then *merges* the tree: counters sum, histograms
    bucket-merge.  Attachment shares no mutable state — each registry
    keeps single-writer semantics, and a registry reached twice (two
    engines attaching one shared cache registry) merges once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._children: List[Tuple[str, "MetricsRegistry"]] = []

    # -- instruments ----------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def histogram(
        self,
        name: str,
        bounds: Optional[Iterable[float]] = None,
        unit: str = "seconds",
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    bounds, name=name, unit=unit
                )
            return instrument

    # -- composition ----------------------------------------------------

    def attach(self, child: "MetricsRegistry", prefix: str = "") -> None:
        """Include ``child``'s metrics (under ``prefix.``) in snapshots.

        Attaching the same child twice is a no-op; attaching several
        registries that use the same metric names merges them by sum at
        snapshot time (the cross-worker aggregation path).
        """
        if child is self:
            raise ValueError("cannot attach a registry to itself")
        with self._lock:
            for existing_prefix, existing in self._children:
                if existing is child and existing_prefix == prefix:
                    return
            self._children.append((prefix, child))

    # -- snapshots ------------------------------------------------------

    def _merge_into(
        self,
        prefix: str,
        counters: Dict[str, int],
        histograms: Dict[str, Histogram],
        seen: set,
    ) -> None:
        if id(self) in seen:  # cycle guard: attach graphs, not trees
            return
        seen.add(id(self))
        with self._lock:
            own_counters = list(self._counters.items())
            own_histograms = list(self._histograms.items())
            children = list(self._children)
        dot = prefix + "." if prefix else ""
        for name, counter in own_counters:
            key = dot + name
            counters[key] = counters.get(key, 0) + counter.value
        for name, histogram in own_histograms:
            key = dot + name
            merged = histograms.get(key)
            if merged is None:
                merged = histograms[key] = Histogram(
                    histogram.bounds, name=key, unit=histogram.unit
                )
            merged.merge(histogram)
        for child_prefix, child in children:
            child._merge_into(
                dot + child_prefix if child_prefix else prefix,
                counters,
                histograms,
                seen,
            )

    def snapshot(self) -> Dict[str, Any]:
        """One atomic, JSON-ready view of the whole attached tree:
        ``{"counters": {name: int}, "histograms": {name: {...}}}``."""
        counters: Dict[str, int] = {}
        histograms: Dict[str, Histogram] = {}
        self._merge_into("", counters, histograms, set())
        return {
            "counters": dict(sorted(counters.items())),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(histograms.items())
            },
        }

"""Exporters: JSONL span logs, Chrome trace JSON, Prometheus text.

Three wire formats over the same in-memory telemetry:

* :func:`spans_to_jsonl` — one JSON object per line per span; the
  grep-able archival format.
* :func:`chrome_trace` — the Chrome trace-event format (``traceEvents``
  with ``ph: "X"`` complete events, microsecond timestamps), loadable in
  Perfetto / ``chrome://tracing`` as a flame graph.  Parent/child edges
  are encoded positionally (Perfetto nests by time containment per
  track), and each span's ``args`` carries its ids and attributes.
* :func:`prometheus_text` — the Prometheus text exposition format for a
  :class:`~repro.telemetry.metrics.MetricsRegistry` snapshot: counters
  and histograms with cumulative ``_bucket{le=...}`` series.

Plus :func:`render_trace_tree`, the ``repro trace`` CLI's ASCII view.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.telemetry.trace import Span

__all__ = [
    "spans_to_dicts",
    "spans_to_jsonl",
    "chrome_trace",
    "trace_document",
    "prometheus_text",
    "render_trace_tree",
]

_SpanLike = Any  # Span or its to_dict() mapping


def _as_dict(span: _SpanLike) -> Dict[str, Any]:
    if isinstance(span, Span):
        return span.to_dict()
    return dict(span)


def spans_to_dicts(spans: Iterable[_SpanLike]) -> List[Dict[str, Any]]:
    """Normalise spans (objects or mappings) to JSON-ready rows."""
    return [_as_dict(span) for span in spans]


def spans_to_jsonl(spans: Iterable[_SpanLike]) -> str:
    """One compact JSON object per line, one line per span."""
    return "\n".join(
        json.dumps(row, sort_keys=True) for row in spans_to_dicts(spans)
    )


def chrome_trace(
    spans: Iterable[_SpanLike], process_name: str = "repro"
) -> Dict[str, Any]:
    """Spans as a Chrome trace-event JSON document.

    Every span becomes a ``ph: "X"`` (complete) event with microsecond
    ``ts``/``dur`` rebased so the earliest span starts at 0.  Spans are
    grouped onto one thread track per recording thread, which is what
    makes the flame-graph nesting match the span hierarchy.
    """
    rows = spans_to_dicts(spans)
    if rows:
        t0 = min(row["start"] for row in rows)
    else:
        t0 = 0.0
    threads: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for row in rows:
        thread = row.get("thread") or "main"
        tid = threads.setdefault(thread, len(threads) + 1)
        duration = row.get("duration") or 0.0
        events.append(
            {
                "name": row["name"],
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": (row["start"] - t0) * 1e6,
                "dur": duration * 1e6,
                "args": {
                    "trace_id": row.get("trace_id"),
                    "span_id": row.get("span_id"),
                    "parent_id": row.get("parent_id"),
                    **(row.get("attrs") or {}),
                },
            }
        )
    for thread, tid in threads.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": thread},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"process": process_name},
    }


def trace_document(
    spans: Iterable[_SpanLike], **extra: Any
) -> Dict[str, Any]:
    """The per-job trace file: Chrome trace plus raw ``spans`` rows.

    The Chrome spec permits extra top-level keys, so one file both loads
    in Perfetto and round-trips the full span hierarchy for ``repro
    trace`` (ids, parents, attributes).
    """
    rows = spans_to_dicts(spans)
    document = chrome_trace(rows)
    document["spans"] = rows
    document.update(extra)
    return document


def _prom_name(name: str, prefix: str = "repro") -> str:
    cleaned = name.replace(".", "_").replace("-", "_")
    return f"{prefix}_{cleaned}" if prefix else cleaned


def _prom_number(value: Any) -> str:
    if value is None:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def prometheus_text(
    snapshot: Mapping[str, Any], prefix: str = "repro"
) -> str:
    """A registry snapshot in the Prometheus text exposition format.

    Counters emit ``# TYPE ... counter``; histograms the conventional cumulative ``_bucket{le="..."}`` series plus
    ``_sum`` and ``_count``.  Dotted metric names flatten to
    underscores under a ``repro_`` namespace.
    """
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, hist in snapshot.get("histograms", {}).items():
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        buckets: Mapping[str, int] = hist.get("buckets", {})
        # Snapshot buckets are per-bucket counts keyed "le_<bound>"/"inf";
        # Prometheus wants cumulative counts keyed by upper bound.
        parsed = []
        for key, count in buckets.items():
            bound = (
                float("inf")
                if key == "inf"
                else float(key[len("le_") :])
            )
            parsed.append((bound, count))
        parsed.sort(key=lambda item: item[0])
        cumulative = 0
        for bound, count in parsed:
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{_prom_number(bound)}"}} {cumulative}'
            )
        total = hist.get("count", 0)
        if not parsed or parsed[-1][0] != float("inf"):
            lines.append(f'{metric}_bucket{{le="+Inf"}} {total}')
        lines.append(
            f"{metric}_sum {_prom_number(hist.get('total_seconds', 0.0))}"
        )
        lines.append(f"{metric}_count {total}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_trace_tree(spans: Sequence[_SpanLike]) -> str:
    """An indented ASCII view of one trace's span hierarchy.

    Orphan spans (parent not in the set — e.g. dropped by the ring
    buffer) render as additional roots, so partial traces still print.
    """
    rows = spans_to_dicts(spans)
    if not rows:
        return "(no spans)"
    by_id = {row["span_id"]: row for row in rows}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for row in rows:
        parent = row.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(row)
    for siblings in children.values():
        siblings.sort(key=lambda r: (r["start"], r["span_id"]))
    t0 = min(row["start"] for row in rows)
    lines: List[str] = []

    def walk(row: Dict[str, Any], depth: int) -> None:
        duration = row.get("duration")
        dur_ms = f"{duration * 1e3:9.3f}ms" if duration is not None else (
            "     open"
        )
        offset_ms = (row["start"] - t0) * 1e3
        attrs = row.get("attrs") or {}
        attr_text = (
            " " + " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
            if attrs
            else ""
        )
        lines.append(
            f"{offset_ms:10.3f}ms {dur_ms}  "
            f"{'  ' * depth}{row['name']}{attr_text}"
        )
        for child in children.get(row["span_id"], []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)

"""The unified telemetry spine: tracing, metrics, exporters.

One cross-cutting layer answering "where did job X's time go?" across
admission -> queue -> compile -> stacked-execute -> reconstruct:

* :mod:`repro.telemetry.trace` — hierarchical spans with contextvar
  propagation and a near-zero-cost disabled path.
* :mod:`repro.telemetry.metrics` — counters/histograms in one
  labeled namespace, composed across components by registry attachment.
* :mod:`repro.telemetry.export` — JSONL span logs, Chrome trace-event
  JSON (Perfetto flame graphs), Prometheus text snapshots.

Every count lives in a registry and is read through one surface,
``Session.telemetry_snapshot()`` / ``ServiceSupervisor.telemetry_snapshot()``
(see ARCHITECTURE.md, "Telemetry").
"""

from repro.telemetry.export import (
    chrome_trace,
    prometheus_text,
    render_trace_tree,
    spans_to_dicts,
    spans_to_jsonl,
    trace_document,
)
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_span,
    get_tracer,
    use_tracer,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "use_tracer",
    "current_span",
    "chrome_trace",
    "prometheus_text",
    "render_trace_tree",
    "spans_to_dicts",
    "spans_to_jsonl",
    "trace_document",
]

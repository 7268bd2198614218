"""Zero-dependency observability: structured tracing + metrics.

The pipeline — parse → dependence → alignment → decomposition →
scheduling → legality → mapped pricing — used to be visible only
through a global ``cProfile`` dump and three mutually inconsistent
ad-hoc stat surfaces.  This package replaces all of that with one
subsystem:

* :mod:`~repro.obs.tracing` — **spans**: a context-manager/decorator
  API (``with span("align.step1"): ...``) recording wall time, call
  counts and parent/child nesting, with a no-op fast path when tracing
  is disabled (the default) and per-task capture buffers so worker
  processes ship their span trees back through
  :class:`~repro.campaign.store.TaskResult`;
* :mod:`~repro.obs.metrics` — a **registry** of counters, gauges and
  histograms plus snapshot *providers*, unifying the pre-existing cache
  stats (linalg normal forms, route caches, per-worker compile LRU) and
  the executor lifecycle counters under one namespace with a single
  ``snapshot()`` → plain-dict export;
* :mod:`~repro.obs.trace` — the JSONL **trace file** written by
  ``campaign run --trace out.jsonl`` and the per-stage breakdown report
  behind ``python -m repro trace report`` / ``campaign summarize
  --timings``.

Tracing is off by default: :func:`enable` turns it on process-wide,
the CLI's ``--trace`` flag for one campaign; executor backends forward
the enablement to their workers explicitly, so spawn-context workers
trace too.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    clear_metrics,
    counter,
    gauge,
    histogram,
    register_provider,
    snapshot,
)
from .trace import (
    TraceWriter,
    format_span_table,
    format_stage_breakdown,
    format_trace_report,
    load_trace,
    stage_rows,
    stage_totals,
)
from .tracing import (
    capture,
    clear_spans,
    disable,
    enable,
    freeze_capture,
    is_enabled,
    merge_spans,
    set_enabled,
    span,
    span_snapshot,
    traced,
)

__all__ = [
    "span",
    "traced",
    "capture",
    "freeze_capture",
    "enable",
    "disable",
    "set_enabled",
    "is_enabled",
    "span_snapshot",
    "merge_spans",
    "clear_spans",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "register_provider",
    "snapshot",
    "clear_metrics",
    "TraceWriter",
    "load_trace",
    "stage_rows",
    "stage_totals",
    "format_stage_breakdown",
    "format_span_table",
    "format_trace_report",
]

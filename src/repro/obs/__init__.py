"""End-to-end observability for the watermarking pipeline.

Zero-dependency spans, metrics and diagnostics threaded through every
layer of the system — the instrumentation that turns "the batch took
41s" into "the prepare trace took 28s over 3.1M VM steps, and copy
0413's self-check run dominated its worker". Six pieces:

* :mod:`~repro.obs.spans` — a span/trace API with ambient context
  propagation (:func:`span`, :func:`current_context`, :func:`attach`)
  that survives ``ProcessPoolExecutor`` hops: workers record spans
  locally and the parent grafts them back into one tree;
* :mod:`~repro.obs.metrics` — a Prometheus-shaped metrics registry
  (counters, gauges, histograms) with JSON-lines and Prometheus-text
  exporters;
* :mod:`~repro.obs.journal` — the operational telemetry hub: every
  layer emits structured events (:func:`emit`) and finished spans
  into bounded in-memory rings plus an append-only, size-rotated
  JSONL journal that the daemon's ``/v1/obs/*`` routes and the
  ``repro obs`` CLI read;
* :mod:`~repro.obs.slo` — declarative service-level objectives
  (latency p95, error rate, recovery rate, retry budget) evaluated
  with burn rates over journal windows; the daemon's ``/healthz``
  verdict and the CI gate;
* :mod:`~repro.obs.promcheck` — a Prometheus text-exposition
  conformance auditor (:func:`check_exposition`) used by tests and
  the CI obs gate against a live ``/metrics``;
* :mod:`~repro.obs.recognition` — structured
  :class:`~repro.obs.recognition.RecognitionReport` diagnostics for
  both recognizers (window/voting/CRT funnel, native chain linkage).

Everything is **pay-for-use**: with tracing disabled, :func:`span`
only keeps time (two clock reads; its ``duration`` is the one clock
the reports read) and records nothing; the VM is never instrumented
per instruction — each run's ``steps`` goes on the span that times
it; the ambient metrics registry is a handful of dict updates per
pipeline *stage*.

Typical use::

    from repro import obs

    tracer = obs.enable_tracing()
    with obs.span("batch", copies=100):
        ...
    tracer.write_jsonl(fp)                  # spans, one JSON per line
    print(obs.get_registry().to_prometheus())
"""

from __future__ import annotations

from .journal import (
    Event,
    HubConfig,
    TelemetryHub,
    emit,
    get_hub,
    read_events,
    read_journal,
    read_spans,
    set_hub,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .promcheck import check_exposition
from .recognition import RecognitionReport
from .slo import Objective, SLOEngine, default_objectives
from .spans import (
    Span,
    SpanContext,
    Tracer,
    attach,
    current_context,
    disable_tracing,
    enable_tracing,
    get_tracer,
    render_span_tree,
    span,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Event",
    "Gauge",
    "Histogram",
    "HubConfig",
    "MetricsRegistry",
    "Objective",
    "RecognitionReport",
    "SLOEngine",
    "Span",
    "SpanContext",
    "TelemetryHub",
    "Tracer",
    "attach",
    "check_exposition",
    "current_context",
    "default_objectives",
    "disable_tracing",
    "emit",
    "enable_tracing",
    "get_hub",
    "get_registry",
    "get_tracer",
    "read_events",
    "read_journal",
    "read_spans",
    "render_span_tree",
    "set_hub",
    "set_registry",
    "span",
]

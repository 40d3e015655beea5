"""End-to-end observability for the PROX pipeline.

Three independent, dependency-free facilities (DESIGN.md
"Observability"):

* :mod:`repro.observability.metrics` -- counters, gauges and
  fixed-bucket histograms in a process-wide registry, rendered in
  Prometheus text format by ``GET /metrics`` on the PROX server.
  On by default; ``REPRO_METRICS=off`` disables.
* :mod:`repro.observability.tracing` -- hierarchical spans with
  monotonic timings (``summarize > step[k] > score_candidates``),
  dumped as JSON via ``repro summarize --trace``.  Off by default;
  ``REPRO_TRACE=on`` enables.
* :mod:`repro.observability.log` -- structured key=value logging on
  the stdlib ``logging`` hierarchy under ``repro.*``;
  ``REPRO_LOG_LEVEL`` sets the level (default ``warning``).

Serving-tier SLO observability layers on top (docs/OPERATIONS.md):

* :mod:`repro.observability.profiling` -- stdlib sampling profiler
  (``REPRO_PROFILE``) producing collapsed stacks / flamegraph JSON,
  with samples attributed to the active tracing span; exposed by
  ``repro summarize --profile`` and ``GET /debug/profile``.
* :mod:`repro.observability.resources` -- per-session resource
  accounting (annotations, pool size, work counters) behind
  ``GET /sessions/<id>/stats``, labeled session gauges and the
  eviction advisor.
* :mod:`repro.observability.slo` -- declared per-endpoint latency
  targets, the ``prox_slo_breaches_total`` counter and the bounded
  tail-sampled slow-request ring behind ``GET /debug/slow_requests``.

All instrumentation is zero-cost when disabled: call sites guard on
module-level flags and never pre-format strings for a switched-off
sink.  :mod:`repro.observability.health` builds the lock-free
``GET /healthz`` payload.
"""

from . import health, log, metrics, profiling, resources, slo, tracing
from .health import health_payload, uptime_seconds
from .profiling import Profiler
from .resources import ResourceRegistry, SessionAccount
from .slo import SloPolicy, SlowRequestLog
from .log import KeyValueFormatter, configure as configure_logging, fields, get_logger
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    counter,
    gauge,
    histogram,
)
from .tracing import NULL_SPAN, Span, current, is_enabled, last_trace, set_enabled, span, take_trace

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "KeyValueFormatter",
    "MetricsRegistry",
    "NULL_SPAN",
    "REGISTRY",
    "Span",
    "configure_logging",
    "counter",
    "current",
    "fields",
    "gauge",
    "get_logger",
    "health",
    "health_payload",
    "histogram",
    "is_enabled",
    "last_trace",
    "log",
    "metrics",
    "profiling",
    "Profiler",
    "resources",
    "ResourceRegistry",
    "SessionAccount",
    "set_enabled",
    "slo",
    "SloPolicy",
    "SlowRequestLog",
    "span",
    "take_trace",
    "tracing",
    "uptime_seconds",
]

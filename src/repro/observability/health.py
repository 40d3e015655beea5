"""Liveness payload for ``GET /healthz`` (and anything else that asks).

Deliberately cheap and lock-free: a health probe must answer even when
a long summarization holds the session lock, so the payload reads only
process-global state (uptime, pid, observability switches) plus
whatever harmless extras the caller passes in.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, Mapping, Optional

from . import metrics, resources, tracing

#: Process start reference (monotonic, set at first import).
_STARTED = time.monotonic()


def uptime_seconds() -> float:
    """Seconds since this module was first imported."""
    return time.monotonic() - _STARTED


def _active_kernel() -> str:
    """The active scoring kernel backend name.

    Imported lazily: ``repro.core`` depends on this package, so the
    reverse import must not run at module-initialization time.
    """
    try:
        from ..core import kernels

        return kernels.active_backend()
    except Exception:
        return "unknown"


def health_payload(extra: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
    """The ``/healthz`` body: static process facts plus caller extras."""
    payload: Dict[str, object] = {
        "status": "ok",
        "uptime_seconds": round(uptime_seconds(), 3),
        "pid": os.getpid(),
        "python": sys.version.split()[0],
        "metrics_enabled": metrics.ENABLED,
        "tracing_enabled": tracing.is_enabled(),
        "kernel": _active_kernel(),
        "metric_families": len(metrics.REGISTRY.names()),
        # Serving-tier aggregate: how many sessions this process holds.
        "active_sessions": resources.REGISTRY.count(),
    }
    if extra:
        payload.update(extra)
    return payload

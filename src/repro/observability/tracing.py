"""Hierarchical tracing spans with monotonic timings.

One summarization run produces a span tree::

    summarize
    ├── step[1]
    │   └── score_candidates   (path, kernel, n_candidates, seconds)
    │       └── scorer_build   (n_vals, n_keys, nonzero_keys)
    ├── step[2]
    │   └── score_candidates
    └── ...

Spans are context managers; entering pushes onto a thread-local stack
(so concurrent server requests trace independently), exiting records
the monotonic duration and attaches the span to its parent.  When a
*root* span closes, the finished tree is parked where
:func:`take_trace` can collect it -- the ``repro summarize --trace``
CLI flag dumps it as JSON.

Zero-cost contract: tracing is **off by default** (enable with
``REPRO_TRACE=on`` or :func:`set_enabled`).  While disabled,
:func:`span` returns the shared :data:`NULL_SPAN` before touching its
format arguments, so a hot call site writes
``span("step[%d]", k)`` -- the ``%`` formatting only happens when a
trace is actually being recorded, and attribute writes via
:meth:`Span.set` degrade to no-op method calls.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

_ON_WORDS = frozenset({"1", "on", "true", "yes", "enabled"})

_enabled: bool = os.environ.get("REPRO_TRACE", "off").strip().lower() in _ON_WORDS

_local = threading.local()


def is_enabled() -> bool:
    """Whether spans are currently being recorded (this process)."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Turn span recording on or off; clears nothing already recorded."""
    global _enabled
    _enabled = bool(flag)


#: Per-thread span stacks, keyed by thread ident, registered the first
#: time a thread opens a span.  The sampling profiler reads a *foreign*
#: thread's innermost span name here to attribute wall-clock samples to
#: spans (:func:`active_span_name`); the lists are mutated in place by
#: their owning threads, so readers only ever see a consistent snapshot
#: under the GIL.  One dict write per thread lifetime -- negligible.
_ACTIVE_STACKS: Dict[int, List["Span"]] = {}


def _stack() -> List["Span"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
        _ACTIVE_STACKS[threading.get_ident()] = stack
    return stack


def active_span_name(thread_id: int) -> Optional[str]:
    """The innermost open span name of *any* thread (profiler hook).

    Best-effort and lock-free: the owning thread may pop concurrently,
    in which case the sample is simply unattributed.
    """
    stack = _ACTIVE_STACKS.get(thread_id)
    if not stack:
        return None
    try:
        return stack[-1].name
    except IndexError:  # pragma: no cover - owner popped mid-read
        return None


def prune_active_stacks(live_thread_ids) -> None:
    """Drop stack registrations for threads no longer alive."""
    live = set(live_thread_ids)
    for thread_id in list(_ACTIVE_STACKS):
        if thread_id not in live:
            _ACTIVE_STACKS.pop(thread_id, None)


class Span:
    """One timed node of the trace tree."""

    __slots__ = ("name", "attributes", "children", "duration", "_start")

    def __init__(self, name: str):
        self.name = name
        self.attributes: Dict[str, object] = {}
        self.children: List["Span"] = []
        self.duration: float = 0.0
        self._start: float = 0.0

    def set(self, key: str, value: object) -> None:
        """Attach one attribute (overwrites)."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        _stack().append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._start
        if exc_type is not None:
            # Errored spans carry the exception so slow-request dumps
            # distinguish "slow because it failed" from plain latency.
            self.attributes["error"] = True
            self.attributes["error_type"] = exc_type.__name__
            self.attributes["error_message"] = str(exc)
        stack = _stack()
        # Tolerate enable/disable mid-span: only pop if we are on top.
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1].children.append(self)
        else:
            _local.last_trace = self
        return False

    def to_dict(self, base: Optional[float] = None) -> Dict[str, object]:
        """JSON-ready form; offsets are relative to the tree's root."""
        if base is None:
            base = self._start
        node: Dict[str, object] = {
            "name": self.name,
            "offset_seconds": max(0.0, self._start - base),
            "duration_seconds": self.duration,
        }
        if self.attributes:
            node["attributes"] = dict(self.attributes)
        if self.children:
            node["children"] = [child.to_dict(base) for child in self.children]
        return node

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first lookup of a descendant (or self) by name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, duration={self.duration:.6f}, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


def span(name: str, *fmt_args: object, **attributes: object):
    """Open a span named ``name`` (``name % fmt_args`` when args given).

    Hot call sites pass lazy ``%`` arguments instead of pre-formatted
    strings so a disabled tracer never pays for string interpolation.
    """
    if not _enabled:
        return NULL_SPAN
    if fmt_args:
        name = name % fmt_args
    opened = Span(name)
    if attributes:
        opened.attributes.update(attributes)
    return opened


def current() -> Optional[Span]:
    """The innermost open span of this thread, if any."""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


def last_trace() -> Optional[Span]:
    """The most recent completed root span of this thread (kept)."""
    return getattr(_local, "last_trace", None)


def take_trace() -> Optional[Span]:
    """The most recent completed root span of this thread (cleared)."""
    trace = getattr(_local, "last_trace", None)
    _local.last_trace = None
    return trace

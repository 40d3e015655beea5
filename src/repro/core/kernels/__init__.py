"""Pluggable scoring kernel backends (``REPRO_KERNEL=auto|python|native``).

The bit-packed scorers funnel their hot folds through one active
:class:`~repro.core.kernels.protocol.KernelBackend`:

* ``python`` -- the reference backend: the exact loops the scorers ran
  inline before this tier existed, re-expressed over packed word rows.
* ``native`` -- a small C shared library (mask scatter, group folds
  by row index, sparse scoring, hardware popcount) over the same
  ``array('Q')`` buffers, compiled on demand and driven via ctypes (see
  :mod:`repro.core.kernels.native_backend`).

The env knob is read once at import.  ``auto`` (the default; an empty
value means the same) picks native, then python -- native is the
faster of the two on every workload measured (the README defaults
table records the figures).  ``auto`` therefore compiles the C
library on first import when no fresh build exists, and silently
settles for python when the toolchain is missing.  An explicit
``REPRO_KERNEL=native`` probes the toolchain and *degrades* to python
with a structured ``kernel_fallback`` warning instead of crashing.
Any other token logs ``kernel_unknown`` and resolves as ``auto``.
:func:`set_backend` / :func:`backend` switch process-wide at runtime
(scorers capture the active backend at construction, so a mid-step
switch never mixes backends within one scorer).

The active backend is observable: the ``repro_kernel_backend``
info-style gauge (1 for the active backend, 0 for the other), the
``kernel=`` attribute on scoring spans, and the ``kernel`` field of
``/healthz``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from ...observability import log as _log
from ...observability import metrics as _metrics
from .masktable import MaskTable, full_row, row_int, words_for, zero_row
from .protocol import KernelBackend, MaskedValue, SPARSE_KINDS
from .reference import PythonKernel

__all__ = [
    "KernelBackend",
    "MaskedValue",
    "MaskTable",
    "PythonKernel",
    "SPARSE_KINDS",
    "MODE_PYTHON",
    "MODE_NATIVE",
    "active_backend",
    "get_backend",
    "set_backend",
    "backend",
    "full_row",
    "row_int",
    "words_for",
    "zero_row",
    "native_available",
    "native_unavailable_reason",
    "publish_backend_metric",
]

MODE_PYTHON = "python"
MODE_NATIVE = "native"

_AUTO_WORDS = frozenset({"", "auto"})

_KERNEL_BACKEND = _metrics.gauge(
    "repro_kernel_backend",
    "Active scoring kernel backend (info-style: 1 for the active backend).",
    labelnames=("backend",),
)

_LOGGER_NAME = "core.kernels"

_REFERENCE = PythonKernel()

#: Lazily probed native backend; ``False`` = probe failed, ``None`` =
#: not probed yet.
_NATIVE_BACKEND: object = None
_NATIVE_ERROR: Optional[str] = None


def _native_backend() -> Optional[KernelBackend]:
    """The native backend instance, or ``None`` when it can't build."""
    global _NATIVE_BACKEND, _NATIVE_ERROR
    if _NATIVE_BACKEND is None:
        try:
            from .native_backend import NativeKernel

            _NATIVE_BACKEND = NativeKernel()
        except Exception as exc:  # no compiler, dlopen failure, ...
            _NATIVE_BACKEND = False
            _NATIVE_ERROR = f"{type(exc).__name__}: {exc}"
    return _NATIVE_BACKEND if _NATIVE_BACKEND is not False else None


def native_available() -> bool:
    """Whether the native backend can be built/loaded in this process."""
    return _native_backend() is not None


def native_unavailable_reason() -> Optional[str]:
    """Why the native probe failed (``None`` when it succeeded)."""
    _native_backend()
    return _NATIVE_ERROR


def _resolve_name(raw: str) -> str:
    """Map one ``REPRO_KERNEL`` token to an available backend name."""
    token = raw.strip().lower()
    if token == MODE_PYTHON:
        return MODE_PYTHON
    if token == MODE_NATIVE:
        if native_available():
            return MODE_NATIVE
        _log.get_logger(_LOGGER_NAME).warning(
            "kernel_fallback requested=native active=python reason=%s",
            _log.quote(native_unavailable_reason() or "native unavailable"),
        )
        return MODE_PYTHON
    if token not in _AUTO_WORDS:
        _log.get_logger(_LOGGER_NAME).warning(
            "kernel_unknown requested=%s resolution=auto", _log.quote(raw)
        )
    return MODE_NATIVE if native_available() else MODE_PYTHON


def publish_backend_metric() -> None:
    """(Re-)export the ``repro_kernel_backend`` info gauge."""
    active = _BACKEND_NAME
    for name in (MODE_PYTHON, MODE_NATIVE):
        _KERNEL_BACKEND.set(1.0 if name == active else 0.0, backend=name)


def active_backend() -> str:
    """Name of the backend currently in effect."""
    return _BACKEND_NAME


def get_backend() -> KernelBackend:
    """The active backend object (scorers capture it at construction)."""
    if _BACKEND_NAME == MODE_NATIVE:
        resolved = _native_backend()
        if resolved is not None:
            return resolved
    return _REFERENCE


def set_backend(name: str) -> str:
    """Switch kernel backends process-wide; returns the resolved name.

    Accepts the same tokens as ``REPRO_KERNEL`` and degrades the same
    way (native requested but unbuildable → python, with a warning),
    so callers can thread raw config values straight through.
    """
    global _BACKEND_NAME
    _BACKEND_NAME = _resolve_name(str(name))
    publish_backend_metric()
    return _BACKEND_NAME


@contextmanager
def backend(temporary: str) -> Iterator[str]:
    """Temporarily switch backends (tests and differentials)."""
    previous = active_backend()
    resolved = set_backend(temporary)
    try:
        yield resolved
    finally:
        set_backend(previous)


_BACKEND_NAME: str = _resolve_name(os.environ.get("REPRO_KERNEL", "auto"))
publish_backend_metric()

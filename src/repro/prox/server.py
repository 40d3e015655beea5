"""PROX as an HTTP service (§7.1's REST API, stdlib-only).

The original PROX exposes its selection, summarization and evaluation
services as REST endpoints behind a Java/Spring server.  This module
is the *HTTP adapter* only: socket plumbing, request metrics and
latency-SLO accounting.  Routing and handler logic live in
:class:`~repro.prox.app.ProxApp`, so the exact same handlers serve the
single-process server here and the sharded multi-worker front
(:mod:`repro.prox.workers`).

=======  =========================  ======================================
method   path                       body / query
=======  =========================  ======================================
GET      /titles                    optional ``?search=substring``
POST     /select                    ``{"titles": [...]}`` or
                                    ``{"genre": ..., "year": ...,
                                    "decade": ...}``
POST     /summarize                 the Figure 7.4 form fields (see
                                    :class:`SummarizationRequest`)
GET      /summary/expression        the polynomial-form view (Figure 7.8)
GET      /summary/groups            the groups view (Figures 7.5-7.7)
POST     /ingest                    a streaming provenance delta
POST     /evaluate                  ``{"false_annotations": [...],
                                    "false_attributes": {...}}``
POST     /sessions                  create a session -> 201; at the
                                    capacity limit -> 429 + Retry-After
DELETE   /sessions/<id>             close a session
POST     /sessions/<id>/evict       snapshot-evict to disk now
POST     /sessions/<id>/restore     rehydrate an evicted session now
GET      /sessions                  per-session resource accounts,
                                    manager stats, eviction ranking
GET      /sessions/<id>/stats       one session's account (lock-free)
GET      /healthz                   liveness probe (lock-free)
GET      /metrics                   Prometheus text exposition
GET      /debug/profile             profiler snapshot / bounded burst
GET      /debug/slow_requests       tail-sampled SLO-breach ring
=======  =========================  ======================================

Every data route also accepts the session-scoped forms
``/sessions/<id>/summarize`` and ``?session=<id>``; without either, the
server's default session answers (single-session back-compat).  Each
request locks only its own session -- ``/healthz``, ``/metrics``,
``/sessions`` and a ``/summarize`` on another session never contend.

Latency SLOs: every route has a declared target
(:class:`~repro.observability.slo.SloPolicy`; override via
``ProxServer(slo=...)``).  A request slower than its target counts one
``prox_slo_breaches_total{scope=<route>}`` and is retained in the
slow-request ring -- with its full span tree when tracing is enabled.

Responses are JSON (``/metrics`` is ``text/plain``); errors use
conventional status codes with a ``{"error": ...}`` body.  Every
request is counted in ``prox_http_requests_total{method,path,status}``
/ timed in ``prox_http_request_seconds`` and logged at INFO through
``repro.prox.server``.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..observability import log as _log
from ..observability import metrics as _metrics
from ..observability import profiling as _profiling
from ..observability import slo as _slo
from ..observability import tracing as _tracing
from .app import ProxApp, metric_path as _metric_path
from .manager import SessionManager
from .session import ProxSession

_LOG = _log.get_logger("prox.server")
_HTTP_REQUESTS = _metrics.counter(
    "prox_http_requests_total",
    "HTTP requests served, by method, route and status.",
    labelnames=("method", "path", "status"),
)
_HTTP_SECONDS = _metrics.histogram(
    "prox_http_request_seconds",
    "HTTP request handling seconds, by route.",
    labelnames=("path",),
)


class ProxRequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP adapter: parse, dispatch to the backend, write."""

    server_version = "PROX/1.0"
    #: Set by ProxServer: the dispatch backend (a ProxApp or a sharded
    #: front), the latency SLO policy, the tail-sampled slow-request
    #: ring, and the owning server (in-flight accounting for drain).
    backend: Any
    slo_policy: _slo.SloPolicy
    slow_log: _slo.SlowRequestLog
    prox_server: "ProxServer"

    #: Status of the response most recently written by this handler.
    _last_status: int = 0

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Route ``http.server``'s raw stderr lines through the
        structured logger at DEBUG (silent at the default level, so
        tests and the CLI stay quiet; ``REPRO_LOG_LEVEL=debug`` shows
        them)."""
        _LOG.debug("http_server message=%s", format % args)

    def _send_bytes(self, status: int, body: bytes, content_type: str,
                    headers: Optional[Dict[str, str]] = None) -> None:
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_response(self, response: Tuple[int, Any, str, Dict[str, str]]) -> None:
        status, payload, content_type, headers = response
        if isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        self._send_bytes(status, body, content_type, headers)

    def _body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0))
        if not length:
            return {}
        raw = self.rfile.read(length)
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid JSON body: {error}") from None
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # -- plumbing -----------------------------------------------------------

    def _observe(self, method: str, path: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        label_path = _metric_path(path)
        if _metrics.ENABLED:
            _HTTP_REQUESTS.inc(
                method=method, path=label_path, status=str(self._last_status)
            )
            _HTTP_SECONDS.observe(elapsed, path=label_path)
        # Latency SLO: count the breach, and tail-sample -- the request
        # span tree (complete by now: _observe runs after the span
        # closed) is retained only for requests over their target.
        target = self.slo_policy.target(label_path)
        breached = elapsed > target
        trace: Optional[Dict[str, Any]] = None
        if _tracing.is_enabled():
            root = _tracing.take_trace()
            if breached and root is not None:
                trace = root.to_dict()
        if breached:
            _slo.record_breach(label_path)
            self.slow_log.record(
                method=method,
                path=path,
                status=self._last_status,
                seconds=elapsed,
                target_seconds=target,
                trace=trace,
            )
        _LOG.info(
            "http_request method=%s path=%s status=%d seconds=%.4f",
            method,
            path,
            self._last_status,
            elapsed,
        )

    def _handle(self, method: str) -> None:
        started = time.perf_counter()
        from urllib.parse import parse_qs, urlparse

        parsed = urlparse(self.path)
        self.prox_server._request_started()
        try:
            with _tracing.span("http[%s %s]", method, parsed.path):
                try:
                    body = self._body() if method in ("POST", "DELETE") else {}
                except ValueError as error:
                    self._send_response(
                        (400, {"error": str(error)},
                         "application/json; charset=utf-8", {})
                    )
                    return
                query = {
                    key: values[0]
                    for key, values in parse_qs(parsed.query).items()
                }
                response = self.backend.dispatch(
                    method, parsed.path, query, body
                )
                self._send_response(response)
        finally:
            self.prox_server._request_finished()
            self._observe(method, parsed.path, started)

    def do_GET(self) -> None:  # noqa: N802
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")


class ProxServer:
    """A threaded PROX HTTP server over a dispatch backend.

    Single-session back-compat (the demo deployment)::

        server = ProxServer(session)          # port 0: pick a free port
        server.start()
        ... http requests against server.address ...
        server.stop()

    Multi-session::

        server = ProxServer(manager=SessionManager(max_sessions=32))

    Sharded (see :mod:`repro.prox.workers`)::

        server = ProxServer(backend=WorkerFront(workers=2))
    """

    def __init__(
        self,
        session: Optional[ProxSession] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        slo: Optional[_slo.SloPolicy] = None,
        manager: Optional[SessionManager] = None,
        backend: Optional[Any] = None,
    ):
        self.slo = slo if slo is not None else _slo.SloPolicy()
        self.slow_log = _slo.SlowRequestLog(ring_size=self.slo.ring_size)
        self.manager: Optional[SessionManager] = None
        self.app: Optional[ProxApp] = None
        self.session: Optional[ProxSession] = None
        if backend is not None:
            if session is not None or manager is not None:
                raise ValueError("backend= excludes session=/manager=")
            self.backend = backend
        else:
            self.manager = manager if manager is not None else SessionManager()
            default_session_id: Optional[str] = None
            if session is None and manager is None:
                session = ProxSession()
            if session is not None:
                self.manager.adopt(session)
                default_session_id = session.session_id
                self.session = session
            self.app = ProxApp(
                manager=self.manager,
                slo=self.slo,
                slow_log=self.slow_log,
                default_session_id=default_session_id,
            )
            self.backend = self.app
        handler = type(
            "BoundProxHandler",
            (ProxRequestHandler,),
            {
                "backend": self.backend,
                "slo_policy": self.slo,
                "slow_log": self.slow_log,
                "prox_server": self,
            },
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()

    # -- in-flight accounting (drain) --------------------------------------

    def _request_started(self) -> None:
        with self._inflight_lock:
            self._inflight += 1
            self._idle.clear()

    def _request_finished(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.set()

    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("server already started")
        # REPRO_PROFILE=on: the continuous profiler covers the server's
        # whole lifetime (no-op and zero-cost when the flag is off).
        _profiling.ensure_global()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="prox-http", daemon=True
        )
        self._thread.start()
        host, port = self.address
        _LOG.info("server_started host=%s port=%d", host, port)

    def drain(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Graceful shutdown, phase 1: quiesce and snapshot.

        Stops accepting new connections, waits for in-flight requests
        to finish (``ThreadingHTTPServer`` handler threads are daemons,
        so nothing else would), then snapshots live sessions via the
        backend.  Call :meth:`stop` afterwards to release the socket.
        """
        self._httpd.shutdown()
        drained_in_time = self._idle.wait(timeout)
        result: Dict[str, Any] = {"inflight_drained": drained_in_time}
        if not drained_in_time:  # pragma: no cover - pathological hang
            result["inflight_remaining"] = self.inflight()
            _LOG.warning(
                "drain_timeout inflight=%d timeout=%.1f",
                self.inflight(),
                timeout,
            )
        if hasattr(self.backend, "drain"):
            result["sessions"] = self.backend.drain()
        elif self.manager is not None:
            result["sessions"] = self.manager.drain()
        _LOG.info("server_drained result=%s", result)
        return result

    def stop(self) -> None:
        """Stop the accept loop and release the socket.

        Raises :class:`RuntimeError` if the server thread fails to exit
        within the join timeout -- a silently leaked thread would keep
        the port bound and hide the hang.
        """
        if self._thread is None:
            return
        self._httpd.shutdown()
        thread = self._thread
        thread.join(timeout=5)
        self._httpd.server_close()
        self._thread = None
        if thread.is_alive():
            raise RuntimeError(
                "server thread failed to stop within 5s; socket closed "
                "but the serve loop is still running"
            )
        _LOG.info("server_stopped")

    def __enter__(self) -> "ProxServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

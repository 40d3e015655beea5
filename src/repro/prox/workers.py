"""Sharded multi-process serving: consistent hashing, worker pool.

The shared-nothing tier: sessions are sharded across ``fork``\\ ed
worker processes by consistent-hashed session id (:class:`HashRing`),
so each worker owns a disjoint subset of sessions -- no cross-process
locks, no shared state.  The front (:class:`WorkerFront`) presents the
same ``dispatch(method, path, query, body)`` surface as a local
:class:`~repro.prox.app.ProxApp`, so :class:`~repro.prox.server.ProxServer`
serves either interchangeably::

    front = WorkerFront(n_workers=2, max_sessions=32)
    front.start()
    server = ProxServer(backend=front)

Forwarding runs over one bounded ``multiprocessing.Queue`` per worker:
``put_nowait`` on a full queue fails fast with ``429 Too Many
Requests`` + ``Retry-After`` (backpressure instead of unbounded
buffering), and per-worker depth is exported as
``prox_worker_queue_depth{worker=...}``.  Inside each worker a
:class:`~repro.prox.manager.SessionManager` + ``ProxApp`` handle
requests exactly as in single-process mode -- eviction loop included;
an evicted session restores in the worker that owns it, by replaying
its snapshot's event log.

Graceful drain: the front stops accepting, waits for in-flight
replies, then sends each worker a ``drain`` control op (workers
snapshot their live sessions and exit 0) and joins them --
a worker that fails to exit is terminated and reported.

Aggregation at the front: ``/healthz`` and ``/sessions`` merge worker
payloads; ``/metrics`` concatenates each worker's exposition below the
front's own (samples carry distinct series, so the scrape stays
valid); debug endpoints answer front-locally.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import multiprocessing as mp
import queue as _queue
import threading
import uuid
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..observability import health as _health
from ..observability import log as _log
from ..observability import metrics as _metrics
from ..observability import slo as _slo
from .app import (
    AppResponse,
    JSON,
    PROM_TEXT,
    ProxApp,
    error_response,
    json_response,
    split_session_path,
)
from .manager import SessionManager

_LOG = _log.get_logger("prox.workers")

_QUEUE_DEPTH = _metrics.gauge(
    "prox_worker_queue_depth",
    "Requests queued to each sharded worker (bounded; full -> 429).",
    labelnames=("worker",),
)
_FORWARDED = _metrics.counter(
    "prox_worker_requests_total",
    "Requests forwarded to sharded workers, by worker.",
    labelnames=("worker",),
)
_SHED = _metrics.counter(
    "prox_worker_shed_total",
    "Requests shed with 429 because a worker queue was full.",
    labelnames=("worker",),
)


class HashRing:
    """Consistent hash ring: session id -> worker index.

    Virtual replicas smooth the distribution; the mapping depends only
    on ``(n_workers, replicas)``, so front and workers agree without
    coordination, and stays deterministic across processes
    (``hashlib``, not ``hash()``, which is salted per process).
    """

    def __init__(self, n_workers: int, replicas: int = 64):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers
        points: List[Tuple[int, int]] = []
        for worker in range(n_workers):
            for replica in range(replicas):
                digest = hashlib.sha1(
                    f"worker-{worker}-replica-{replica}".encode()
                ).digest()
                points.append((int.from_bytes(digest[:8], "big"), worker))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def owner(self, session_id: str) -> int:
        """The worker index owning ``session_id``."""
        digest = hashlib.sha1(session_id.encode()).digest()
        point = int.from_bytes(digest[:8], "big")
        index = bisect.bisect(self._points, point) % len(self._points)
        return self._owners[index]


def _worker_main(
    worker_index: int,
    task_queue: "mp.Queue",
    reply_queue: "mp.Queue",
    max_sessions: int,
    snapshot_dir: Optional[str],
    evict_idle_seconds: float,
    eviction_interval: float,
) -> None:
    """Worker process loop: serve dispatch ops until ``drain``/``stop``.

    Ops are tuples ``(request_id, op, payload)``; replies are
    ``(request_id, worker_index, response)``.
    """
    manager = SessionManager(
        max_sessions=max_sessions,
        snapshot_dir=snapshot_dir,
        evict_idle_seconds=evict_idle_seconds,
        eviction_interval=eviction_interval,
    )
    manager.start_eviction_loop()
    app = ProxApp(manager=manager)
    while True:
        request_id, op, payload = task_queue.get()
        if op == "dispatch":
            method, path, query, body = payload
            try:
                response = app.dispatch(method, path, query, body)
            except Exception as error:  # pragma: no cover - defensive
                response = error_response(500, f"worker error: {error}")
            reply_queue.put((request_id, worker_index, response))
        elif op == "status":
            reply_queue.put(
                (
                    request_id,
                    worker_index,
                    json_response(
                        200,
                        {
                            "worker": worker_index,
                            "manager": manager.stats(),
                            "sessions": app.sessions_payload()["sessions"],
                            "metrics": _metrics.REGISTRY.render(),
                        },
                    ),
                )
            )
        elif op == "drain":
            manager.stop_eviction_loop()
            drained = manager.drain()
            reply_queue.put(
                (request_id, worker_index, json_response(200, dict(drained)))
            )
            break
        elif op == "stop":
            reply_queue.put((request_id, worker_index, json_response(200, {})))
            break
    if snapshot_dir is None:
        # No later process reads the manager's own temp directory: it
        # goes with its drain snapshots.  A given directory keeps them.
        manager.close_all()


class WorkerFront:
    """Routes session-scoped requests to sharded worker processes."""

    def __init__(
        self,
        n_workers: int = 2,
        max_sessions: int = 16,
        queue_depth: int = 32,
        snapshot_dir: Optional[str] = None,
        evict_idle_seconds: float = 300.0,
        eviction_interval: float = 5.0,
        slo: Optional[_slo.SloPolicy] = None,
        reply_timeout: float = 120.0,
    ):
        self.ring = HashRing(n_workers)
        self.n_workers = n_workers
        self.max_sessions = max_sessions
        self.queue_depth = queue_depth
        self.snapshot_dir = snapshot_dir
        self.evict_idle_seconds = evict_idle_seconds
        self.eviction_interval = eviction_interval
        self.reply_timeout = reply_timeout
        self.slo = slo if slo is not None else _slo.SloPolicy()
        self.slow_log = _slo.SlowRequestLog(ring_size=self.slo.ring_size)
        # Per-session max at each worker: capacity is a front-level
        # budget; each worker enforces its own share generously so the
        # front-level count (sessions created minus closed) governs.
        self._ctx = mp.get_context("fork")
        self._task_queues: List[mp.Queue] = []
        self._processes: List[mp.BaseProcess] = []
        self._reply_queue: Optional[mp.Queue] = None
        self._collector: Optional[threading.Thread] = None
        self._pending: Dict[int, Tuple[threading.Event, List[Any]]] = {}
        self._pending_lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._queued = [0] * n_workers
        self._queued_lock = threading.Lock()
        self._sessions: Dict[str, int] = {}
        self._sessions_lock = threading.Lock()
        self._started = False
        self._draining = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise RuntimeError("worker front already started")
        self._reply_queue = self._ctx.Queue()
        for index in range(self.n_workers):
            task_queue = self._ctx.Queue(maxsize=self.queue_depth)
            process = self._ctx.Process(
                target=_worker_main,
                args=(
                    index,
                    task_queue,
                    self._reply_queue,
                    self.max_sessions,
                    self.snapshot_dir,
                    self.evict_idle_seconds,
                    self.eviction_interval,
                ),
                name=f"prox-worker-{index}",
                daemon=True,
            )
            process.start()
            self._task_queues.append(task_queue)
            self._processes.append(process)
        self._collector = threading.Thread(
            target=self._collect_replies, name="prox-front-collector", daemon=True
        )
        self._collector.start()
        self._started = True
        _LOG.info("workers_started n=%d", self.n_workers)

    def _collect_replies(self) -> None:
        assert self._reply_queue is not None
        while True:
            item = self._reply_queue.get()
            if item is None:
                return
            request_id, worker_index, response = item
            with self._pending_lock:
                pending = self._pending.pop(request_id, None)
            if pending is None:
                continue
            event, slot = pending
            slot.append((worker_index, response))
            event.set()

    def _submit(
        self, worker: int, op: str, payload: Any, block: bool = False
    ) -> AppResponse:
        """Send one op to ``worker`` and wait for its reply."""
        if not self._started:
            raise RuntimeError("worker front not started")
        request_id = next(self._request_ids)
        event = threading.Event()
        slot: List[Any] = []
        with self._pending_lock:
            self._pending[request_id] = (event, slot)
        task = (request_id, op, payload)
        try:
            if block:
                self._task_queues[worker].put(task)
            else:
                self._task_queues[worker].put_nowait(task)
        except _queue.Full:
            with self._pending_lock:
                self._pending.pop(request_id, None)
            if _metrics.ENABLED:
                _SHED.inc(worker=str(worker))
            return error_response(
                429,
                f"worker {worker} queue full ({self.queue_depth} deep)",
                {"Retry-After": "1"},
            )
        self._note_queued(worker, +1)
        if _metrics.ENABLED:
            _FORWARDED.inc(worker=str(worker))
        try:
            if not event.wait(self.reply_timeout):
                return error_response(
                    504, f"worker {worker} did not reply within "
                    f"{self.reply_timeout:g}s"
                )
        finally:
            self._note_queued(worker, -1)
        return slot[0][1]

    def _note_queued(self, worker: int, delta: int) -> None:
        with self._queued_lock:
            self._queued[worker] += delta
            depth = self._queued[worker]
        if _metrics.ENABLED:
            _QUEUE_DEPTH.set(depth, worker=str(worker))

    # -- dispatch ----------------------------------------------------------

    def dispatch(
        self,
        method: str,
        path: str,
        query: Optional[Mapping[str, str]] = None,
        body: Optional[Mapping[str, Any]] = None,
    ) -> AppResponse:
        query = dict(query or {})
        body = dict(body or {})
        if self._draining:
            return error_response(503, "draining", {"Retry-After": "5"})
        if method == "GET":
            if path == "/healthz":
                return json_response(200, _health.health_payload(self.health_extra()))
            if path == "/metrics":
                return (200, self._merged_metrics(), PROM_TEXT, {})
            if path == "/sessions":
                return json_response(200, self.sessions_payload())
            if path in ("/debug/profile", "/debug/slow_requests"):
                # Front-local: the profiler/slow ring of the front
                # process (workers surface theirs via /sessions).
                return ProxApp(
                    manager=SessionManager(), slo=self.slo, slow_log=self.slow_log
                ).dispatch(method, path, query, body)
        if path == "/sessions" and method == "POST":
            return self._create_session(body)
        # Everything session-scoped routes to the hash owner.
        session_id, endpoint = split_session_path(path)
        if session_id is None and path.startswith("/sessions/"):
            # Lifecycle forms: /sessions/<id>[/stats|/evict|/restore].
            parts = path.split("/", 3)
            session_id = parts[2] if len(parts) > 2 else None
        if session_id is None:
            session_id = query.get("session")
        if session_id is None:
            return error_response(
                404,
                "sharded mode has no default session: create one via "
                "POST /sessions and address it with /sessions/<id>/... "
                "or ?session=<id>",
            )
        worker = self._owner(session_id)
        response = self._submit(worker, "dispatch", (method, path, query, body))
        if method == "DELETE" and response[0] == 200:
            with self._sessions_lock:
                self._sessions.pop(session_id, None)
        return response

    def _owner(self, session_id: str) -> int:
        with self._sessions_lock:
            known = self._sessions.get(session_id)
        return known if known is not None else self.ring.owner(session_id)

    def _create_session(self, body: Dict[str, Any]) -> AppResponse:
        with self._sessions_lock:
            if len(self._sessions) >= self.max_sessions:
                return error_response(
                    429,
                    f"at capacity ({self.max_sessions} sessions)",
                    {"Retry-After": f"{max(1.0, self.eviction_interval):g}"},
                )
        session_id = body.get("session_id") or f"w{uuid.uuid4().hex[:12]}"
        worker = self.ring.owner(session_id)
        response = self._submit(
            worker, "dispatch",
            ("POST", "/sessions", {}, dict(body, session_id=session_id)),
        )
        if response[0] == 201:
            with self._sessions_lock:
                self._sessions[session_id] = worker
        return response

    # -- aggregation -------------------------------------------------------

    def _worker_statuses(self) -> List[Optional[Dict[str, Any]]]:
        rows: List[Optional[Dict[str, Any]]] = []
        for worker in range(self.n_workers):
            response = self._submit(worker, "status", None, block=True)
            rows.append(response[1] if response[0] == 200 else None)
        return rows

    def sessions_payload(self) -> Dict[str, Any]:
        sessions: List[Dict[str, Any]] = []
        managers: List[Dict[str, Any]] = []
        for status in self._worker_statuses():
            if status is None:
                continue
            for row in status["sessions"]:
                sessions.append(dict(row, worker=status["worker"]))
            managers.append(dict(status["manager"], worker=status["worker"]))
        return {
            "count": len(sessions),
            "workers": managers,
            "sessions": sessions,
            "eviction_ranking": [],
        }

    def _merged_metrics(self) -> str:
        parts = [_metrics.REGISTRY.render()]
        for status in self._worker_statuses():
            if status is not None:
                parts.append(
                    f"# worker {status['worker']}\n{status['metrics']}"
                )
        return "\n".join(parts)

    def health_extra(self) -> Dict[str, Any]:
        workers = []
        for index, process in enumerate(self._processes):
            with self._queued_lock:
                depth = self._queued[index]
            workers.append(
                {
                    "worker": index,
                    "alive": process.is_alive(),
                    "pid": process.pid,
                    "queue_depth": depth,
                }
            )
        with self._sessions_lock:
            count = len(self._sessions)
        return {
            "mode": "sharded",
            "workers": workers,
            "sessions": count,
            "max_sessions": self.max_sessions,
            "slo_breaches_total": self.slow_log.total_recorded,
        }

    # -- drain / stop ------------------------------------------------------

    def drain(self) -> Dict[str, Any]:
        """Graceful drain: workers snapshot live sessions and exit."""
        self._draining = True
        results: Dict[str, Any] = {}
        for worker in range(self.n_workers):
            response = self._submit(worker, "drain", None, block=True)
            results[f"worker{worker}"] = (
                response[1] if response[0] == 200 else {"error": response[1]}
            )
        self._join_workers()
        return results

    def stop(self) -> None:
        """Stop workers without snapshotting (tests, error paths)."""
        if not self._started:
            return
        self._draining = True
        for worker in range(self.n_workers):
            if self._processes[worker].is_alive():
                try:
                    self._task_queues[worker].put((0, "stop", None), timeout=1.0)
                except _queue.Full:  # pragma: no cover - wedged worker
                    pass
        self._join_workers()

    def _join_workers(self) -> None:
        failed: List[int] = []
        for index, process in enumerate(self._processes):
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
                failed.append(index)
        if self._reply_queue is not None:
            self._reply_queue.put(None)
        if self._collector is not None:
            self._collector.join(timeout=5.0)
        self._started = False
        if failed:
            raise RuntimeError(
                f"workers {failed} failed to exit and were terminated"
            )
        _LOG.info("workers_stopped n=%d", self.n_workers)

"""Multi-session lifecycle: registry, per-session locks, eviction.

PR 7 built the signals (per-session resource accounts, the
``eviction_score`` ranking); this module is the actor that consumes
them.  A :class:`SessionManager` owns every live
:class:`~repro.prox.session.ProxSession` in a process:

* **create/lookup/close** with per-session ``RLock``\\ s, so a long
  ``/summarize`` on one session never blocks requests on another
  (replacing the server's old class-level lock);
* **capacity limits** -- ``create`` past ``max_sessions`` raises
  :class:`CapacityError`, which the HTTP layer maps to
  ``429 Too Many Requests`` + ``Retry-After``;
* **snapshot eviction** -- a background loop walks the PR 7 eviction
  ranking and snapshot-evicts sessions idle past the threshold
  (:meth:`ProxSession.snapshot` + close); the next ``acquire`` on an
  evicted session transparently rehydrates it from disk
  (:meth:`ProxSession.restore`), so eviction is invisible to clients
  beyond the first-touch latency.  A snapshot that fails to restore
  raises :class:`~repro.serialization.SerializationError` (HTTP 400)
  on every touch, is counted and logged, and stays on disk for
  inspection.

Counters: ``prox_sessions_evicted_total``,
``prox_sessions_restored_total``,
``prox_sessions_restore_failures_total``,
``prox_sessions_rejected_total``.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import tempfile
import threading
from typing import Callable, Dict, Iterator, List, Optional

from ..observability import log as _log
from ..observability import metrics as _metrics
from ..observability import resources as _resources
from ..serialization import SerializationError
from .session import ProxSession

_LOG = _log.get_logger("prox.manager")

_EVICTED = _metrics.counter(
    "prox_sessions_evicted_total",
    "Sessions snapshot-evicted to disk by the session manager.",
)
_RESTORED = _metrics.counter(
    "prox_sessions_restored_total",
    "Evicted sessions rehydrated from snapshots on next touch.",
)
_RESTORE_FAILURES = _metrics.counter(
    "prox_sessions_restore_failures_total",
    "Evicted-session restores whose snapshot raised SerializationError.",
)
_REJECTED = _metrics.counter(
    "prox_sessions_rejected_total",
    "Session creations rejected at the capacity limit (HTTP 429).",
)

_SESSION_ID_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

#: Default idle threshold before the background loop evicts (seconds).
DEFAULT_EVICT_IDLE_SECONDS = 300.0
#: Default cadence of the background eviction loop (seconds).
DEFAULT_EVICTION_INTERVAL = 5.0


class CapacityError(RuntimeError):
    """The manager is at ``max_sessions``; retry after a short delay."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class UnknownSessionError(KeyError):
    """No session registered under the requested id (HTTP 404)."""


class _Entry:
    """One managed session slot (live, or evicted to a snapshot)."""

    __slots__ = ("lock", "session", "snapshot_path", "evicted")

    def __init__(self, session: Optional[ProxSession]):
        self.lock = threading.RLock()
        self.session = session
        self.snapshot_path: Optional[str] = None
        self.evicted = False


class SessionManager:
    """Registry of live sessions with eviction and capacity limits."""

    def __init__(
        self,
        factory: Optional[Callable[[str], ProxSession]] = None,
        max_sessions: int = 16,
        snapshot_dir: Optional[str] = None,
        evict_idle_seconds: float = DEFAULT_EVICT_IDLE_SECONDS,
        eviction_interval: float = DEFAULT_EVICTION_INTERVAL,
    ):
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        self._factory = factory or (
            lambda session_id: ProxSession(session_id=session_id)
        )
        self.max_sessions = max_sessions
        self._snapshot_dir = snapshot_dir
        self._owns_snapshot_dir = snapshot_dir is None
        self.evict_idle_seconds = evict_idle_seconds
        self.eviction_interval = eviction_interval
        self._entries: Dict[str, _Entry] = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._evictor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: Lifetime totals (mirrors the metric counters, always on).
        self.evicted_total = 0
        self.restored_total = 0
        self.restore_failures_total = 0
        self.rejected_total = 0

    # -- lifecycle ---------------------------------------------------------

    def create(self, session_id: Optional[str] = None) -> ProxSession:
        """Create and register a session; :class:`CapacityError` if full."""
        return self.create_with(session_id, self._factory)

    def create_with(
        self,
        session_id: Optional[str],
        factory: Callable[[str], ProxSession],
    ) -> ProxSession:
        """:meth:`create` with a one-off factory (e.g. a custom seed)."""
        with self._lock:
            if session_id is None:
                while True:
                    self._next_id += 1
                    session_id = f"m{self._next_id}"
                    if session_id not in self._entries:
                        break
            elif not _SESSION_ID_RE.match(session_id):
                raise ValueError(f"invalid session id {session_id!r}")
            if session_id in self._entries:
                raise ValueError(f"session {session_id!r} already exists")
            if len(self._entries) >= self.max_sessions:
                self.rejected_total += 1
                if _metrics.ENABLED:
                    _REJECTED.inc()
                raise CapacityError(
                    f"at capacity ({self.max_sessions} sessions)",
                    retry_after=max(1.0, self.eviction_interval),
                )
            entry = _Entry(None)
            self._entries[session_id] = entry
        # Build outside the manager lock (dataset generation can be
        # slow); the entry lock keeps other callers off the slot.
        with entry.lock:
            try:
                entry.session = factory(session_id)
            except BaseException:
                with self._lock:
                    self._entries.pop(session_id, None)
                raise
        return entry.session

    def peek(self, session_id: str) -> Optional[ProxSession]:
        """The live session object, or ``None`` (unknown or evicted).

        Lock-free by design -- for health probes that must answer even
        while a long summarization holds the session lock.
        """
        with self._lock:
            entry = self._entries.get(session_id)
        return entry.session if entry is not None else None

    def adopt(self, session: ProxSession) -> str:
        """Register an externally built session (single-session mode)."""
        with self._lock:
            session_id = session.session_id
            if session_id in self._entries:
                raise ValueError(f"session {session_id!r} already managed")
            if len(self._entries) >= self.max_sessions:
                raise CapacityError(
                    f"at capacity ({self.max_sessions} sessions)"
                )
            self._entries[session_id] = _Entry(session)
        return session_id

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._entries

    def session_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def count(self) -> int:
        with self._lock:
            return len(self._entries)

    @contextlib.contextmanager
    def acquire(self, session_id: str) -> Iterator[ProxSession]:
        """Lock one session for a request, rehydrating if evicted.

        Raises :class:`KeyError` for unknown ids.  The per-session lock
        is held for the duration of the ``with`` body; requests on
        other sessions proceed concurrently.
        """
        with self._lock:
            entry = self._entries.get(session_id)
        if entry is None:
            raise UnknownSessionError(f"no such session {session_id!r}")
        with entry.lock:
            with self._lock:
                if self._entries.get(session_id) is not entry:
                    raise UnknownSessionError(f"no such session {session_id!r}")
            if entry.evicted:
                try:
                    entry.session = ProxSession.restore(
                        entry.snapshot_path, session_id=session_id
                    )
                except SerializationError as error:
                    # The entry stays evicted and the file stays put:
                    # every touch fails the same way until an operator
                    # replaces or deletes it.
                    self.restore_failures_total += 1
                    if _metrics.ENABLED:
                        _RESTORE_FAILURES.inc()
                    _LOG.warning(
                        "session_restore_failed session=%s path=%s error=%s",
                        _log.quote(session_id),
                        _log.quote(entry.snapshot_path),
                        _log.quote(error),
                    )
                    raise
                entry.evicted = False
                self.restored_total += 1
                if _metrics.ENABLED:
                    _RESTORED.inc()
            yield entry.session

    def evict(self, session_id: str) -> bool:
        """Snapshot ``session_id`` to disk and release its memory.

        Returns ``False`` when the session is unknown, already evicted,
        or cannot be snapshot (no regeneration recipe).  Summarization
        results and repair state are dropped with the process objects --
        both provably recomputable bit-identically (PR 6).
        """
        with self._lock:
            entry = self._entries.get(session_id)
        if entry is None:
            return False
        with entry.lock:
            if entry.evicted or entry.session is None:
                return False
            if not entry.session.can_snapshot():
                return False
            path = os.path.join(self.snapshot_dir(), f"{session_id}.snap")
            entry.session.snapshot(path)
            entry.session.close()
            entry.session = None
            entry.snapshot_path = path
            entry.evicted = True
            self.evicted_total += 1
            if _metrics.ENABLED:
                _EVICTED.inc()
        return True

    def close(self, session_id: str) -> bool:
        """Remove a session entirely (idempotent); deletes its snapshot."""
        with self._lock:
            entry = self._entries.pop(session_id, None)
        if entry is None:
            return False
        with entry.lock:
            if entry.session is not None:
                entry.session.close()
                entry.session = None
            if entry.snapshot_path is not None:
                try:
                    os.unlink(entry.snapshot_path)
                except OSError:
                    pass
                entry.snapshot_path = None
        return True

    def close_all(self) -> None:
        for session_id in self.session_ids():
            self.close(session_id)
        if self._owns_snapshot_dir and self._snapshot_dir is not None:
            shutil.rmtree(self._snapshot_dir, ignore_errors=True)
            self._snapshot_dir = None

    # -- introspection ------------------------------------------------------

    def snapshot_dir(self) -> str:
        with self._lock:
            if self._snapshot_dir is None:
                self._snapshot_dir = tempfile.mkdtemp(prefix="prox-snapshots-")
            else:
                os.makedirs(self._snapshot_dir, exist_ok=True)
            return self._snapshot_dir

    def describe(self) -> List[Dict[str, object]]:
        """One row per managed session: live accounts or evicted stubs."""
        rows: List[Dict[str, object]] = []
        for session_id in self.session_ids():
            with self._lock:
                entry = self._entries.get(session_id)
            if entry is None:
                continue
            if entry.evicted:
                rows.append(
                    {
                        "session_id": session_id,
                        "state": "evicted",
                        "snapshot_path": entry.snapshot_path,
                        "snapshot_bytes": (
                            os.path.getsize(entry.snapshot_path)
                            if entry.snapshot_path
                            and os.path.exists(entry.snapshot_path)
                            else 0
                        ),
                    }
                )
            else:
                account = _resources.REGISTRY.get(session_id)
                row = account.to_dict() if account else {"session_id": session_id}
                row["state"] = "live"
                rows.append(row)
        return rows

    def stats(self) -> Dict[str, object]:
        with self._lock:
            total = len(self._entries)
            evicted = sum(1 for e in self._entries.values() if e.evicted)
        return {
            "sessions": total,
            "live": total - evicted,
            "evicted": evicted,
            "max_sessions": self.max_sessions,
            "evicted_total": self.evicted_total,
            "restored_total": self.restored_total,
            "restore_failures_total": self.restore_failures_total,
            "rejected_total": self.rejected_total,
        }

    # -- drain / eviction loop ---------------------------------------------

    def drain(self) -> Dict[str, object]:
        """Snapshot every live snapshotable session (graceful shutdown)."""
        snapshotted: List[str] = []
        skipped: List[str] = []
        for session_id in self.session_ids():
            if self.evict(session_id):
                snapshotted.append(session_id)
            else:
                with self._lock:
                    entry = self._entries.get(session_id)
                if entry is not None and not entry.evicted:
                    skipped.append(session_id)
        return {"snapshotted": snapshotted, "skipped": skipped}

    def evict_idle(self) -> List[str]:
        """One pass of the eviction policy: most-evictable first."""
        evicted: List[str] = []
        for row in _resources.REGISTRY.eviction_ranking():
            session_id = row["session_id"]
            if session_id not in self:
                continue
            if float(row["idle_seconds"]) < self.evict_idle_seconds:
                continue
            if self.evict(session_id):
                evicted.append(session_id)
        return evicted

    def start_eviction_loop(self) -> None:
        if self._evictor is not None:
            return
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(self.eviction_interval):
                try:
                    self.evict_idle()
                except Exception:  # pragma: no cover - keep the loop alive
                    pass

        self._evictor = threading.Thread(
            target=_loop, name="prox-evictor", daemon=True
        )
        self._evictor.start()

    def stop_eviction_loop(self) -> None:
        if self._evictor is None:
            return
        self._stop.set()
        self._evictor.join(timeout=5.0)
        alive = self._evictor.is_alive()
        self._evictor = None
        if alive:  # pragma: no cover - would indicate a wedged pass
            raise RuntimeError("eviction loop failed to stop within 5s")

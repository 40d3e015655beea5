"""Per-session resource accounting and the eviction advisor.

Roadmap item 1 shards sessions across workers and sheds load under
memory pressure; both decisions need to know *which session holds
what*.  This module keeps one :class:`SessionAccount` per live
:class:`~repro.prox.session.ProxSession` in a process-wide
:class:`ResourceRegistry`:

* **retained memory** -- the session's annotation count and carried
  candidate-pool size;
* **work counters** -- summarize runs and their cumulative seconds,
  ingested deltas, repaired runs and invalidated pool entries;
* **freshness** -- monotonic created/last-active stamps, so idle
  sessions rank first for eviction.

Every account is exported as labeled gauges
(``prox_session_annotations{session=...}`` et al.) behind the usual
``REPRO_METRICS`` guard, and as JSON via ``GET /sessions`` and
``GET /sessions/<id>/stats`` on the PROX server.  The registry itself
is always on: it is the data the serving API returns, not optional
instrumentation, and its cost is a handful of attribute writes per
HTTP request -- never per candidate or per term.

The **eviction advisor** (:meth:`ResourceRegistry.eviction_ranking`)
ranks sessions by retained bytes inflated by idleness::

    score = retained_bytes * (1 + idle_seconds / IDLE_HALF_LIFE)

so under memory pressure an operator (or an autoscaler watching
``/metrics``) sheds the coldest-heaviest session first.  The ranking
is advice -- nothing here terminates sessions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import metrics as _metrics

#: Idle seconds that double a session's eviction score.
IDLE_HALF_LIFE_SECONDS = 300.0

#: Rough retained-bytes cost of one annotation (name, attributes,
#: universe entry) and one carried pool candidate (tuple, measurement
#: floats) -- used only for ranking, never reported as exact bytes.
_ANNOTATION_COST = 64
_POOL_ENTRY_COST = 120

_SESSIONS_ACTIVE = _metrics.gauge(
    "prox_sessions_active",
    "Live PROX sessions registered in this process.",
)
_SESSION_ANNOTATIONS = _metrics.gauge(
    "prox_session_annotations",
    "Annotations in each live session's universe.",
    labelnames=("session",),
)
_SESSION_POOL = _metrics.gauge(
    "prox_session_pool_candidates",
    "Carried candidate-pool entries held by each live session.",
    labelnames=("session",),
)
_SESSION_SECONDS = _metrics.gauge(
    "prox_session_summarize_seconds_total",
    "Cumulative summarization seconds spent by each live session.",
    labelnames=("session",),
)


@dataclass
class SessionAccount:
    """Resource and work totals of one live session."""

    session_id: str
    created_at: float = field(default_factory=time.monotonic)
    last_active: float = field(default_factory=time.monotonic)
    summarize_runs: int = 0
    summarize_seconds: float = 0.0
    repaired_runs: int = 0
    repair_invalidated: int = 0
    ingested_deltas: int = 0
    annotations: int = 0
    pool_candidates: int = 0
    selected_size: int = 0
    summary_size: int = 0

    # -- hooks called by ProxSession --------------------------------------

    def touch(self) -> None:
        self.last_active = time.monotonic()

    def record_select(self, selected_size: int) -> None:
        self.selected_size = int(selected_size)
        self.touch()
        self._publish()

    def record_ingest(self, selected_size: int) -> None:
        self.ingested_deltas += 1
        self.selected_size = int(selected_size)
        self.touch()
        self._publish()

    def record_summarize(
        self,
        seconds: float,
        annotations: int,
        pool_candidates: int,
        summary_size: int,
        repaired: bool = False,
        repair_invalidated: int = 0,
    ) -> None:
        self.summarize_runs += 1
        self.summarize_seconds += float(seconds)
        self.annotations = int(annotations)
        self.pool_candidates = int(pool_candidates)
        self.summary_size = int(summary_size)
        if repaired:
            self.repaired_runs += 1
        self.repair_invalidated += int(repair_invalidated)
        self.touch()
        self._publish()

    # -- reporting ---------------------------------------------------------

    def idle_seconds(self) -> float:
        return max(0.0, time.monotonic() - self.last_active)

    def age_seconds(self) -> float:
        return max(0.0, time.monotonic() - self.created_at)

    def retained_bytes(self) -> int:
        """The eviction-relevant retained-memory estimate."""
        return (
            self.annotations * _ANNOTATION_COST
            + self.pool_candidates * _POOL_ENTRY_COST
        )

    def eviction_score(self) -> float:
        return self.retained_bytes() * (
            1.0 + self.idle_seconds() / IDLE_HALF_LIFE_SECONDS
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "session_id": self.session_id,
            "age_seconds": round(self.age_seconds(), 3),
            "idle_seconds": round(self.idle_seconds(), 3),
            "summarize_runs": self.summarize_runs,
            "summarize_seconds": round(self.summarize_seconds, 6),
            "repaired_runs": self.repaired_runs,
            "repair_invalidated": self.repair_invalidated,
            "ingested_deltas": self.ingested_deltas,
            "annotations": self.annotations,
            "pool_candidates": self.pool_candidates,
            "selected_size": self.selected_size,
            "summary_size": self.summary_size,
            "retained_bytes": self.retained_bytes(),
            "eviction_score": round(self.eviction_score(), 3),
        }

    def _publish(self) -> None:
        if not _metrics.ENABLED:
            return
        _SESSION_ANNOTATIONS.set(self.annotations, session=self.session_id)
        _SESSION_POOL.set(self.pool_candidates, session=self.session_id)
        _SESSION_SECONDS.set(self.summarize_seconds, session=self.session_id)


class ResourceRegistry:
    """Thread-safe process-wide table of live session accounts."""

    def __init__(self) -> None:
        self._accounts: Dict[str, SessionAccount] = {}
        self._lock = threading.Lock()
        self._next_id = 0

    def register(self, session_id: Optional[str] = None) -> SessionAccount:
        """Create (and gauge-publish) an account for a new session."""
        with self._lock:
            if session_id is None:
                self._next_id += 1
                session_id = f"s{self._next_id}"
            if session_id in self._accounts:
                raise ValueError(f"session id {session_id!r} already registered")
            account = SessionAccount(session_id=session_id)
            self._accounts[session_id] = account
            count = len(self._accounts)
        if _metrics.ENABLED:
            _SESSIONS_ACTIVE.set(count)
        account._publish()
        return account

    def unregister(self, session_id: str) -> None:
        """Drop an account and its labeled gauge series (idempotent)."""
        with self._lock:
            self._accounts.pop(session_id, None)
            count = len(self._accounts)
        for gauge in (
            _SESSION_ANNOTATIONS,
            _SESSION_POOL,
            _SESSION_SECONDS,
        ):
            gauge.remove(session=session_id)
        if _metrics.ENABLED:
            _SESSIONS_ACTIVE.set(count)

    def get(self, session_id: str) -> Optional[SessionAccount]:
        with self._lock:
            return self._accounts.get(session_id)

    def ids(self) -> List[str]:
        with self._lock:
            return sorted(self._accounts)

    def count(self) -> int:
        with self._lock:
            return len(self._accounts)

    def snapshot(self) -> List[Dict[str, object]]:
        with self._lock:
            accounts = list(self._accounts.values())
        return [account.to_dict() for account in sorted(
            accounts, key=lambda a: a.session_id
        )]

    def eviction_ranking(self) -> List[Dict[str, object]]:
        """Sessions ordered most-evictable first, with reasons."""
        with self._lock:
            accounts = list(self._accounts.values())
        ranked = sorted(
            accounts, key=lambda a: (-a.eviction_score(), a.session_id)
        )
        rows: List[Dict[str, object]] = []
        for account in ranked:
            reasons = []
            if account.retained_bytes():
                reasons.append(f"retains ~{account.retained_bytes()} bytes")
            idle = account.idle_seconds()
            if idle >= IDLE_HALF_LIFE_SECONDS:
                reasons.append(f"idle {idle:.0f}s")
            if not reasons:
                reasons.append("negligible footprint")
            rows.append(
                {
                    "session_id": account.session_id,
                    "eviction_score": round(account.eviction_score(), 3),
                    "retained_bytes": account.retained_bytes(),
                    "idle_seconds": round(idle, 3),
                    "reasons": reasons,
                }
            )
        return rows


#: The process-wide registry ``GET /sessions`` serves.
REGISTRY = ResourceRegistry()

"""Transport-free PROX request dispatch.

The serving refactor splits ``prox/server.py``'s old monolithic
handler into two halves so the same handler logic serves every
deployment shape:

* :class:`ProxApp` (this module) -- the routing table and handlers.
  ``dispatch(method, path, query, body)`` returns a plain
  ``(status, body, content_type, headers)`` tuple: JSON-able, and
  picklable, so a sharded front can forward it over a queue from a
  worker process unchanged.
* the HTTP adapter (:mod:`repro.prox.server`) -- socket plumbing,
  request metrics, latency-SLO accounting.

Sessions are owned by a :class:`~repro.prox.manager.SessionManager`.
Session-scoped routes resolve their target session from (first match
wins) the ``/sessions/<id>/<endpoint>`` path form, a ``?session=<id>``
query parameter, or the app's default session (single-session
back-compat: ``ProxServer(session)`` still serves ``POST /select`` on
that session).  Each resolved request runs under that session's lock
only -- read-only routes (``/healthz``, ``/metrics``, ``/sessions``,
stats, debug) take no session lock at all, and requests on distinct
sessions never contend.

Session lifecycle routes::

    POST   /sessions                {"session_id"?: ..., "seed"?: ...}
                                    -> 201 {"session_id": ...};
                                    429 + Retry-After at capacity
    DELETE /sessions/<id>           close (idempotent 404 after)
    POST   /sessions/<id>/evict     snapshot-evict now (409 if not
                                    snapshotable)
    POST   /sessions/<id>/restore   rehydrate an evicted session now
    GET    /sessions/<id>/stats     resource account (live) or
                                    evicted stub
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core.problem import REMOVED_FIELDS
from ..observability import health as _health
from ..observability import metrics as _metrics
from ..observability import profiling as _profiling
from ..observability import resources as _resources
from ..observability import slo as _slo
from ..provenance import ir as _ir
from .manager import CapacityError, SessionManager, UnknownSessionError
from .session import ProxSession
from .summarization import SummarizationRequest

#: ``(status, body, content_type, headers)``; ``body`` is a JSON-able
#: dict (rendered by the adapter) or a pre-rendered string.
AppResponse = Tuple[int, Any, str, Dict[str, str]]

JSON = "application/json; charset=utf-8"
PROM_TEXT = "text/plain; version=0.0.4; charset=utf-8"

#: Routes used as metric label values; anything else becomes "other"
#: so scrape cardinality stays bounded under hostile paths.  The
#: session-scoped forms (``/sessions/<id>/summarize`` etc.) label as
#: their base route.
_KNOWN_PATHS = frozenset(
    {
        "/titles",
        "/select",
        "/summarize",
        "/ingest",
        "/evaluate",
        "/summary/expression",
        "/summary/groups",
        "/healthz",
        "/metrics",
        "/sessions",
        "/debug/profile",
        "/debug/slow_requests",
    }
)

#: Endpoints that may appear under ``/sessions/<id>/``.
_SESSION_ENDPOINTS = frozenset(
    {
        "/titles",
        "/select",
        "/summarize",
        "/ingest",
        "/evaluate",
        "/summary/expression",
        "/summary/groups",
    }
)

_SESSION_PATH = re.compile(r"^/sessions/([^/]+)(/.*)?$")
_SESSION_STATS_PATH = re.compile(r"^/sessions/([^/]+)/stats$")


def metric_path(path: str) -> str:
    """The bounded-cardinality route label for ``path``."""
    if path in _KNOWN_PATHS:
        return path
    match = _SESSION_PATH.match(path)
    if match:
        rest = match.group(2) or ""
        if rest == "/stats":
            return "/sessions/<id>/stats"
        if rest in _SESSION_ENDPOINTS:
            return rest
        if rest in ("", "/evict", "/restore"):
            return f"/sessions/<id>{rest}"
    return "other"


def split_session_path(path: str) -> Tuple[Optional[str], str]:
    """``/sessions/<id>/summarize`` -> ``("<id>", "/summarize")``.

    Paths that are not the session-scoped form pass through unchanged
    as ``(None, path)``.
    """
    match = _SESSION_PATH.match(path)
    if match and (match.group(2) or "") in _SESSION_ENDPOINTS:
        return match.group(1), match.group(2)
    return None, path


def json_response(
    status: int, payload: Mapping[str, Any], headers: Optional[Dict[str, str]] = None
) -> AppResponse:
    return (status, dict(payload), JSON, headers or {})


def error_response(
    status: int, message: str, headers: Optional[Dict[str, str]] = None
) -> AppResponse:
    return json_response(status, {"error": message}, headers)


def _reject_removed(body: Mapping[str, Any]) -> None:
    """400 (via ``ValueError``) naming any removed engine knob; the
    message starts with the first one's name, like every other 400."""
    removed = sorted(set(body) & REMOVED_FIELDS.keys())
    if removed:
        raise ValueError(
            f"{removed[0]}: removed parameters: "
            + "; ".join(f"{name!r} ({REMOVED_FIELDS[name]})" for name in removed)
        )


class ProxApp:
    """The PROX routing table + handlers over a session manager."""

    def __init__(
        self,
        manager: Optional[SessionManager] = None,
        slo: Optional[_slo.SloPolicy] = None,
        slow_log: Optional[_slo.SlowRequestLog] = None,
        default_session_id: Optional[str] = None,
    ):
        self.manager = manager if manager is not None else SessionManager()
        self.slo = slo if slo is not None else _slo.SloPolicy()
        self.slow_log = (
            slow_log
            if slow_log is not None
            else _slo.SlowRequestLog(ring_size=self.slo.ring_size)
        )
        self.default_session_id = default_session_id

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
        try:
            return self._dispatch(method, path, query, body)
        except CapacityError as error:
            return error_response(
                429, str(error), {"Retry-After": f"{error.retry_after:g}"}
            )
        except (ValueError, KeyError, LookupError) as error:
            message = str(error)
            if isinstance(error, KeyError) and error.args:
                message = str(error.args[0])
            return error_response(400, message)
        except RuntimeError as error:
            return error_response(409, str(error))
        except Exception as error:  # pragma: no cover - defensive
            return error_response(500, str(error))

    def _dispatch(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: Dict[str, Any],
    ) -> AppResponse:
        # Observability endpoints answer without any session lock: a
        # probe must succeed even mid-summarization.
        if method == "GET":
            if path == "/healthz":
                return json_response(200, _health.health_payload(self.health_extra()))
            if path == "/metrics":
                return (200, _metrics.REGISTRY.render(), PROM_TEXT, {})
            if path == "/sessions":
                return json_response(200, self.sessions_payload())
            stats = _SESSION_STATS_PATH.match(path)
            if stats:
                return self._handle_session_stats(stats.group(1))
            if path == "/debug/profile":
                return self._handle_profile(query)
            if path == "/debug/slow_requests":
                return json_response(
                    200,
                    {
                        "slow_requests": self.slow_log.snapshot(),
                        "total_recorded": self.slow_log.total_recorded,
                        "slo": self.slo.describe(),
                        "tracing_enabled": _is_tracing(),
                    },
                )
        if path == "/sessions" and method == "POST":
            return self._handle_create(body)
        lifecycle = _SESSION_PATH.match(path)
        if lifecycle:
            session_id, rest = lifecycle.group(1), lifecycle.group(2) or ""
            if rest == "" and method == "DELETE":
                return self._handle_delete(session_id)
            if rest == "/evict" and method == "POST":
                return self._handle_evict(session_id)
            if rest == "/restore" and method == "POST":
                return self._handle_restore(session_id)
        # Session-scoped data routes.
        session_id, endpoint = split_session_path(path)
        if session_id is None:
            session_id = query.get("session") or self.default_session_id
        if endpoint in _SESSION_ENDPOINTS:
            if session_id is None:
                return error_response(
                    404, "no session: create one via POST /sessions"
                )
            try:
                with self.manager.acquire(session_id) as session:
                    return self._dispatch_session(
                        method, endpoint, query, body, session
                    )
            except UnknownSessionError:
                return error_response(404, f"unknown session {session_id!r}")
        return error_response(404, f"unknown path {path}")

    def _dispatch_session(
        self,
        method: str,
        endpoint: str,
        query: Dict[str, str],
        body: Dict[str, Any],
        session: ProxSession,
    ) -> AppResponse:
        if method == "GET":
            if endpoint == "/titles":
                return json_response(
                    200, {"titles": list(session.titles(query.get("search")))}
                )
            if endpoint == "/summary/expression":
                return json_response(200, {"expression": session.expression_view()})
            if endpoint == "/summary/groups":
                return self._handle_groups(session)
        if method == "POST":
            if endpoint == "/select":
                return self._handle_select(session, body)
            if endpoint == "/summarize":
                return self._handle_summarize(session, body)
            if endpoint == "/ingest":
                return self._handle_ingest(session, body)
            if endpoint == "/evaluate":
                return self._handle_evaluate(session, body)
        return error_response(404, f"unknown path {endpoint}")

    # -- lifecycle handlers ------------------------------------------------

    def _handle_create(self, body: Dict[str, Any]) -> AppResponse:
        _reject_removed(body)
        unknown = set(body) - {"session_id", "seed", "config"}
        if unknown:
            raise ValueError(f"unknown session parameters: {sorted(unknown)}")
        session_id = body.get("session_id")
        if "config" in body:
            # An explicit MovieLens generator config: the session owns a
            # bespoke instance (and stays snapshotable -- the config is
            # its regeneration recipe).
            from ..datasets.movielens import MovieLensConfig, generate_movielens

            config = dict(body["config"])
            if "constraint_attributes" in config:
                config["constraint_attributes"] = tuple(
                    config["constraint_attributes"]
                )
            instance_config = MovieLensConfig(**config)
            session = self.manager.create_with(
                session_id,
                lambda sid: ProxSession(
                    generate_movielens(instance_config), session_id=sid
                ),
            )
        elif "seed" in body:
            seed = int(body["seed"])
            session = self.manager.create_with(
                session_id, lambda sid: ProxSession(seed=seed, session_id=sid)
            )
        else:
            session = self.manager.create(session_id)
        return json_response(201, {"session_id": session.session_id})

    def _handle_delete(self, session_id: str) -> AppResponse:
        if self.manager.close(session_id):
            return json_response(200, {"closed": session_id})
        return error_response(404, f"unknown session {session_id!r}")

    def _handle_evict(self, session_id: str) -> AppResponse:
        if session_id not in self.manager:
            return error_response(404, f"unknown session {session_id!r}")
        if self.manager.evict(session_id):
            return json_response(200, {"evicted": session_id})
        return error_response(
            409, f"session {session_id!r} is not evictable (already "
            "evicted, or has no regeneration recipe)"
        )

    def _handle_restore(self, session_id: str) -> AppResponse:
        try:
            with self.manager.acquire(session_id):
                return json_response(200, {"restored": session_id})
        except UnknownSessionError:
            return error_response(404, f"unknown session {session_id!r}")

    def _handle_session_stats(self, session_id: str) -> AppResponse:
        account = _resources.REGISTRY.get(session_id)
        if account is not None:
            return json_response(200, account.to_dict())
        for row in self.manager.describe():
            if row.get("session_id") == session_id:
                return json_response(200, row)
        return error_response(404, f"unknown session {session_id!r}")

    # -- data handlers ------------------------------------------------------

    def _handle_select(
        self, session: ProxSession, body: Dict[str, Any]
    ) -> AppResponse:
        if "titles" in body:
            size = session.select_titles(list(body["titles"]))
        else:
            size = session.select_by(
                genre=body.get("genre"),
                year=body.get("year"),
                decade=body.get("decade"),
            )
        return json_response(200, {"selected_size": size})

    def _handle_summarize(
        self, session: ProxSession, body: Dict[str, Any]
    ) -> AppResponse:
        allowed = {field.name for field in dataclasses.fields(SummarizationRequest)}
        _reject_removed(body)
        unknown = set(body) - allowed - {"seed", "session_id"}
        if unknown:
            raise ValueError(f"unknown summarization parameters: {sorted(unknown)}")
        request = SummarizationRequest(
            **{key: value for key, value in body.items() if key in allowed}
        )
        result = session.summarize(request, seed=int(body.get("seed", 0)))
        scoring_paths: Dict[str, int] = {}
        for record in result.steps:
            scoring_path = record.scoring_path or "unknown"
            scoring_paths[scoring_path] = scoring_paths.get(scoring_path, 0) + 1
        return json_response(
            200,
            {
                "size": result.final_size,
                "distance": result.final_distance.normalized,
                "steps": result.n_steps,
                "stop_reason": result.stop_reason,
                "total_seconds": result.total_seconds,
                "scoring_paths": scoring_paths,
                "repaired": result.repaired,
                "repair_invalidated": result.repair_invalidated,
                "session_id": session.session_id,
                "steps_detail": [
                    {
                        "step": record.step,
                        "merged": list(record.merged),
                        "label": record.label,
                        "size_after": record.size_after,
                        "distance_after": (
                            record.distance_after.normalized
                            if record.distance_after is not None
                            else None
                        ),
                        "n_candidates": record.n_candidates,
                        "n_rescored": record.n_rescored,
                        "scoring_path": record.scoring_path,
                        "candidate_seconds": record.candidate_seconds,
                        "step_seconds": record.step_seconds,
                    }
                    for record in result.steps
                ],
            },
        )

    def _handle_ingest(
        self, session: ProxSession, body: Dict[str, Any]
    ) -> AppResponse:
        from ..serialization import delta_from_dict

        payload = {k: v for k, v in body.items() if k != "session_id"}
        delta = delta_from_dict({"kind": "delta", **payload})
        return json_response(200, dict(session.ingest(delta)))

    def _handle_evaluate(
        self, session: ProxSession, body: Dict[str, Any]
    ) -> AppResponse:
        original, summary = session.evaluate(
            false_annotations=list(body.get("false_annotations", ())),
            false_attributes=body.get("false_attributes"),
        )
        return json_response(
            200,
            {
                "original": {
                    "ratings": dict(original.ratings),
                    "evaluation_time_ns": original.evaluation_time_ns,
                },
                "summary": {
                    "ratings": dict(summary.ratings),
                    "evaluation_time_ns": summary.evaluation_time_ns,
                },
            },
        )

    def _handle_groups(self, session: ProxSession) -> AppResponse:
        groups = [
            {
                "annotation": group.annotation,
                "size": group.size,
                "members": list(group.members),
                "shared_attributes": dict(group.shared_attributes),
                "aggregated": dict(group.aggregated),
            }
            for group in session.groups_view()
        ]
        return json_response(200, {"groups": groups})

    def _handle_profile(self, query: Dict[str, str]) -> AppResponse:
        """The continuous profiler's snapshot, or an on-demand burst.

        Lock-free with respect to sessions: the sampler observes the
        summarizing threads from outside, which is exactly the point.
        """
        profiler = _profiling.ensure_global()
        if profiler is not None:
            return json_response(200, profiler.snapshot())
        try:
            seconds = float(query.get("seconds", "0.5"))
            hz = float(query.get("hz", str(_profiling.DEFAULT_HZ)))
            if hz <= 0 or hz > _profiling.MAX_HZ:
                raise ValueError(f"hz must be in (0, {_profiling.MAX_HZ:g}]")
            if seconds <= 0 or seconds > _profiling.MAX_BURST_SECONDS:
                raise ValueError(
                    f"seconds must be in (0, {_profiling.MAX_BURST_SECONDS:g}]"
                )
        except ValueError as error:
            return error_response(400, f"invalid profile parameters: {error}")
        return json_response(
            200, _profiling.burst_sample(seconds=seconds, hz=hz)
        )

    # -- payload builders ---------------------------------------------------

    def sessions_payload(self) -> Dict[str, Any]:
        # The live rows are the registry-wide accounts (every session in
        # the process, managed or not -- matching the eviction ranking);
        # the manager contributes its evicted stubs on top.
        sessions = [dict(row, state="live") for row in _resources.REGISTRY.snapshot()]
        sessions.extend(
            row for row in self.manager.describe() if row.get("state") == "evicted"
        )
        return {
            "count": _resources.REGISTRY.count(),
            "manager": self.manager.stats(),
            "sessions": sessions,
            "eviction_ranking": _resources.REGISTRY.eviction_ranking(),
        }

    def health_extra(self) -> Dict[str, Any]:
        # Benign unlocked reads: attribute loads and int-sized counters.
        extra: Dict[str, Any] = {
            "sessions": self.manager.count(),
            "max_sessions": self.manager.max_sessions,
            "sessions_evicted_total": self.manager.evicted_total,
            "sessions_restored_total": self.manager.restored_total,
            "slo_breaches_total": self.slow_log.total_recorded,
            "ir_arena_bytes": _ir.GLOBAL_STORE.arena_bytes(),
        }
        if self.default_session_id is not None:
            session = self.manager.peek(self.default_session_id)
            if session is not None:
                extra.update(
                    {
                        "selected": session.selected is not None,
                        "summarized": session.result is not None,
                        "session_id": session.session_id,
                        "ir_interned_annotations": len(session.interner),
                    }
                )
        return extra


def _is_tracing() -> bool:
    from ..observability import tracing as _tracing

    return _tracing.is_enabled()

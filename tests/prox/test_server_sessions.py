"""HTTP session lifecycle routes on the single-process server.

POST /sessions (201 / 429 + Retry-After), DELETE /sessions/<id>,
evict/restore endpoints, session-scoped data routes and the
``?session=`` query form, plus single-session back-compat.
"""

import http.client
import json
import logging

import pytest

from repro.datasets import MovieLensConfig, generate_movielens
from repro.prox import ProxSession, SessionManager
from repro.prox.server import ProxServer

SMALL = MovieLensConfig(n_users=8, n_movies=6, include_movie_merges=True, seed=11)


def request(server, method, path, body=None):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    payload = json.dumps(body) if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    data = json.loads(response.read())
    headers_out = dict(response.getheaders())
    connection.close()
    return response.status, data, headers_out


def small_factory(session_id):
    return ProxSession(generate_movielens(SMALL), session_id=session_id)


@pytest.fixture()
def server(tmp_path):
    manager = SessionManager(
        factory=small_factory, max_sessions=3, snapshot_dir=str(tmp_path)
    )
    with ProxServer(manager=manager) as running:
        yield running
    manager.close_all()


class TestLifecycleRoutes:
    def test_create_use_delete(self, server):
        status, created, _ = request(server, "POST", "/sessions", {})
        assert status == 201
        session_id = created["session_id"]

        status, data, _ = request(
            server, "POST", f"/sessions/{session_id}/select", {"genre": None}
        )
        assert status == 200 and data["selected_size"] > 0

        # The ?session= query form addresses the same session.
        status, data, _ = request(
            server,
            "POST",
            f"/summarize?session={session_id}",
            {"number_of_steps": 2},
        )
        assert status == 200
        assert data["session_id"] == session_id

        status, data, _ = request(server, "DELETE", f"/sessions/{session_id}")
        assert status == 200 and data["closed"] == session_id
        status, data, _ = request(server, "DELETE", f"/sessions/{session_id}")
        assert status == 404

    @pytest.mark.parametrize(
        "field",
        [
            "parallelism",
            "parallel_threshold",
            "lazy",
            "incremental",
            "carry",
            "sample_block",
            "sample_sharing",
            "repair",
        ],
    )
    def test_removed_engine_knobs_are_400_naming_the_field(self, server, field):
        status, data, _ = request(server, "POST", "/sessions", {field: 2})
        assert status == 400
        assert data["error"].startswith(field)
        assert "removed parameters" in data["error"] and repr(field) in data["error"]

        status, created, _ = request(server, "POST", "/sessions", {})
        assert status == 201
        session_id = created["session_id"]
        request(server, "POST", f"/sessions/{session_id}/select", {"genre": None})
        status, data, _ = request(
            server,
            "POST",
            f"/sessions/{session_id}/summarize",
            {"number_of_steps": 2, field: 2},
        )
        assert status == 400
        assert data["error"].startswith(field)
        assert "removed parameters" in data["error"] and repr(field) in data["error"]

    def test_unknown_session_is_404(self, server):
        for method, path in [
            ("POST", "/sessions/ghost/select"),
            ("GET", "/sessions/ghost/stats"),
            ("POST", "/sessions/ghost/evict"),
            ("POST", "/sessions/ghost/restore"),
            ("DELETE", "/sessions/ghost"),
        ]:
            status, data, _ = request(
                server, method, path, {} if method == "POST" else None
            )
            assert status == 404, (method, path, data)
            assert "error" in data

    def test_capacity_limit_returns_429_with_retry_after(self, tmp_path):
        manager = SessionManager(
            factory=small_factory, max_sessions=1, snapshot_dir=str(tmp_path)
        )
        with ProxServer(manager=manager) as server:
            status, created, _ = request(server, "POST", "/sessions", {})
            assert status == 201
            status, data, headers = request(server, "POST", "/sessions", {})
            assert status == 429
            assert "Retry-After" in headers
            assert float(headers["Retry-After"]) >= 1.0
            # Deleting frees the slot.
            request(server, "DELETE", f"/sessions/{created['session_id']}")
            status, _, _ = request(server, "POST", "/sessions", {})
            assert status == 201
        manager.close_all()

    def test_evict_then_restore_round_trip(self, server):
        status, created, _ = request(server, "POST", "/sessions", {})
        session_id = created["session_id"]
        request(server, "POST", f"/sessions/{session_id}/select", {"genre": None})
        status, data, _ = request(
            server, "POST", f"/sessions/{session_id}/summarize",
            {"number_of_steps": 2},
        )
        assert status == 200
        expected_size = data["size"]

        status, data, _ = request(server, "POST", f"/sessions/{session_id}/evict")
        assert status == 200 and data["evicted"] == session_id
        status, data, _ = request(server, "GET", f"/sessions/{session_id}/stats")
        assert status == 200 and data["state"] == "evicted"
        # Evicting twice conflicts.
        status, data, _ = request(server, "POST", f"/sessions/{session_id}/evict")
        assert status == 409

        status, data, _ = request(server, "POST", f"/sessions/{session_id}/restore")
        assert status == 200 and data["restored"] == session_id
        # The restored session recomputes its summary transparently.
        status, data, _ = request(
            server, "GET", f"/sessions/{session_id}/summary/expression"
        )
        assert status == 200
        assert f"Provenance Size: {expected_size}" in data["expression"]

    def test_failed_restores_answer_400_and_are_counted(self, server, tmp_path):
        """A damaged snapshot fails every touch with 400; each failure
        is counted (manager stats, /healthz) and logged, and the file
        stays on disk for inspection."""
        status, created, _ = request(server, "POST", "/sessions", {})
        session_id = created["session_id"]
        request(server, "POST", f"/sessions/{session_id}/select", {"genre": None})
        status, _, _ = request(server, "POST", f"/sessions/{session_id}/evict")
        assert status == 200
        snapshot = tmp_path / f"{session_id}.snap"
        snapshot.write_bytes(b"not a snapshot")

        records = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = records.append
        logger = logging.getLogger("repro.prox.manager")
        logger.addHandler(handler)
        try:
            for path in ("/titles", "/summary/expression"):
                status, data, _ = request(
                    server, "GET", f"/sessions/{session_id}{path}"
                )
                assert status == 400, data
        finally:
            logger.removeHandler(handler)

        assert snapshot.read_bytes() == b"not a snapshot"
        _, listing, _ = request(server, "GET", "/sessions")
        assert listing["manager"]["restore_failures_total"] == 2
        assert listing["manager"]["restored_total"] == 0
        _, health, _ = request(server, "GET", "/healthz")
        assert health["sessions_restore_failures_total"] == 2
        messages = [record.getMessage() for record in records]
        assert len(messages) == 2
        for message in messages:
            assert message.startswith("session_restore_failed ")
            assert f"session={session_id} " in message
            assert "bad magic" in message

    def test_sessions_listing_counts_evictions(self, server):
        status, created, _ = request(server, "POST", "/sessions", {})
        session_id = created["session_id"]
        request(server, "POST", f"/sessions/{session_id}/select", {"genre": None})
        request(server, "POST", f"/sessions/{session_id}/evict")
        status, listing, _ = request(server, "GET", "/sessions")
        assert status == 200
        assert listing["manager"]["evicted_total"] >= 1
        states = {
            row["session_id"]: row.get("state") for row in listing["sessions"]
        }
        assert states.get(session_id) == "evicted"


class TestBackCompat:
    def test_default_session_still_serves_unscoped_routes(self):
        instance = generate_movielens(SMALL)
        with ProxServer(ProxSession(instance)) as server:
            status, data, _ = request(server, "POST", "/select", {"genre": None})
            assert status == 200 and data["selected_size"] > 0
            status, data, _ = request(
                server, "POST", "/summarize", {"number_of_steps": 2}
            )
            assert status == 200
            assert data["session_id"] == server.session.session_id
            status, data, _ = request(server, "GET", "/healthz")
            assert status == 200
            assert data["selected"] is True

    def test_no_default_session_unscoped_routes_404(self, server):
        status, data, _ = request(server, "POST", "/select", {"genre": None})
        assert status == 404
        assert "POST /sessions" in data["error"]

    def test_stop_surfaces_after_shutdown(self, tmp_path):
        manager = SessionManager(
            factory=small_factory, max_sessions=2, snapshot_dir=str(tmp_path)
        )
        server = ProxServer(manager=manager)
        server.start()
        assert server.inflight() == 0
        drained = server.drain()
        assert drained["inflight_drained"] is True
        server.stop()   # clean stop after drain must not raise
        server.stop()   # idempotent
        manager.close_all()

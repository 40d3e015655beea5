"""The PROX HTTP API (§7.1's REST services)."""

import http.client
import json

import pytest

from repro.datasets import MovieLensConfig, generate_movielens
from repro.prox import ProxSession
from repro.prox.app import ProxApp
from repro.prox.server import ProxServer


@pytest.fixture(scope="module")
def server():
    instance = generate_movielens(
        MovieLensConfig(n_users=12, n_movies=8, include_movie_merges=True, seed=7)
    )
    with ProxServer(ProxSession(instance)) as running:
        yield running


def request(server, method, path, body=None):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    payload = json.dumps(body) if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    data = json.loads(response.read())
    connection.close()
    return response.status, data


def test_titles(server):
    status, data = request(server, "GET", "/titles")
    assert status == 200
    assert len(data["titles"]) == 8
    status, data = request(server, "GET", "/titles?search=titan")
    assert status == 200
    assert all("titan" in title.lower() for title in data["titles"])


def test_full_session_flow(server):
    status, data = request(server, "GET", "/titles")
    titles = data["titles"][:4]
    status, data = request(server, "POST", "/select", {"titles": titles})
    assert status == 200
    assert data["selected_size"] > 0

    status, data = request(
        server,
        "POST",
        "/summarize",
        {"distance_weight": 0.7, "number_of_steps": 4},
    )
    assert status == 200
    assert data["steps"] <= 4
    assert 0.0 <= data["distance"] <= 1.0

    status, data = request(server, "GET", "/summary/expression")
    assert status == 200
    assert "Provenance Size" in data["expression"]

    status, data = request(server, "GET", "/summary/groups")
    assert status == 200
    for group in data["groups"]:
        assert group["size"] == len(group["members"]) >= 2

    status, data = request(
        server, "POST", "/evaluate", {"false_attributes": {"gender": "M"}}
    )
    assert status == 200
    assert data["original"]["evaluation_time_ns"] > 0
    assert data["summary"]["evaluation_time_ns"] > 0


def test_select_by_attributes(server):
    status, data = request(server, "POST", "/select", {"genre": "no-such-genre"})
    assert status == 400
    assert "no movies match" in data["error"]


def test_errors(server):
    status, data = request(server, "GET", "/nope")
    assert status == 404
    status, data = request(server, "POST", "/summarize", {"bogus_param": 1})
    assert status == 400
    assert "unknown summarization parameters" in data["error"]


@pytest.fixture(scope="module")
def selected_app():
    instance = generate_movielens(MovieLensConfig(n_users=8, n_movies=5, seed=1))
    app = ProxApp(default_session_id="only")
    app.manager.create_with("only", lambda sid: ProxSession(instance, session_id=sid))
    status, _, _, _ = app.dispatch("POST", "/select", body={"genre": None})
    assert status == 200
    return app


MALFORMED = [
    ("repair", 0),
    ("sample_sharing", [1]),
    ("number_of_steps", True),
    ("size_bound", 1.5),
    ("number_of_steps", "2"),
    ("distance_weight", "x"),
    ("aggregation", 5),
]


@pytest.mark.parametrize(
    "field, value",
    MALFORMED,
    ids=[f"{field}-{type(value).__name__}" for field, value in MALFORMED],
)
def test_malformed_summarize_bodies_are_400_naming_the_field(
    selected_app, field, value
):
    """Wrongly typed knobs are rejected by name, never silently
    coerced (``0`` must not switch repair on) or left to fail deep in
    the run as a 500."""
    status, payload, _, _ = selected_app.dispatch(
        "POST", "/summarize", body={field: value}
    )
    assert status == 400, payload
    assert payload["error"].startswith(field), payload


def test_summarize_before_select_conflicts():
    instance = generate_movielens(MovieLensConfig(n_users=8, n_movies=5, seed=1))
    with ProxServer(ProxSession(instance)) as fresh:
        status, data = request(fresh, "POST", "/summarize", {})
        assert status == 409
        assert "select provenance first" in data["error"]


def test_double_start_rejected():
    instance = generate_movielens(MovieLensConfig(n_users=8, n_movies=5, seed=1))
    server = ProxServer(ProxSession(instance))
    server.start()
    try:
        with pytest.raises(RuntimeError, match="already started"):
            server.start()
    finally:
        server.stop()
    server.stop()  # idempotent


def test_ingest_endpoint_streams_and_repairs():
    from repro.datasets.movielens import (
        MovieLensDeltaConfig,
        generate_movielens_deltas,
    )
    from repro.serialization import delta_to_dict

    instance = generate_movielens(MovieLensConfig(n_users=10, n_movies=6, seed=2))
    deltas = generate_movielens_deltas(
        instance, MovieLensDeltaConfig(n_deltas=2, spam_flag_every=2, seed=6)
    )
    with ProxServer(ProxSession(instance)) as fresh:
        status, data = request(fresh, "GET", "/titles")
        request(fresh, "POST", "/select", {"titles": data["titles"]})
        status, before = request(
            fresh, "POST", "/summarize", {"number_of_steps": 3}
        )
        assert status == 200
        for index, delta in enumerate(deltas):
            status, stats = request(fresh, "POST", "/ingest", delta_to_dict(delta))
            assert status == 200
            assert stats["ingested_deltas"] == index + 1
        status, after = request(
            fresh, "POST", "/summarize", {"number_of_steps": 3}
        )
        assert status == 200
        assert after["steps"] <= 3


def test_ingest_endpoint_errors():
    instance = generate_movielens(MovieLensConfig(n_users=8, n_movies=5, seed=1))
    with ProxServer(ProxSession(instance)) as fresh:
        # Before any selection the session refuses deltas.
        status, data = request(fresh, "POST", "/ingest", {})
        assert status == 409
        assert "select provenance first" in data["error"]
        status, data = request(fresh, "GET", "/titles")
        request(fresh, "POST", "/select", {"titles": data["titles"]})
        status, data = request(
            fresh,
            "POST",
            "/ingest",
            {"terms": [{"annotations": ["nope"], "value": 1.0}]},
        )
        assert status == 400
        assert "unknown annotation" in data["error"]

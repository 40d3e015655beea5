"""A repeat summarize on an unchanged session returns its last summary.

``ProxSession.summarize`` reuses the stored result when no select or
ingest happened since (both clear it) and the request and seed are
the ones it was computed for; ``/summarize`` marks such a reply
``"reused": true``.  Any change of input forces a run, and so does a
restored session, which starts without a result.
"""

import http.client
import json

import pytest

from repro.core.summarize import Summarizer
from repro.datasets import (
    MovieLensConfig,
    MovieLensDeltaConfig,
    generate_movielens,
    generate_movielens_deltas,
)
from repro.prox import ProxSession, SessionManager, SummarizationRequest
from repro.prox.server import ProxServer
from repro.serialization import delta_to_dict

CONFIG = MovieLensConfig(n_users=10, n_movies=8, include_movie_merges=True, seed=5)
REQUEST = SummarizationRequest(number_of_steps=3)
#: Reply fields that time the run rather than describe it.
TIMINGS = ("total_seconds", "candidate_seconds", "step_seconds")


def _delta():
    return generate_movielens_deltas(
        generate_movielens(CONFIG), MovieLensDeltaConfig(n_deltas=1, seed=9)
    )[0]


@pytest.fixture
def runs(monkeypatch):
    """Count :meth:`Summarizer.run` calls."""
    calls = []
    run = Summarizer.run

    def spy(self):
        calls.append(self)
        return run(self)

    monkeypatch.setattr(Summarizer, "run", spy)
    return calls


@pytest.fixture
def session():
    session = ProxSession(generate_movielens(CONFIG))
    session.select_by(genre=None)
    yield session
    session.close()


def test_repeat_summarize_returns_the_stored_result(session, runs):
    first = session.summarize(REQUEST, seed=3)
    assert len(runs) == 1
    annotations = len(session.instance.universe)
    session.account.last_active = 0.0

    again = session.summarize(REQUEST, seed=3)
    assert again is first
    assert len(runs) == 1
    assert session.account.summarize_runs == 1
    assert session.account.last_active > 0.0  # idle eviction sees it
    # No run, so no new summary annotations in the session's universe.
    assert len(session.instance.universe) == annotations


@pytest.mark.parametrize(
    "change, request_, seed",
    [
        pytest.param(lambda s: s.ingest(_delta()), REQUEST, 3, id="ingest"),
        pytest.param(
            lambda s: s.select_titles(s.titles()[:4]), REQUEST, 3, id="select_titles"
        ),
        pytest.param(
            None,
            SummarizationRequest(number_of_steps=3, distance_weight=0.7),
            3,
            id="request_field",
        ),
        pytest.param(None, REQUEST, 4, id="seed"),
    ],
)
def test_changed_input_forces_a_run(session, runs, change, request_, seed):
    first = session.summarize(REQUEST, seed=3)
    if change is not None:
        change(session)
    second = session.summarize(request_, seed=seed)
    assert second is not first
    assert len(runs) == 2
    assert session.account.summarize_runs == 2


# -- over HTTP ---------------------------------------------------------------


def _call(server, method, path, body=None):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=60)
    payload = json.dumps(body) if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    data = json.loads(response.read())
    connection.close()
    assert 200 <= response.status < 300, data
    return data


def _untimed(reply):
    reply = {key: value for key, value in reply.items() if key not in TIMINGS}
    reply["steps_detail"] = [
        {key: value for key, value in step.items() if key not in TIMINGS}
        for step in reply["steps_detail"]
    ]
    return reply


@pytest.fixture
def server(tmp_path):
    manager = SessionManager(
        factory=lambda sid: ProxSession(generate_movielens(CONFIG), session_id=sid),
        max_sessions=2,
        snapshot_dir=str(tmp_path),
    )
    with ProxServer(manager=manager) as running:
        yield running
    manager.close_all()


def _open(server):
    session_id = _call(server, "POST", "/sessions", {})["session_id"]
    prefix = f"/sessions/{session_id}"
    _call(server, "POST", prefix + "/select", {"genre": None})
    return prefix


def test_http_repeat_is_reused(server, runs):
    prefix = _open(server)
    body = {"number_of_steps": 3, "seed": 3}
    first = _call(server, "POST", prefix + "/summarize", body)
    second = _call(server, "POST", prefix + "/summarize", body)
    assert first["reused"] is False
    assert second["reused"] is True
    assert len(runs) == 1
    assert {**second, "reused": False} == first


def _ingest(server, prefix):
    _call(server, "POST", prefix + "/ingest", delta_to_dict(_delta()))


def _select_titles(server, prefix):
    titles = _call(server, "GET", prefix + "/titles")["titles"]
    _call(server, "POST", prefix + "/select", {"titles": titles[:4]})


@pytest.mark.parametrize(
    "change, body",
    [
        pytest.param(_ingest, {"number_of_steps": 3, "seed": 3}, id="ingest"),
        pytest.param(
            _select_titles, {"number_of_steps": 3, "seed": 3}, id="select_titles"
        ),
        pytest.param(None, {"number_of_steps": 4, "seed": 3}, id="request_field"),
        pytest.param(None, {"number_of_steps": 3, "seed": 4}, id="seed"),
    ],
)
def test_http_changed_input_is_not_reused(server, runs, change, body):
    prefix = _open(server)
    _call(server, "POST", prefix + "/summarize", {"number_of_steps": 3, "seed": 3})
    if change is not None:
        change(server, prefix)
    reply = _call(server, "POST", prefix + "/summarize", body)
    assert reply["reused"] is False
    assert len(runs) == 2


def test_restored_session_runs_and_replies_as_before(server, runs):
    prefix = _open(server)
    body = {"number_of_steps": 3, "seed": 3}
    before = _call(server, "POST", prefix + "/summarize", body)
    assert _call(server, "POST", prefix + "/evict", {})["evicted"]
    after = _call(server, "POST", prefix + "/summarize", body)
    assert after["reused"] is False
    assert len(runs) == 2
    assert _untimed(after) == _untimed(before)

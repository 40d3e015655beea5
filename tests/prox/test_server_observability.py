"""/healthz, /metrics and the request instrumentation of the server."""

import http.client
import json
import re
import time

import pytest

from repro.datasets import MovieLensConfig, generate_movielens
from repro.observability import metrics, tracing
from repro.observability.slo import SloPolicy
from repro.prox import ProxSession
from repro.prox.server import ProxServer

#: One exposition-format line: comment, blank, or `name{labels} value`.
_SAMPLE_LINE = re.compile(
    r"^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?(\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN))$"
)


@pytest.fixture(scope="module")
def server():
    instance = generate_movielens(
        MovieLensConfig(n_users=12, n_movies=8, include_movie_merges=True, seed=7)
    )
    with ProxServer(ProxSession(instance)) as running:
        yield running


def wait_until(predicate, timeout=5.0):
    """Poll for server-side bookkeeping: request accounting runs after
    the response body is written, so the client can observe the reply
    before the handler thread books it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def fetch(server, method, path, body=None):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    payload = json.dumps(body) if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    content_type = response.getheader("Content-Type", "")
    connection.close()
    return response.status, content_type, raw


def test_healthz(server):
    status, content_type, raw = fetch(server, "GET", "/healthz")
    assert status == 200
    assert content_type.startswith("application/json")
    payload = json.loads(raw)
    assert payload["status"] == "ok"
    assert payload["uptime_seconds"] >= 0.0
    assert payload["pid"] > 0
    assert payload["metric_families"] > 0
    assert payload["selected"] in (True, False)
    assert payload["summarized"] in (True, False)


def test_healthz_reports_serving_tier_state(server):
    """The serving-tier golden keys: session identity, the live
    session count and the process breach count."""
    _, _, raw = fetch(server, "GET", "/healthz")
    payload = json.loads(raw)
    assert payload["session_id"] == server.session.session_id
    assert payload["active_sessions"] >= 1
    assert "sessions_arena_bytes" not in payload
    assert payload["slo_breaches_total"] >= 0


def test_metrics_scrape_is_valid_exposition_text(server):
    status, content_type, raw = fetch(server, "GET", "/metrics")
    assert status == 200
    assert content_type == "text/plain; version=0.0.4; charset=utf-8"
    text = raw.decode("utf-8")
    assert text.endswith("\n")
    for line in text.splitlines():
        assert _SAMPLE_LINE.match(line), f"malformed exposition line: {line!r}"
    # every family carries HELP and TYPE headers
    typed = re.findall(r"^# TYPE (\S+) (counter|gauge|histogram)$", text, re.M)
    helped = {name for name, _ in re.findall(r"^# HELP (\S+) (.*)$", text, re.M)}
    assert {name for name, _ in typed} <= helped


def test_metrics_scrape_includes_the_required_families(server):
    _, _, raw = fetch(server, "GET", "/metrics")
    text = raw.decode("utf-8")
    # Required by the acceptance criteria, present (0-valued) even on an
    # idle server -- the CI probe greps for exactly these.
    assert re.search(r"^prox_summarize_steps_total \d+$", text, re.M)
    assert re.search(r"^prox_scoring_fallbacks_total \d+$", text, re.M)
    assert "# TYPE prox_scoring_seconds histogram" in text
    assert re.search(r'^prox_scoring_seconds_bucket\{le="\+Inf"\} \d+$', text, re.M)
    assert re.search(r"^prox_scoring_seconds_count \d+$", text, re.M)


def test_metrics_scrape_includes_the_ir_gauges(server):
    """The annotation gauge is per session now: the scrape carries the
    ``prox_session_annotations`` family and no process-wide
    ``repro_ir_*`` gauge (the interner and the monomial arena are gone)."""
    _, _, raw = fetch(server, "GET", "/metrics")
    text = raw.decode("utf-8")
    assert "# TYPE prox_session_annotations gauge" in text
    assert "repro_ir_" not in text


def test_healthz_reports_ir_state(server):
    """No IR state is left to report."""
    _, _, raw = fetch(server, "GET", "/healthz")
    payload = json.loads(raw)
    assert not [key for key in payload if key.startswith("ir_")]


def test_healthz_reports_kernel_backend(server):
    from repro.core import kernels

    _, _, raw = fetch(server, "GET", "/healthz")
    payload = json.loads(raw)
    assert payload["kernel"] in ("python", "native")
    assert payload["kernel"] == kernels.active_backend()


def test_metrics_scrape_includes_the_kernel_gauge(server):
    """The kernel info gauge is present with a sample per backend (1 for
    the active one) -- the CI probe greps for exactly this family."""
    _, _, raw = fetch(server, "GET", "/metrics")
    text = raw.decode("utf-8")
    assert "# TYPE repro_kernel_backend gauge" in text
    from repro.core import kernels

    active = kernels.active_backend()
    other = "python" if active == "native" else "native"
    assert f'repro_kernel_backend{{backend="{active}"}} 1' in text
    assert f'repro_kernel_backend{{backend="{other}"}} 0' in text


@pytest.mark.skipif(not metrics.ENABLED, reason="metrics disabled via REPRO_METRICS")
def test_ir_gauges_advance_after_a_summarization(server):
    _, _, raw = fetch(server, "GET", "/titles")
    titles = json.loads(raw)["titles"][:4]
    fetch(server, "POST", "/select", {"titles": titles})
    status, _, _ = fetch(
        server, "POST", "/summarize", {"distance_weight": 0.7, "number_of_steps": 2}
    )
    assert status == 200
    _, _, raw = fetch(server, "GET", "/metrics")
    text = raw.decode("utf-8")
    _, _, raw = fetch(server, "GET", "/healthz")
    session_id = json.loads(raw)["session_id"]
    match = re.search(
        rf'^prox_session_annotations\{{session="{session_id}"\}} (\d+)$',
        text,
        re.M,
    )
    assert match is not None
    # The session's universe holds the instance's annotations.
    assert int(match.group(1)) > 0


@pytest.mark.skipif(not metrics.ENABLED, reason="metrics disabled via REPRO_METRICS")
def test_counters_advance_across_a_session(server):
    steps_total = metrics.REGISTRY.get("prox_summarize_steps_total")
    http_requests = metrics.REGISTRY.get("prox_http_requests_total")
    steps_before = steps_total.value()

    _, _, raw = fetch(server, "GET", "/titles")
    titles = json.loads(raw)["titles"][:4]
    status, _, _ = fetch(server, "POST", "/select", {"titles": titles})
    assert status == 200
    status, _, raw = fetch(
        server, "POST", "/summarize", {"distance_weight": 0.7, "number_of_steps": 3}
    )
    assert status == 200
    result = json.loads(raw)

    assert steps_total.value() == steps_before + result["steps"]
    assert (
        http_requests.value(method="POST", path="/summarize", status="200") >= 1
    )
    # the scrape itself is counted too
    fetch(server, "GET", "/metrics")
    assert http_requests.value(method="GET", path="/metrics", status="200") >= 1


def test_summarize_response_reports_scoring_paths_and_timings(server):
    _, _, raw = fetch(server, "GET", "/titles")
    titles = json.loads(raw)["titles"][:4]
    fetch(server, "POST", "/select", {"titles": titles})
    status, _, raw = fetch(
        server, "POST", "/summarize", {"distance_weight": 0.7, "number_of_steps": 3}
    )
    assert status == 200
    result = json.loads(raw)

    assert result["total_seconds"] >= 0.0
    assert sum(result["scoring_paths"].values()) == result["steps"]
    assert len(result["steps_detail"]) == result["steps"]
    for detail in result["steps_detail"]:
        assert detail["scoring_path"] in {"fast+incremental", "naive"}
        assert detail["step_seconds"] >= detail["candidate_seconds"] >= 0.0
        assert detail["n_candidates"] >= 1
        assert isinstance(detail["merged"], list)


def test_unknown_paths_fold_into_the_other_label(server):
    status, _, _ = fetch(server, "GET", "/definitely/not/a/route")
    assert status == 404
    if metrics.ENABLED:
        http_requests = metrics.REGISTRY.get("prox_http_requests_total")
        assert wait_until(
            lambda: http_requests.value(method="GET", path="other", status="404")
            >= 1
        )


# -- session accounting endpoints ----------------------------------------------


def test_sessions_lists_accounts_and_the_eviction_ranking(server):
    status, _, raw = fetch(server, "GET", "/sessions")
    assert status == 200
    payload = json.loads(raw)
    assert payload["count"] >= 1
    ids = [row["session_id"] for row in payload["sessions"]]
    assert server.session.session_id in ids
    ranked = [row["session_id"] for row in payload["eviction_ranking"]]
    assert sorted(ranked) == sorted(ids)
    for row in payload["eviction_ranking"]:
        assert row["reasons"]


def test_session_stats_answers_for_the_live_session(server):
    session_id = server.session.session_id
    status, _, raw = fetch(server, "GET", f"/sessions/{session_id}/stats")
    assert status == 200
    payload = json.loads(raw)
    assert payload["session_id"] == session_id
    assert payload["retained_bytes"] >= 0
    assert payload["eviction_score"] >= 0.0


def test_session_stats_404_for_unknown_sessions(server):
    status, _, raw = fetch(server, "GET", "/sessions/no-such/stats")
    assert status == 404
    assert "unknown session" in json.loads(raw)["error"]
    if metrics.ENABLED:
        # the parameterized route folds into one bounded label
        http_requests = metrics.REGISTRY.get("prox_http_requests_total")
        assert wait_until(
            lambda: http_requests.value(
                method="GET", path="/sessions/<id>/stats", status="404"
            )
            >= 1
        )


# -- debug endpoints -----------------------------------------------------------


def test_debug_profile_burst_samples_when_the_env_knob_is_off(server):
    """Without REPRO_PROFILE the endpoint serves a bounded on-demand
    burst (the continuous profiler is absent under the test env)."""
    status, _, raw = fetch(server, "GET", "/debug/profile?seconds=0.05&hz=100")
    assert status == 200
    payload = json.loads(raw)
    assert payload["burst"] is True
    assert payload["samples"] >= 1
    assert payload["hz"] == 100.0
    assert not payload["running"]


@pytest.mark.parametrize(
    "query",
    ["seconds=99", "seconds=0", "seconds=nope", "hz=0", "hz=1e9", "hz=-5"],
)
def test_debug_profile_rejects_out_of_range_bursts(server, query):
    status, _, raw = fetch(server, "GET", f"/debug/profile?{query}")
    assert status == 400
    assert "invalid profile parameters" in json.loads(raw)["error"]


def test_debug_slow_requests_shape(server):
    status, _, raw = fetch(server, "GET", "/debug/slow_requests")
    assert status == 200
    payload = json.loads(raw)
    assert isinstance(payload["slow_requests"], list)
    assert payload["total_recorded"] >= len(payload["slow_requests"])
    assert payload["slo"]["targets_seconds"]["/summarize"] == 2.0
    assert payload["tracing_enabled"] in (True, False)


# -- SLO breach tail sampling --------------------------------------------------


@pytest.fixture()
def strict_server():
    """A server whose /titles target is impossibly tight, so any real
    request breaches and lands in the slow-request ring."""
    instance = generate_movielens(MovieLensConfig(n_users=8, n_movies=6, seed=11))
    policy = SloPolicy(targets={"/titles": 1e-6}, ring_size=8)
    with ProxServer(ProxSession(instance), slo=policy) as running:
        yield running


def test_breaching_requests_are_counted_and_retained(strict_server):
    if metrics.ENABLED:
        from repro.observability import slo

        breaches_before = slo.SLO_BREACHES.value(scope="/titles")
    status, _, _ = fetch(strict_server, "GET", "/titles")
    assert status == 200

    assert wait_until(lambda: strict_server.slow_log.total_recorded >= 1)
    _, _, raw = fetch(strict_server, "GET", "/debug/slow_requests")
    payload = json.loads(raw)
    (entry,) = [
        row for row in payload["slow_requests"] if row["path"] == "/titles"
    ]
    assert entry["method"] == "GET"
    assert entry["status"] == 200
    assert entry["seconds"] > entry["target_seconds"]
    assert "trace" not in entry  # tracing off: tail sampling retains no tree
    if metrics.ENABLED:
        assert wait_until(
            lambda: slo.SLO_BREACHES.value(scope="/titles") == breaches_before + 1
        )
    # healthz mirrors the process breach count, lock-free
    _, _, raw = fetch(strict_server, "GET", "/healthz")
    assert json.loads(raw)["slo_breaches_total"] >= 1


def test_breaching_requests_retain_their_span_tree_when_tracing_is_on(
    strict_server,
):
    original = tracing.is_enabled()
    tracing.set_enabled(True)
    try:
        status, _, _ = fetch(strict_server, "GET", "/titles")
        assert status == 200
        assert wait_until(
            lambda: any(
                "trace" in row
                for row in strict_server.slow_log.snapshot()
                if row["path"] == "/titles"
            )
        )
        _, _, raw = fetch(strict_server, "GET", "/debug/slow_requests")
        payload = json.loads(raw)
        traced = [
            row
            for row in payload["slow_requests"]
            if row["path"] == "/titles" and "trace" in row
        ]
        assert traced, "breach under tracing should retain its span tree"
        assert traced[-1]["trace"]["name"] == "http[GET /titles]"
    finally:
        tracing.set_enabled(original)
        tracing.take_trace()

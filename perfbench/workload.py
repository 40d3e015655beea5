"""One measured run of one workload, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH=src``.  Sets up (imports,
input generation, server start and sessions, one discarded warm-up
op), prints ``READY``, then -- unless ``--setup-only`` -- runs the
timed phase and prints ``RESULT <json>``.  With ``--trace`` the
layers are wrapped by :mod:`tracer` before anything is generated.

Usage::

    PYTHONPATH=src python3 perfbench/workload.py WORKLOAD --seed N
        --seconds S [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import NamedTuple, Optional

import tracer as _tracer

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: Instance seed of the discarded warm-up op; never an op seed, which
#: are ``seed * 1000 + index`` for seeds below one million.
WARMUP_SEED = 10**9 + 7


def _op_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


# -- library workloads -------------------------------------------------------


def _movielens(instance_seed: int):
    from repro.core import SummarizationConfig
    from repro.datasets import movielens

    instance = movielens.generate_movielens(
        movielens.MovieLensConfig(
            n_users=40,
            n_movies=40,
            min_ratings_per_user=5,
            max_ratings_per_user=5,
            seed=instance_seed,
        )
    )
    return instance, SummarizationConfig(max_steps=10, seed=instance_seed)


def _wikipedia(instance_seed: int):
    from repro.core import SummarizationConfig
    from repro.datasets import wikipedia

    instance = wikipedia.generate_wikipedia(
        wikipedia.WikipediaConfig(n_users=30, n_pages=24, seed=instance_seed)
    )
    config = SummarizationConfig(max_steps=6, max_enumerate=0, seed=instance_seed)
    return instance, config


def _ddp(instance_seed: int):
    from repro.core import SummarizationConfig
    from repro.datasets import ddp

    instance = ddp.generate_ddp(
        ddp.DDPConfig(
            executions_per_template=10, min_transitions=5, seed=instance_seed
        )
    )
    return instance, SummarizationConfig(max_steps=6, seed=instance_seed)


#: name -> (instance factory, expected scoring path, nominal ops/second).
#: The op count of a run is ``round(seconds * rate)``: fixed for a
#: given ``--seconds``, so a faster program finishes sooner.
LIBRARY = {
    "exact_movielens": (_movielens, "fast+incremental", 0.5),
    "sampled_wikipedia": (_wikipedia, "sampled+incremental", 0.5),
    "naive_ddp": (_ddp, "naive", 1.2),
}


def fingerprint(result) -> dict:
    """What a library op must reproduce exactly on a golden seed."""
    return {
        "merged": [list(record.merged) for record in result.steps],
        "final_size": result.final_size,
        "distance": repr(result.final_distance.normalized),
    }


def check_result(result, expected_path: str, golden) -> str:
    """Return ``""`` when the op's output is correct, else why not."""
    got = fingerprint(result)
    if golden is not None:
        return "" if got == golden else f"fingerprint {got} != golden {golden}"
    sizes = result.size_trajectory()
    if any(later > earlier for earlier, later in zip(sizes, sizes[1:])):
        return f"size grew along the merge chain (Prop 4.2.2): {sizes}"
    if not result.steps:
        return "no merge step ran"
    paths = {record.scoring_path for record in result.steps}
    if paths != {expected_path}:
        return f"scoring paths {sorted(paths)} != {expected_path!r}"
    return ""


def _load_golden(workload: str) -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text()).get(workload, {})


def run_library(args, tracer) -> dict:
    from repro.core import Summarizer

    factory, expected_path, rate = LIBRARY[args.workload]
    n_ops = max(1, round(args.seconds * rate))
    warmup = factory(WARMUP_SEED)
    inputs = []
    for index in range(n_ops):
        instance_seed = _op_seed(args.seed, index)
        instance, config = factory(instance_seed)
        inputs.append((instance_seed, instance.problem(), config))
    Summarizer(warmup[0].problem(), warmup[1]).run()
    setup = _ready(args, tracer)

    golden = _load_golden(args.workload)
    op_ms, errors, fingerprints = [], [], {}
    cpu_before = _cpu_self_and_children()
    started = time.perf_counter()
    for instance_seed, problem, config in inputs:
        op_started = time.perf_counter()
        try:
            result = Summarizer(problem, config).run()
        except Exception as error:  # a crashing op is a failed op
            errors.append(f"seed {instance_seed}: {type(error).__name__}: {error}")
            continue
        op_ms.append((time.perf_counter() - op_started) * 1e3)
        fingerprints[str(instance_seed)] = fingerprint(result)
        problem_found = check_result(
            result, expected_path, golden.get(str(instance_seed))
        )
        if problem_found:
            errors.append(f"seed {instance_seed}: {problem_found}")
    run_s = time.perf_counter() - started
    return {
        "attempted": n_ops,
        "failed": len(errors),
        "errors": errors[:5],
        "run_s": run_s,
        "cpu_s": _cpu_self_and_children() - cpu_before,
        "peak_rss_mb": _peak_rss_mb(),
        "op_p50_ms": _median(op_ms),
        "fingerprints": fingerprints,
        "setup": setup,
    }


def _cpu_self_and_children() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- served workload ---------------------------------------------------------

#: One cycle of a serve client's requests: summarize 30%, ingest 20%
#: and views 50%.  The order is fixed so that every run has the same
#: share of summaries that repair an ingest (two per cycle) and of
#: views that meet an invalidated summary (the expected 409s); the
#: seed varies the sessions and the deltas.
SERVE_CYCLE = (
    "summarize", "groups", "ingest", "expression", "summarize",
    "titles", "ingest", "groups", "summarize", "expression",
)
VIEWS = ("groups", "expression", "titles")
SERVE_CLIENTS = 2
#: The serve timed phase runs in this many consecutive blocks; each
#: block gives every client a fresh session.
BLOCKS = 5
#: Nominal requests per second over both clients.
SERVE_RATE = 18.0
SUMMARIZE_BODY = {"number_of_steps": 2}


class _Client:
    """One closed-loop caller bound to its own server session."""

    def __init__(self, base: str):
        self.base = base
        self.prefix = ""

    def call(self, method: str, path: str, payload=None):
        """``(status, body, dispatch_ms or None)``; HTTP errors are
        returned, not raised."""
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base + self.prefix + path,
            data=data,
            headers={"Content-Type": "application/json"},
            method=method,
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                status, raw, headers = response.status, response.read(), response.headers
        except urllib.error.HTTPError as error:
            status, raw, headers = error.code, error.read(), error.headers
        dispatch = headers.get("X-Bench-Dispatch-Ms")
        body = json.loads(raw) if raw else {}
        return status, body, float(dispatch) if dispatch else None


def _session_config(seed: int, client: int):
    from repro.datasets import movielens

    return movielens.MovieLensConfig(
        n_users=40,
        n_movies=100,
        min_ratings_per_user=3,
        max_ratings_per_user=3,
        seed=_op_seed(seed, client),
    )


def _start_server(args):
    command = [sys.executable, "-u", str(HERE / "serve_launcher.py")]
    if args.trace:
        command += ["--trace-out", str(args.trace_out)]
    # Same process group as this process: the parent's watchdog kills
    # the group, so a hung run leaves no server behind.
    server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    line = server.stdout.readline()
    if "http://" not in line:
        server.kill()
        server.wait()
        raise RuntimeError(f"server did not start: {line!r}")
    base = line.split("http://", 1)[1].split()[0]
    # Keep draining the server's stdout so it never blocks on a pipe.
    threading.Thread(target=server.stdout.read, daemon=True).start()
    return server, "http://" + base


def _server_cpu_s(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = sum(int(value) for value in fields[11:15])  # utime..cstime
    return ticks / os.sysconf("SC_CLK_TCK")


def _server_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _prepare_session(base: str, seed: int, index: int, n_requests: int):
    """Create, select and warm one session; returns its client and plan."""
    from repro.datasets import movielens
    from repro.serialization import delta_to_dict

    config = _session_config(seed, index)
    plan = [SERVE_CYCLE[i % len(SERVE_CYCLE)] for i in range(n_requests)]
    n_ingests = plan.count("ingest")
    deltas = []
    if n_ingests:
        instance = movielens.generate_movielens(config)
        deltas = [
            delta_to_dict(delta)
            for delta in movielens.generate_movielens_deltas(
                instance,
                movielens.MovieLensDeltaConfig(
                    n_deltas=n_ingests,
                    min_ratings_per_delta=1,
                    max_ratings_per_delta=1,
                    new_movie_every=4,
                    seed=_op_seed(seed, 700 + index),
                ),
            )
        ]
    client = _Client(base)
    payload = dict(config.__dict__)
    payload["constraint_attributes"] = list(config.constraint_attributes)
    status, created, _ = client.call("POST", "/sessions", {"config": payload})
    if status != 201:
        raise RuntimeError(f"session create failed: HTTP {status} {created}")
    client.prefix = f"/sessions/{created['session_id']}"
    status, body, _ = client.call("GET", "/titles")
    status, body, _ = client.call("POST", "/select", {"titles": body["titles"]})
    if status != 200:
        raise RuntimeError(f"select failed: HTTP {status} {body}")
    status, body, _ = client.call("POST", "/summarize", SUMMARIZE_BODY)
    if status != 200:
        raise RuntimeError(f"warm-up summarize failed: HTTP {status} {body}")
    return _Caller(client, plan, deltas)


class _Record(NamedTuple):
    """One request as the client saw it."""

    op: str
    latency_ms: float
    dispatch_ms: Optional[float]  # traced runs only
    status: int
    body: dict
    error: str  # "" when the response was correct


class _Caller:
    """One closed-loop caller: its session, its requests and deltas."""

    def __init__(self, client, plan, deltas):
        self.client = client
        self.plan = plan
        self.deltas = list(deltas)
        #: An ingest invalidated the summary since the last summarize.
        self.stale = False

    def drive(self, records) -> None:
        """Send the plan in order, each request after the previous reply."""
        for op in self.plan:
            records.append(self._request(op))

    def _request(self, op):
        client = self.client
        started = time.perf_counter()
        try:
            if op == "summarize":
                status, body, dispatch = client.call("POST", "/summarize", SUMMARIZE_BODY)
            elif op == "ingest":
                status, body, dispatch = client.call("POST", "/ingest", self.deltas.pop(0))
            elif op == "titles":
                status, body, dispatch = client.call("GET", "/titles")
            else:
                status, body, dispatch = client.call("GET", f"/summary/{op}")
        except OSError as failure:  # connection refused, reset, timeout
            status, body, dispatch = 0, {"error": repr(failure)}, None
        latency_ms = (time.perf_counter() - started) * 1e3
        error = ""
        if op in ("groups", "expression") and self.stale:
            if status not in (200, 409):
                error = f"{op}: HTTP {status} after ingest"
        elif not 200 <= status < 300:
            error = f"{op}: HTTP {status} {body}"
        elif op == "summarize":
            missing = [key for key in ("size", "steps", "repaired") if key not in body]
            if missing:
                error = f"summarize body lacks {missing}"
        if op == "ingest" and not error:
            self.stale = True
        elif op == "summarize" and not error:
            self.stale = False
        return _Record(op, latency_ms, dispatch, status, body, error)


def run_serve(args, tracer) -> dict:
    # Each block of the timed phase gives every client a fresh session
    # of its own, so no session grows by more than a block's ingests.
    n_sessions = SERVE_CLIENTS * BLOCKS
    per_session = max(1, round(args.seconds * SERVE_RATE) // n_sessions)
    server, base = _start_server(args)
    try:
        blocks = [
            [
                _prepare_session(base, args.seed, block * SERVE_CLIENTS + client, per_session)
                for client in range(SERVE_CLIENTS)
            ]
            for block in range(BLOCKS)
        ]
        _, health, _ = _Client(base).call("GET", "/healthz")
        setup = _ready(args, tracer)
        if args.trace:
            _, server_setup, _ = _Client(base).call("POST", "/__bench/reset", {})
            setup = _tracer.merge(setup, server_setup)
        flat = []
        cpu_before = _server_cpu_s(server.pid)
        started = time.perf_counter()
        for callers in blocks:
            records = [[] for _ in callers]
            threads = [
                threading.Thread(target=caller.drive, args=(out,))
                for caller, out in zip(callers, records)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            flat += [record for out in records for record in out]
        run_s = time.perf_counter() - started
        cpu_s = _server_cpu_s(server.pid) - cpu_before
        peak_rss_mb = _server_peak_rss_mb(server.pid)
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    if server.returncode != 0:
        raise RuntimeError(f"server exited with {server.returncode}")
    if args.trace:
        server_trace = json.loads(args.trace_out.read_text())
        args.trace_out.unlink()
    else:
        server_trace = None
    ok = [record for record in flat if not record.error]
    by_op = {}
    for record in ok:
        kind = "view" if record.op in VIEWS else record.op
        by_op.setdefault(kind, []).append(record.latency_ms)
    errors = [record.error for record in flat if record.error]
    all_ms = sorted(record.latency_ms for record in ok)
    summaries = [record.body for record in ok if record.op == "summarize"]
    timed = [record for record in ok if record.dispatch_ms is not None]
    split = {}  # traced runs: per request type, client = dispatch + outside
    for kind in ("summarize", "ingest", "view"):
        rows = [
            record for record in timed
            if ("view" if record.op in VIEWS else record.op) == kind
        ]
        split[kind] = {
            "client_p50_ms": _median([r.latency_ms for r in rows]),
            "dispatch_p50_ms": _median([r.dispatch_ms for r in rows]),
            "outside_p50_ms": _median([r.latency_ms - r.dispatch_ms for r in rows]),
        }
    return {
        "attempted": len(flat),
        "failed": len(errors),
        "errors": errors[:5],
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": _median(by_op.get("summarize")),
        "serve": {
            "summarize_p50_ms": _median(by_op.get("summarize")),
            "ingest_p50_ms": _median(by_op.get("ingest")),
            "view_p50_ms": _median(by_op.get("view")),
            "request_p90_ms": _nearest_rank(all_ms, 0.90),
            "requests": len(all_ms),
            "beyond_p90": len(all_ms) - math.ceil(0.90 * len(all_ms)),
            "conflicts_409": sum(1 for record in flat if record.status == 409),
            "counts": {op: len(values) for op, values in by_op.items()},
        },
        "repair": {
            "repair.repaired": sum(1 for body in summaries if body.get("repaired")),
            "repair.seeded": sum(body.get("repair_seeded", 0) for body in summaries),
            "repair.invalidated": sum(
                body.get("repair_invalidated", 0) for body in summaries
            ),
        },
        "latency_split": split if timed else None,
        "dispatch_ms": _median([r.dispatch_ms for r in timed]),
        "outside_ms": _median([r.latency_ms - r.dispatch_ms for r in timed]),
        "server_pid": server.pid,
        "server_trace": server_trace,
        "kernel": health.get("kernel", ""),
        "setup": setup,
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _nearest_rank(sorted_values, fraction: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(fraction * len(sorted_values))) - 1]


# -- process protocol --------------------------------------------------------


def _ready(args, tracer):
    """End of set-up: tell the parent, then start the timed phase clean."""
    setup = None
    if tracer is not None:
        setup = tracer.snapshot()
        tracer.reset()
    print("READY", flush=True)
    if args.setup_only:
        sys.exit(0)
    return setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(LIBRARY) + ["serve_ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", type=Path, help="server trace dump (serve)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = _tracer.Tracer()
        _tracer.install(tracer)
    from repro.core import kernels

    if args.workload == "serve_ingest":
        result = run_serve(args, tracer)
    else:
        result = run_library(args, tracer)
    result.setdefault("kernel", kernels.active_backend())
    server_trace = result.pop("server_trace", None)
    if tracer is not None:
        result["trace"] = _tracer.merge(tracer.snapshot(), server_trace or {})
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

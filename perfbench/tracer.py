"""Per-layer self-time tracing installed from outside the program.

The benchmark never edits ``src/``: in a traced run it replaces public
entry points of each layer with thin wrappers that record, per layer,
how many calls were made and how much time the layer spent in its own
code (its *self time*: wall time minus the time of wrapped layers it
called).  Spans are kept per thread, so the server's request threads
attribute their own time.  Work inside forked pool workers is not
seen; the parent's wait on them lands in ``engine.measure_self_s``
and the workers' CPU in ``engine.worker_cpu_s``.

Names are patched where they are looked up: ``group_equivalent`` and
``score_candidates`` are imported into ``repro.core.summarize`` by
name, so they are patched in that module (reached through
``sys.modules`` because ``repro.core.summarize`` the attribute is the
function ``summarize``).
"""

from __future__ import annotations

import contextlib
import functools
import resource
import sys
import threading
import time
from collections import defaultdict

#: Engine scoring paths as reported in ``StepRecord.scoring_path``.
SCORING_PATHS = (
    "fast",
    "fast+incremental",
    "sampled",
    "sampled+incremental",
    "naive",
)

#: Kernel backend methods timed under ``kernels.<op>``.
KERNEL_OPS = (
    "scatter_false_sets",
    "group_fold",
    "sparse_scores",
    "weighted_moments",
    "fold_max",
    "fold_sum",
    "fold_and",
    "fold_or",
    "fold_not",
)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Accumulates self time and counts per layer across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (end of set-up)."""
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self):
        """Open a span on this thread; pass the result to :meth:`exit`."""
        stack = self._stack()
        frame = [0.0]  # wall time of wrapped callees
        stack.append(frame)
        return frame, time.perf_counter()

    def exit(self, layer: str, opened) -> None:
        """Close the span ``opened`` and charge its self time to ``layer``."""
        frame, started = opened
        elapsed = time.perf_counter() - started
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        with self._lock:
            self.self_s[layer] += elapsed - frame[0]
            self.total_s[layer] += elapsed
            self.calls[layer] += 1

    @contextlib.contextmanager
    def span(self, layer: str):
        """Time one call of ``layer``; nested spans are subtracted."""
        opened = self.enter()
        try:
            yield
        finally:
            self.exit(layer, opened)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, owner, attribute: str, layer: str, counter=None) -> None:
        """Replace ``owner.attribute`` by a timed wrapper.

        ``counter(args, kwargs, result)`` returns ``{name: amount}``
        added to the counts after each call.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            opened = self.enter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.exit(layer, opened)
            if counter is not None:
                for name, amount in counter(args, kwargs, result).items():
                    self.count(name, amount)
            return result

        setattr(owner, attribute, wrapper)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }


def _words(n_entries: int, n_vals: int) -> int:
    return n_entries * ((n_vals + 63) // 64)


def _kernel_counter(op: str):
    """Counts of 64-bit words an op folds, from its arguments."""

    def words(args, kwargs, result):
        if op in ("fold_max", "fold_sum"):
            return {"kernels.words": _words(len(args[1]), args[2])}
        if op == "group_fold":
            entries = sum(len(group) for group in args[1])
            return {"kernels.words": _words(entries, args[2])}
        if op in ("fold_and", "fold_or"):
            return {"kernels.words": sum(len(row) for row in args[1])}
        if op == "fold_not":
            return {"kernels.words": len(args[1])}
        if op == "scatter_false_sets":
            return {"kernels.words": _words(args[1], args[3])}
        return {}

    return words


def _install_engine(tracer: Tracer) -> None:
    from repro.core import engine as engine_module

    engine_cls = engine_module.ScoringEngine
    # Every fast-path failure passes through _note_fallback, which is
    # what increments ``fallback_count``.
    tracer.wrap(engine_cls, "_note_fallback", "engine.fallback")
    for attribute in ("measure", "measure_lazy"):
        original = getattr(engine_cls, attribute)

        def make(original):
            @functools.wraps(original)
            def measure(self, *args, **kwargs):
                cpu_before = _children_cpu()
                with tracer.span("engine.measure"):
                    result = original(self, *args, **kwargs)
                tracer.count("engine.worker_cpu_s", _children_cpu() - cpu_before)
                return result

            return measure

        setattr(engine_cls, attribute, make(original))
    tracer.wrap(engine_cls, "advance", "engine.advance")


def install(tracer: Tracer) -> None:
    """Wrap every layer the benchmark attributes time to."""
    import repro.core.summarize  # noqa: F401  (loads the module)
    from repro.core import distance, equivalence, kernels, pool
    from repro.datasets import ddp, movielens, wikipedia
    from repro.prox import app, manager, session
    from repro.provenance import ddp_expression, tensor_sum

    summarize_module = sys.modules["repro.core.summarize"]

    for module, name in (
        (movielens, "generate_movielens"),
        (movielens, "generate_movielens_deltas"),
        (wikipedia, "generate_wikipedia"),
        (ddp, "generate_ddp"),
    ):
        tracer.wrap(module, name, "datasets.generate")

    tracer.wrap(summarize_module.Summarizer, "run", "summarize", counter=_step_counts)
    tracer.wrap(summarize_module, "compute_partition", "equivalence")
    tracer.wrap(summarize_module, "group_equivalent", "equivalence")
    tracer.wrap(equivalence.EquivalencePartition, "repair", "equivalence")
    tracer.wrap(
        pool.CandidatePool,
        "candidates",
        "pool",
        counter=lambda args, kwargs, result: {"pool.candidates": len(result)},
    )
    tracer.wrap(pool.CandidatePool, "advance", "pool")
    _install_engine(tracer)
    tracer.wrap(summarize_module, "score_candidates", "scoring.select")

    backend_cls = type(kernels.get_backend())
    for op in KERNEL_OPS:
        tracer.wrap(backend_cls, op, f"kernels.{op}", counter=_kernel_counter(op))

    tracer.wrap(
        distance.DistanceComputer,
        "distance",
        "distance",
        counter=lambda args, kwargs, result: {"distance.calls": 1},
    )
    for attribute in ("exact", "sampled"):
        tracer.wrap(distance.DistanceComputer, attribute, "distance")
    tracer.wrap(tensor_sum.TensorSum, "apply_mapping", "rename")
    tracer.wrap(ddp_expression.DDPExpression, "apply_mapping", "rename")

    _install_server(tracer, app, manager, session)


def _install_server(tracer: Tracer, app, manager, session) -> None:
    original_dispatch = app.ProxApp.dispatch

    @functools.wraps(original_dispatch)
    def dispatch(self, *args, **kwargs):
        started = time.perf_counter()
        with tracer.span("prox.dispatch"):
            status, payload, content_type, headers = original_dispatch(
                self, *args, **kwargs
            )
        # The client subtracts this from its own latency to get the
        # time spent outside dispatch (HTTP, encoding, GIL wait).
        headers = dict(headers or {})
        headers["X-Bench-Dispatch-Ms"] = repr(
            (time.perf_counter() - started) * 1e3
        )
        return status, payload, content_type, headers

    app.ProxApp.dispatch = dispatch

    original_acquire = manager.SessionManager.acquire

    @functools.wraps(original_acquire)
    @contextlib.contextmanager
    def acquire(self, session_id):
        started = time.perf_counter()
        with original_acquire(self, session_id) as entered:
            tracer.count("prox.lock_wait_s", time.perf_counter() - started)
            yield entered

    manager.SessionManager.acquire = acquire
    tracer.wrap(session.ProxSession, "ingest", "prox.ingest")
    tracer.wrap(session.ProxSession, "summarize", "prox.summarize")


def _step_counts(args, kwargs, result) -> dict:
    """Engine counts of one finished ``Summarizer.run()``."""
    counts = defaultdict(int)
    for record in result.steps:
        counts[f"engine.steps.{record.scoring_path}"] += 1
        counts["engine.rescored"] += max(record.n_rescored, 0)
        counts["engine.step_candidates"] += record.n_candidates
    return counts


def layer_metrics(snapshot: dict) -> dict:
    """Flatten a tracer snapshot into ``{metric name: value}``."""
    self_s, total_s = snapshot["self_s"], snapshot["total_s"]
    calls, counts = snapshot["calls"], snapshot["counts"]
    metrics = {
        "datasets.generate_s": self_s.get("datasets.generate", 0.0),
        "summarize.self_s": self_s.get("summarize", 0.0),
        "summarize.total_s": total_s.get("summarize", 0.0),
        "equivalence.self_s": self_s.get("equivalence", 0.0),
        "pool.self_s": self_s.get("pool", 0.0),
        "pool.candidates": counts.get("pool.candidates", 0),
        "engine.measure_self_s": self_s.get("engine.measure", 0.0),
        "engine.worker_cpu_s": counts.get("engine.worker_cpu_s", 0.0),
        "engine.advance_self_s": self_s.get("engine.advance", 0.0),
        "engine.rescored": counts.get("engine.rescored", 0),
        "engine.fallbacks": calls.get("engine.fallback", 0),
        "scoring.select_self_s": self_s.get("scoring.select", 0.0),
        "kernels.words": counts.get("kernels.words", 0),
        "distance.self_s": self_s.get("distance", 0.0),
        "distance.calls": counts.get("distance.calls", 0),
        "rename.self_s": self_s.get("rename", 0.0),
        "prox.dispatch_self_s": self_s.get("prox.dispatch", 0.0),
        "prox.lock_wait_s": counts.get("prox.lock_wait_s", 0.0),
        "prox.ingest_s": total_s.get("prox.ingest", 0.0),
        "prox.summarize_s": total_s.get("prox.summarize", 0.0),
    }
    step_candidates = counts.get("engine.step_candidates", 0)
    metrics["engine.rescored_ratio"] = (
        metrics["engine.rescored"] / step_candidates if step_candidates else 0.0
    )
    for path in SCORING_PATHS:
        metrics[f"engine.steps.{metric_token(path)}"] = counts.get(
            f"engine.steps.{path}", 0
        )
    for op in KERNEL_OPS:
        metrics[f"kernels.{op}.calls"] = calls.get(f"kernels.{op}", 0)
        metrics[f"kernels.{op}.self_s"] = self_s.get(f"kernels.{op}", 0.0)
    return metrics


def merge(first: dict, second: dict) -> dict:
    """Sum two tracer snapshots (client and server side)."""
    merged = {}
    for key in ("self_s", "total_s", "calls", "counts"):
        table = defaultdict(float)
        for source in (first, second):
            for name, value in source.get(key, {}).items():
                table[name] += value
        merged[key] = dict(table)
    return merged


def metric_token(path: str) -> str:
    """A scoring path as a metric-name token (``+`` is not allowed)."""
    return path.replace("+", "_")

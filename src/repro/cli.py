"""Command-line interface: ``repro <command>``.

Commands
--------
``table51``
    Print Table 5.1 (dataset / summarization parameters).
``generate``
    Generate a dataset's provenance expression; optionally save JSON.
``summarize``
    Run Prov-Approx / Clustering / Random on a generated instance and
    report size, distance and the merge log.
``experiment``
    Run one of the Chapter 6 experiments and print its rows.
``prox``
    A scripted tour of the PROX system session.
``ingest``
    Stream provenance deltas into a PROX session: summarize, ingest,
    then *repair* the summary after every delta and time each re-run.

All commands are deterministic given ``--seed``.

Observability: ``summarize --trace FILE`` records the hierarchical
span tree (``summarize > step[k] > score_candidates``) and writes it
as JSON; ``summarize --profile FILE`` runs the stdlib sampling
profiler over the run and writes collapsed stacks + flamegraph JSON
(``REPRO_PROFILE=<hz>`` overrides the sampling rate);
``REPRO_LOG_LEVEL`` / ``REPRO_TRACE`` / ``REPRO_METRICS`` control the
structured-logging/tracing/metrics knobs everywhere, and
``REPRO_KERNEL=auto|python|native`` (or ``summarize --kernel``)
selects the scoring kernel backend.  See docs/OPERATIONS.md for the
full runbook.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .observability import profiling
from .observability import tracing
from .core import kernels as _kernels
from .provenance import ir as _ir

from . import serialization
from .core import (
    ClusteringSummarizer,
    RandomSummarizer,
    SummarizationConfig,
    Summarizer,
)
from .datasets import (
    DDPConfig,
    MovieLensConfig,
    WikipediaConfig,
    format_table_5_1,
    generate_ddp,
    generate_movielens,
    generate_wikipedia,
)
from .experiments import (
    DatasetSpec,
    ddp_spec,
    format_rows,
    movielens_spec,
    steps_experiment,
    target_dist_experiment,
    target_size_experiment,
    timing_experiment,
    usage_time_experiment,
    wdist_experiment,
    wikipedia_spec,
)
from .prox import ProxSession, SummarizationRequest

_GENERATORS = {
    "movielens": lambda seed: generate_movielens(MovieLensConfig(seed=seed)),
    "wikipedia": lambda seed: generate_wikipedia(WikipediaConfig(seed=seed)),
    "ddp": lambda seed: generate_ddp(DDPConfig(seed=seed)),
}

_SPECS = {
    "movielens": movielens_spec,
    "wikipedia": wikipedia_spec,
    "ddp": ddp_spec,
}

_EXPERIMENTS = {
    "wdist": wdist_experiment,
    "target-size": target_size_experiment,
    "target-dist": target_dist_experiment,
    "steps": steps_experiment,
    "usage": usage_time_experiment,
    "timing": timing_experiment,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PROX: approximated summarization of data provenance",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("table51", help="print Table 5.1")

    generate = commands.add_parser("generate", help="generate a provenance instance")
    generate.add_argument("dataset", choices=sorted(_GENERATORS))
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", help="write the expression as JSON to this file")
    generate.add_argument(
        "--show", action="store_true", help="print the full expression"
    )

    summarize = commands.add_parser("summarize", help="summarize an instance")
    summarize.add_argument("dataset", choices=sorted(_GENERATORS))
    summarize.add_argument("--seed", type=int, default=0)
    summarize.add_argument(
        "--algorithm",
        choices=("prov-approx", "clustering", "random"),
        default="prov-approx",
    )
    summarize.add_argument("--wdist", type=float, default=0.5)
    summarize.add_argument("--steps", type=int, default=20)
    summarize.add_argument("--target-size", type=int, default=1)
    summarize.add_argument("--target-dist", type=float, default=1.0)
    summarize.add_argument("--arity", type=int, default=2, help="merge arity (k-way)")
    summarize.add_argument("--save", help="write the summary as JSON to this file")
    summarize.add_argument(
        "--log", action="store_true", help="print the per-step merge log"
    )
    summarize.add_argument(
        "--trace",
        metavar="FILE",
        help="record hierarchical tracing spans and write them as JSON",
    )
    summarize.add_argument(
        "--profile",
        metavar="FILE",
        help="sample-profile the run (collapsed stacks + flamegraph "
        "JSON; REPRO_PROFILE=<hz> overrides the sampling rate)",
    )
    summarize.add_argument(
        "--ir-stats",
        action="store_true",
        help="print interner cardinality and term-arena storage after the run",
    )
    summarize.add_argument(
        "--kernel",
        choices=("auto", "python", "native"),
        default="",
        help="scoring kernel backend (default: REPRO_KERNEL, else auto-"
        "detect; native degrades to python with a warning if unavailable)",
    )

    experiment = commands.add_parser("experiment", help="run a Chapter 6 experiment")
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument("--dataset", choices=sorted(_SPECS), default="movielens")
    experiment.add_argument(
        "--seeds", type=int, nargs="+", default=[11, 23], metavar="SEED"
    )
    experiment.add_argument("--csv", help="also write the rows to this CSV file")

    prox = commands.add_parser("prox", help="scripted PROX session tour")
    prox.add_argument("--seed", type=int, default=7)

    ingest = commands.add_parser(
        "ingest", help="stream provenance deltas and repair the summary"
    )
    ingest.add_argument("--seed", type=int, default=7)
    ingest.add_argument("--users", type=int, default=40)
    ingest.add_argument("--movies", type=int, default=60)
    ingest.add_argument("--deltas", type=int, default=5,
                        help="number of streamed deltas (default: 5)")
    ingest.add_argument("--delta-seed", type=int, default=1)
    ingest.add_argument("--spam-every", type=int, default=0,
                        help="every k-th delta spam-flags a user pair "
                        "(extends cancel-valuations; default: never)")
    ingest.add_argument("--steps", type=int, default=8)
    ingest.add_argument("--from", dest="from_file", metavar="FILE",
                        help="read deltas from a JSON list of delta "
                        "payloads instead of generating them")

    reproduce = commands.add_parser(
        "reproduce", help="regenerate the Chapter 6 evaluation"
    )
    reproduce.add_argument("--out", default="results", help="output directory")
    reproduce.add_argument(
        "--profile", choices=("quick", "full"), default="quick",
        help="quick: bench grids (~3 min); full: thesis grids (much longer)",
    )
    reproduce.add_argument(
        "--figures", nargs="+", metavar="FIG",
        help="restrict to specific figure ids (e.g. fig_6_1a)",
    )

    serve = commands.add_parser("serve", help="run the PROX HTTP server")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="shard sessions across N worker processes (0 = in-process)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=16, metavar="M",
        help="capacity limit; POST /sessions past it returns 429",
    )
    serve.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="where evicted-session snapshots live (default: a tempdir)",
    )
    serve.add_argument(
        "--evict-idle", type=float, default=300.0, metavar="SECONDS",
        help="idle threshold before a session is snapshot-evicted",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "table51": _cmd_table51,
        "generate": _cmd_generate,
        "summarize": _cmd_summarize,
        "experiment": _cmd_experiment,
        "prox": _cmd_prox,
        "ingest": _cmd_ingest,
        "reproduce": _cmd_reproduce,
        "serve": _cmd_serve,
    }[args.command]
    return handler(args)


def _cmd_table51(args: argparse.Namespace) -> int:
    rows = [factory(0).describe_row() for factory in _GENERATORS.values()]
    print(format_table_5_1(rows))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    instance = _GENERATORS[args.dataset](args.seed)
    expression = instance.expression
    print(f"{instance.name} provenance (seed {args.seed}):")
    print(f"  size {expression.size()}, "
          f"{len(expression.annotation_names())} annotations, "
          f"valuation class {instance.valuations.name} ({len(instance.valuations)})")
    if args.show:
        print(expression)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            serialization.dump(serialization.expression_to_dict(expression), handle)
        print(f"  expression written to {args.out}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    if args.kernel:
        _kernels.set_backend(args.kernel)
    if args.trace:
        tracing.set_enabled(True)
        tracing.take_trace()  # drop any stale tree from this thread
    profiler: Optional[profiling.Profiler] = None
    if args.profile:
        profiler = profiling.Profiler(
            hz=profiling.configured_hz() or profiling.DEFAULT_HZ
        )
        profiler.start()
    instance = _GENERATORS[args.dataset](args.seed)
    config = SummarizationConfig(
        w_dist=args.wdist,
        target_size=args.target_size,
        target_dist=args.target_dist,
        max_steps=args.steps,
        merge_arity=args.arity,
        seed=args.seed,
    )
    problem = instance.problem()
    if args.algorithm == "prov-approx":
        result = Summarizer(problem, config).run()
    elif args.algorithm == "random":
        result = RandomSummarizer(problem, config).run()
    else:
        if not instance.cluster_specs:
            if profiler is not None:
                profiler.stop()
            print(
                f"error: the clustering baseline is undefined for "
                f"{args.dataset} (no feature vectors, §6.1)",
                file=sys.stderr,
            )
            return 2
        result = ClusteringSummarizer(problem, config, instance.cluster_specs).run()
    if profiler is not None:
        profiler.stop()

    print(f"{args.algorithm} on {instance.name} (seed {args.seed}):")
    print(f"  size {result.original_size} -> {result.final_size}")
    print(f"  distance {result.final_distance.normalized:.4f} "
          f"({'exact' if result.final_distance.exact else 'sampled'})")
    print(f"  {result.n_steps} steps"
          f" (+{result.equivalence_merges} equivalence merges),"
          f" stop: {result.stop_reason},"
          f" {result.total_seconds:.2f}s")
    paths: dict = {}
    for record in result.steps:
        if record.scoring_path:
            paths[record.scoring_path] = paths.get(record.scoring_path, 0) + 1
    if paths:
        rendered = ", ".join(
            f"{path}×{count}" for path, count in sorted(paths.items())
        )
        print(f"  scoring paths: {rendered}")
    rescored = sum(r.n_rescored for r in result.steps if r.n_rescored >= 0)
    measured = sum(
        r.n_candidates for r in result.steps if r.n_rescored >= 0
    )
    if measured:
        print(
            f"  candidate carry: {measured - rescored}/{measured} "
            f"measurements carried across steps"
        )
    if args.log:
        for record in result.steps:
            distance = (
                f"{record.distance_after.normalized:.4f}"
                if record.distance_after is not None
                else "-"
            )
            timing = (
                f", {record.step_seconds * 1e3:.1f}ms"
                f" [{record.scoring_path}]" if record.scoring_path else ""
            )
            print(f"    step {record.step}: {{{', '.join(record.merged)}}} -> "
                  f"{record.label} (size {record.size_after}, "
                  f"distance {distance}{timing})")
    if args.ir_stats:
        arena = _ir.GLOBAL_STORE.stats()
        print(f"  ir: {len(problem.resolve_interner())} interned annotations, "
              f"{arena['monomials']} arena monomials, "
              f"{arena['arena_bytes']} arena bytes")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            serialization.dump(serialization.summary_to_dict(result), handle)
        print(f"  summary written to {args.save}")
    if args.trace:
        trace = tracing.take_trace()
        payload = trace.to_dict() if trace is not None else {}
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)
            handle.write("\n")
        print(f"  trace written to {args.trace}")
    if profiler is not None:
        snapshot = profiler.snapshot()
        with open(args.profile, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, default=str)
            handle.write("\n")
        print(
            f"  profile written to {args.profile} "
            f"({snapshot['samples']} samples at {snapshot['hz']:g} Hz)"
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec: DatasetSpec = _SPECS[args.dataset]()
    runner = _EXPERIMENTS[args.name]
    rows = runner(spec, seeds=tuple(args.seeds))
    print(format_rows(rows))
    if args.csv:
        from .experiments import write_csv

        write_csv(rows, args.csv)
        print(f"rows written to {args.csv}")
    return 0


def _cmd_prox(args: argparse.Namespace) -> int:
    session = ProxSession(seed=args.seed)
    titles = session.titles()
    print(f"PROX session over {len(titles)} movies; selecting the first 4.")
    size = session.select_titles(titles[:4])
    print(f"selected provenance size: {size}")
    result = session.summarize(
        SummarizationRequest(distance_weight=0.7, number_of_steps=6)
    )
    print(f"summary: size {result.final_size}, "
          f"distance {result.final_distance.normalized:.4f}")
    print(session.expression_view())
    original, summary = session.evaluate(false_attributes={"gender": "M"})
    print(f"provisioning 'cancel all Male users':")
    print(f"  original: {dict(original.rows())} ({original.evaluation_time_ns} ns)")
    print(f"  summary : {dict(summary.rows())} ({summary.evaluation_time_ns} ns)")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import time

    from .datasets.movielens import (
        MovieLensDeltaConfig,
        generate_movielens_deltas,
    )

    instance = generate_movielens(
        MovieLensConfig(n_users=args.users, n_movies=args.movies, seed=args.seed)
    )
    session = ProxSession(instance)
    session.select_titles(session.titles())
    request = SummarizationRequest(number_of_steps=args.steps)
    if args.from_file:
        with open(args.from_file, "r", encoding="utf-8") as handle:
            payloads = json.load(handle)
        deltas = [
            serialization.delta_from_dict({"kind": "delta", **payload})
            for payload in payloads
        ]
    else:
        deltas = generate_movielens_deltas(
            instance,
            MovieLensDeltaConfig(
                n_deltas=args.deltas,
                seed=args.delta_seed,
                spam_flag_every=args.spam_every,
            ),
        )

    result = session.summarize(request)
    print(f"initial summary: size {result.original_size} -> {result.final_size}, "
          f"{result.n_steps} steps")
    repair_seconds = 0.0
    for index, delta in enumerate(deltas, start=1):
        stats = session.ingest(delta)
        started = time.perf_counter()
        result = session.summarize(request)
        elapsed = time.perf_counter() - started
        repair_seconds += elapsed
        print(f"delta {index}: {delta.describe()} -> "
              f"selected size {stats['selected_size']}; "
              f"{'repaired' if result.repaired else 'recomputed'} summary "
              f"size {result.final_size} "
              f"(invalidated {result.repair_invalidated}, "
              f"{elapsed * 1e3:.1f}ms)")
    print(f"ingested {session.ingested_deltas} deltas; "
          f"final summary size {result.final_size}, "
          f"distance {result.final_distance.normalized:.4f}; "
          f"re-summarization total {repair_seconds * 1e3:.1f}ms")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments import reproduce_all

    reproduce_all(args.out, profile=args.profile, figures=args.figures)
    print(f"results written to {args.out}/")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:  # pragma: no cover - interactive
    import signal
    import threading

    from .prox.manager import SessionManager
    from .prox.server import ProxServer

    if args.workers > 0:
        # Sharded: fork the workers before building any session so each
        # worker's arena is pristine and snapshot restores are zero-copy.
        from .prox.workers import WorkerFront

        front = WorkerFront(
            n_workers=args.workers,
            max_sessions=args.max_sessions,
            snapshot_dir=args.snapshot_dir,
            evict_idle_seconds=args.evict_idle,
        )
        front.start()
        server = ProxServer(backend=front, host=args.host, port=args.port)
    else:
        manager = SessionManager(
            factory=lambda sid: ProxSession(seed=args.seed, session_id=sid),
            max_sessions=args.max_sessions,
            snapshot_dir=args.snapshot_dir,
            evict_idle_seconds=args.evict_idle,
        )
        manager.adopt(ProxSession(seed=args.seed))
        manager.start_eviction_loop()
        server = ProxServer(
            session=None, host=args.host, port=args.port, manager=manager
        )
        # Single-session back-compat: unscoped routes hit the default.
        server.app.default_session_id = manager.session_ids()[0]
    host, port = server.address
    mode = f"{args.workers} workers" if args.workers > 0 else "in-process"
    print(f"PROX HTTP API on http://{host}:{port} ({mode}; "
          f"max {args.max_sessions} sessions; Ctrl-C or SIGTERM to drain)")
    print(f"  liveness: http://{host}:{port}/healthz")
    print(f"  metrics:  http://{host}:{port}/metrics (Prometheus text format)")
    server.start()

    # Graceful shutdown: first SIGTERM/SIGINT drains in-flight requests
    # and snapshots live sessions, then the process exits 0.
    shutdown = threading.Event()

    def _on_signal(signum, frame):
        shutdown.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    shutdown.wait()
    print("draining: waiting for in-flight requests, snapshotting sessions")
    try:
        drained = server.drain()
        snapshotted = drained.get("sessions")
        if snapshotted:
            print(f"drained: {snapshotted}")
    finally:
        if args.workers == 0:
            manager.stop_eviction_loop()
        server.stop()
    print("shutdown complete")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

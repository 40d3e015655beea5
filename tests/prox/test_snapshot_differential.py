"""Snapshot/restore differentials: evicted ≡ never-evicted, bit-exact.

The acceptance bar for the serving tier: a session snapshotted,
evicted and restored (in a fresh process or in a warm one) must produce *bit-identical* ``/summarize`` results to a session
that was never evicted -- same sizes, same distances, same merge
sequence -- across greedy/beam × full-rank/lazy × sampled scoring paths,
each on its expected scoring path with zero fast-path fallbacks.
Soundness rests on PR 3 (results independent of monomial-id layout)
and PR 6 (repaired ≡ from-scratch), so dropping repair state and
re-interning on restore cannot shift anything.

Plus the golden format tests: a restored session re-snapshots
byte-identically, and a snapshot that still carries the monomial-arena
block older releases wrote restores to the same summary.
"""

import contextlib
import dataclasses
import json
import os
import struct
import subprocess
import sys
from array import array

import pytest

from repro import serialization
from repro.core.beam import BeamSummarizer
from repro.core.summarize import Summarizer
from repro.datasets import (
    MovieLensConfig,
    MovieLensDeltaConfig,
    generate_movielens,
    generate_movielens_deltas,
)
from repro.prox import ProxSession, SessionManager
from repro.prox.summarization import SummarizationRequest

CONFIG = MovieLensConfig(n_users=10, n_movies=8, include_movie_merges=True, seed=5)

#: The scoring-path grid of the acceptance criterion.  Greedy via the
#: session API (baseline: full ranking, forced by the ``full_rank``
#: fixture; carry-lazy: the default lazy-greedy selection); the sampled
#: row and the beam axis run over the session's own problem
#: (build_problem).  Each entry is ``(request, full_rank, sampled)``.
REQUESTS = [
    pytest.param(
        SummarizationRequest(number_of_steps=4),
        True,
        False,
        id="greedy-baseline",
    ),
    pytest.param(
        SummarizationRequest(number_of_steps=4),
        False,
        False,
        id="greedy-carry-lazy",
    ),
    pytest.param(
        SummarizationRequest(number_of_steps=4),
        False,
        True,
        id="greedy-sampled",
    ),
]


def build_session(session_id=None):
    instance = generate_movielens(CONFIG)
    session = ProxSession(instance, session_id=session_id)
    session.select_by(genre=None)
    for delta in generate_movielens_deltas(
        instance, MovieLensDeltaConfig(n_deltas=2, seed=9)
    ):
        session.ingest(delta)
    return session


def summarize_sampled(session, request_):
    """Greedy over the session's problem with no class small enough to
    enumerate (``max_enumerate=0``): every step takes the sampled path.
    The request form has no such field, so this builds the problem
    through the session's service and runs the summarizer directly."""
    problem = session.summarization.build_problem(session.selected, request_)
    config = dataclasses.replace(request_.to_config(seed=13), max_enumerate=0)
    return Summarizer(problem, config).run()


def fingerprint(result):
    """Everything the acceptance criterion compares, bit-exact."""
    return {
        "size": result.final_size,
        "distance": repr(result.final_distance),
        "expression": str(result.summary_expression),
        "merges": [
            (record.step, tuple(record.merged), record.label, record.size_after)
            for record in result.steps
        ],
        "stop": result.stop_reason,
        "paths": sorted({record.scoring_path for record in result.steps}),
        "fallbacks": result.scoring_fallbacks,
    }


def assert_clean(fingerprint_, sampled=False):
    assert fingerprint_["merges"]
    path = "sampled+incremental" if sampled else "fast+incremental"
    assert fingerprint_["paths"] == [path]
    assert fingerprint_["fallbacks"] == 0


def summarize_row(session, request_, sampled):
    """One grid row's summarize on ``session``."""
    if sampled:
        return summarize_sampled(session, request_)
    return session.summarize(request_, seed=13)


@pytest.mark.parametrize("request_, ranked, sampled", REQUESTS)
def test_evicted_session_summarizes_bit_identically(
    request_, ranked, sampled, tmp_path, full_rank
):
    """In-process eviction (warm store: replay path) changes nothing."""
    with full_rank() if ranked else contextlib.nullcontext():
        _evict_and_compare(request_, sampled, tmp_path)


def _evict_and_compare(request_, sampled, tmp_path):
    control = build_session()
    expected = fingerprint(summarize_row(control, request_, sampled))
    assert_clean(expected, sampled)

    manager = SessionManager(
        factory=lambda sid: build_session(sid),
        max_sessions=2,
        snapshot_dir=str(tmp_path),
    )
    try:
        subject = manager.create()
        session_id = subject.session_id
        assert manager.evict(session_id)
        with manager.acquire(session_id) as restored:
            actual = fingerprint(summarize_row(restored, request_, sampled))
        assert actual == expected
    finally:
        manager.close_all()
        control.close()


def test_beam_summarizes_bit_identically_after_restore(tmp_path):
    """The beam axis: same problem, same beam trajectory after restore."""
    request_ = SummarizationRequest(number_of_steps=4)
    control = build_session()
    baseline = BeamSummarizer(
        control.summarization.build_problem(control.selected, request_),
        request_.to_config(seed=13),
        beam_width=2,
    ).run()
    expected = fingerprint(baseline)
    assert_clean(expected)

    path = str(tmp_path / "beam.snap")
    control.snapshot(path)
    control.close()
    restored = ProxSession.restore(path)
    try:
        result = BeamSummarizer(
            restored.summarization.build_problem(restored.selected, request_),
            request_.to_config(seed=13),
            beam_width=2,
        ).run()
        assert fingerprint(result) == expected
    finally:
        restored.close()


#: Child-process preamble: a ``full_rank`` run forces the full
#: measure-and-rank path, as the ``full_rank`` fixture does in-process.
_CHILD_SELECTION = """
if {full_rank!r}:
    from repro.core import ScoringEngine
    ScoringEngine.lazy = property(lambda self: False)
"""

_CHILD_BUILD = """
import json, sys
sys.path.insert(0, {src!r})
from tests.prox.test_snapshot_differential import (
    build_session, fingerprint, summarize_row,
)
from repro.prox.summarization import SummarizationRequest
""" + _CHILD_SELECTION + """
session = build_session()
request = SummarizationRequest(**json.loads(sys.argv[2]))
result = summarize_row(session, request, {sampled!r})
session.snapshot(sys.argv[1])
print(json.dumps({{"fingerprint": fingerprint(result)}}))
"""

_CHILD_RESTORE = """
import json, sys
sys.path.insert(0, {src!r})
from tests.prox.test_snapshot_differential import fingerprint, summarize_sampled
from repro.prox import ProxSession
from repro.prox.summarization import SummarizationRequest
""" + _CHILD_SELECTION + """
session = ProxSession.restore(sys.argv[1])
if {sampled!r}:
    request = SummarizationRequest(**json.loads(sys.argv[2]))
    result = summarize_sampled(session, request)
else:
    result = session._require_result()   # lazy re-summarize after rehydrate
print(json.dumps({{"fingerprint": fingerprint(result)}}))
"""


def _child(code, *argv, full_rank=False, sampled=False, env=None):
    """Run ``code`` in a fresh interpreter; returns the completed run."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env = dict(
        os.environ if env is None else env,
        PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), root, os.environ.get("PYTHONPATH", "")]
        ),
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            code.format(src=root, full_rank=full_rank, sampled=sampled),
            *argv,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed


def _run_child(code, *argv, full_rank=False, sampled=False):
    return json.loads(
        _child(code, *argv, full_rank=full_rank, sampled=sampled).stdout
    )


@pytest.mark.parametrize(
    "request_, ranked, sampled",
    [
        pytest.param({"number_of_steps": 4}, True, False, id="baseline"),
        pytest.param({"number_of_steps": 4}, False, False, id="carry-lazy"),
        pytest.param({"number_of_steps": 4}, False, True, id="sampled"),
    ],
)
def test_cross_process_zero_copy_restore_is_bit_identical(
    request_, ranked, sampled, tmp_path
):
    """A fresh process restores the snapshot and recomputes the exact
    same summary the original process produced.  The
    baseline runs both processes under the full measure-and-rank
    path; the sampled row reruns the sampled problem on both sides."""
    path = str(tmp_path / "session.snap")
    original = _run_child(
        _CHILD_BUILD, path, json.dumps(request_), full_rank=ranked, sampled=sampled
    )
    assert_clean(original["fingerprint"], sampled)
    restored = _run_child(
        _CHILD_RESTORE, path, json.dumps(request_), full_rank=ranked, sampled=sampled
    )
    assert restored["fingerprint"] == original["fingerprint"]


def test_session_snapshot_restore_resnapshot_is_byte_identical(tmp_path):
    """A restored-but-untouched session re-snapshots to the same bytes
    in a fresh process."""
    first = str(tmp_path / "first.snap")
    second = str(tmp_path / "second.snap")
    _run_child(_CHILD_BUILD, first, json.dumps({"number_of_steps": 3}))
    code = """
import sys
sys.path.insert(0, {src!r})
from repro.prox import ProxSession

session = ProxSession.restore(sys.argv[1])
session.snapshot(sys.argv[2])
print('{{}}')
"""
    _run_child(code, first, second)
    with open(first, "rb") as a, open(second, "rb") as b:
        assert a.read() == b.read()


def test_restore_drops_removed_engine_knobs(tmp_path):
    """A snapshot written while ``lazy``/``parallelism``/``incremental``
    /``carry``/``sample_block``/``sample_sharing``/``repair`` still
    existed records them in its last summarize request; restoring it
    must re-summarize identically instead of failing on the removed
    knobs."""
    request_ = SummarizationRequest(number_of_steps=3)
    control = build_session()
    expected = fingerprint(control.summarize(request_, seed=13))
    recorded, seed = control._last_summarize
    control._last_summarize = (
        {
            **recorded,
            "lazy": True,
            "parallelism": 2,
            "parallel_threshold": 1,
            "incremental": "off",
            "carry": "off",
            "sample_block": 64,
            "sample_sharing": "on",
            "repair": "off",
        },
        seed,
    )
    path = str(tmp_path / "old.snap")
    control.snapshot(path)
    control.close()
    restored = ProxSession.restore(path)
    try:
        assert fingerprint(restored._require_result()) == expected
    finally:
        restored.close()


def _legacy_arena_block():
    """A monomial-arena block in the layout older releases appended to
    every session snapshot: magic, ``<QQQQQ>`` names_len / n_pairs /
    n_bounds / n_sizes / flags, the NUL-separated name block padded to
    8, then the native-order int64 pair, bounds and sizes columns.
    This one holds the monomials ``u1·m1`` and ``u2²`` after the empty
    monomial 0, with annotation ids u1 = 0, m1 = 1, u2 = 2."""
    names = b"u1\x00m1\x00u2"
    columns = [
        # (annotation id, exponent) pairs, sorted by id per monomial.
        array("q", [0, 1, 1, 1, 2, 2]),
        # Monomial m owns pairs[bounds[m]:bounds[m + 1]].
        array("q", [0, 0, 4, 6]),
        # Total degree per monomial.
        array("q", [0, 2, 2]),
    ]
    return b"".join(
        [
            b"PROXAR03",
            struct.pack("<QQQQQ", len(names), *map(len, columns), 1),
            names + b"\x00" * (-len(names) % 8),
            *(column.tobytes() for column in columns),
        ]
    )


def test_arena_less_session_snapshot_restores_identically(tmp_path):
    """Snapshots carry no name table and no monomial arena (``names_len``
    and ``arena_len`` are 0).  One written by an older release carries
    its session's annotation names and an arena block after the meta
    block; both are skipped, and the file restores -- in a fresh process
    and in this warm one -- to the summary the original session made."""
    path = str(tmp_path / "session.snap")
    original = _run_child(_CHILD_BUILD, path, json.dumps({"number_of_steps": 4}))
    assert_clean(original["fingerprint"])
    with open(path, "rb") as handle:
        blob = handle.read()
    meta_len, names_len, arena_len = struct.unpack_from("<QQQ", blob, 8)
    assert names_len == arena_len == 0
    meta = serialization.load_session_snapshot(path)

    # An older name block: the session's annotation names, NUL-separated.
    names_blob = "u1\x00m1\x00u2\x00Gender=F#1".encode("utf-8")
    arena = _legacy_arena_block()
    legacy = str(tmp_path / "legacy.snap")
    with open(legacy, "wb") as handle:
        handle.write(
            blob[:8]
            + struct.pack("<QQQ", meta_len, len(names_blob), len(arena))
            + blob[32:]
            + names_blob
            + b"\x00" * (-len(names_blob) % 8)
            + arena
        )
    assert serialization.load_session_snapshot(legacy) == meta

    restored = _run_child(_CHILD_RESTORE, legacy)
    assert restored["fingerprint"] == original["fingerprint"]
    session = ProxSession.restore(legacy)
    try:
        warm = json.loads(json.dumps(fingerprint(session._require_result())))
    finally:
        session.close()
    assert warm == original["fingerprint"]


def test_repro_ir_setting_logs_ir_mode_removed(tmp_path):
    """The string-keyed representation is gone: a leftover ``REPRO_IR``
    setting logs one ``ir_mode_removed`` warning and the run produces
    the default run's fingerprint."""
    env = {key: value for key, value in os.environ.items() if key != "REPRO_IR"}
    request_ = json.dumps({"number_of_steps": 4})
    default = _child(_CHILD_BUILD, str(tmp_path / "default.snap"), request_, env=env)
    legacy = _child(
        _CHILD_BUILD,
        str(tmp_path / "legacy.snap"),
        request_,
        env=dict(env, REPRO_IR="legacy"),
    )
    assert "ir_mode_removed" not in default.stderr
    warnings = [
        line for line in legacy.stderr.splitlines() if "ir_mode_removed" in line
    ]
    assert len(warnings) == 1
    assert "requested=legacy resolution=ir" in warnings[0]
    assert json.loads(legacy.stdout) == json.loads(default.stdout)

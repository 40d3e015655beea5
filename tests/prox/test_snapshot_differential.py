"""Snapshot/restore differentials: evicted ≡ never-evicted, bit-exact.

The acceptance bar for the serving tier: a session snapshotted,
evicted and restored (zero-copy in a fresh process, replay in a warm
one) must produce *bit-identical* ``/summarize`` results to a session
that was never evicted -- same sizes, same distances, same merge
sequence -- across greedy/beam × full-rank/lazy × sampled scoring paths,
each on its expected scoring path with zero fast-path fallbacks.
Soundness rests on PR 3 (results independent of monomial-id layout)
and PR 6 (repaired ≡ from-scratch), so dropping repair state and
re-interning on restore cannot shift anything.

Plus the golden format test: arena snapshot → mmap-load → snapshot is
byte-identical, and likewise for a whole restored session.
"""

import contextlib
import json
import os
import subprocess
import sys

import pytest

from repro import serialization
from repro.core.beam import BeamSummarizer
from repro.datasets import (
    MovieLensConfig,
    MovieLensDeltaConfig,
    generate_movielens,
    generate_movielens_deltas,
)
from repro.provenance import ir as _ir
from repro.prox import ProxSession, SessionManager
from repro.prox.summarization import SummarizationRequest

CONFIG = MovieLensConfig(n_users=10, n_movies=8, include_movie_merges=True, seed=5)

#: The scoring-path grid of the acceptance criterion.  Greedy via the
#: session API (baseline: full ranking, forced by the ``full_rank``
#: fixture; carry-lazy: the default lazy-greedy selection); the beam
#: axis runs BeamSummarizer over the session's own problem
#: (build_problem).  Each entry is ``(request, full_rank)``.
REQUESTS = [
    pytest.param(
        SummarizationRequest(number_of_steps=4),
        True,
        id="greedy-baseline",
    ),
    pytest.param(
        SummarizationRequest(number_of_steps=4),
        False,
        id="greedy-carry-lazy",
    ),
    # The shared-batch sampled path is the default (its switch is
    # gone); at this class size the step still enumerates, so this row
    # runs the carry-lazy request under its old id.
    pytest.param(
        SummarizationRequest(number_of_steps=4),
        False,
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


def assert_clean(fingerprint_):
    assert fingerprint_["paths"] == ["fast+incremental"]
    assert fingerprint_["fallbacks"] == 0


@pytest.mark.parametrize("request_, ranked", REQUESTS)
def test_evicted_session_summarizes_bit_identically(
    request_, ranked, tmp_path, full_rank
):
    """In-process eviction (warm store: replay path) changes nothing."""
    with full_rank() if ranked else contextlib.nullcontext():
        _evict_and_compare(request_, tmp_path)


def _evict_and_compare(request_, tmp_path):
    control = build_session()
    expected = fingerprint(control.summarize(request_, seed=13))
    assert_clean(expected)

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
            actual = fingerprint(restored.summarize(request_, seed=13))
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
from tests.prox.test_snapshot_differential import build_session, fingerprint
from repro.prox.summarization import SummarizationRequest
""" + _CHILD_SELECTION + """
session = build_session()
result = session.summarize(
    SummarizationRequest(**json.loads(sys.argv[2])), seed=13
)
session.snapshot(sys.argv[1])
print(json.dumps({{"fingerprint": fingerprint(result)}}))
"""

_CHILD_RESTORE = """
import json, sys
sys.path.insert(0, {src!r})
from tests.prox.test_snapshot_differential import fingerprint
from repro.provenance import ir
from repro.prox import ProxSession
""" + _CHILD_SELECTION + """
session = ProxSession.restore(sys.argv[1])
result = session._require_result()   # lazy re-summarize after rehydrate
print(json.dumps({{
    "fingerprint": fingerprint(result),
    "zero_copy": ir.GLOBAL_STORE.restored(),
}}))
"""


def _child(code, *argv, full_rank=False, env=None):
    """Run ``code`` in a fresh interpreter; returns the completed run."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env = dict(
        os.environ if env is None else env,
        PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), root, os.environ.get("PYTHONPATH", "")]
        ),
    )
    completed = subprocess.run(
        [sys.executable, "-c", code.format(src=root, full_rank=full_rank), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed


def _run_child(code, *argv, full_rank=False):
    return json.loads(_child(code, *argv, full_rank=full_rank).stdout)


@pytest.mark.parametrize(
    "request_, ranked",
    [
        pytest.param({"number_of_steps": 4}, True, id="baseline"),
        pytest.param({"number_of_steps": 4}, False, id="carry-lazy"),
        pytest.param({"number_of_steps": 4}, False, id="sampled"),
    ],
)
def test_cross_process_zero_copy_restore_is_bit_identical(
    request_, ranked, tmp_path
):
    """A fresh process mmap-loads the snapshot zero-copy and recomputes
    the exact same summary the original process produced.  The
    baseline runs both processes under the full measure-and-rank
    path."""
    path = str(tmp_path / "session.snap")
    original = _run_child(
        _CHILD_BUILD, path, json.dumps(request_), full_rank=ranked
    )
    assert_clean(original["fingerprint"])
    restored = _run_child(_CHILD_RESTORE, path, full_rank=ranked)
    assert restored["zero_copy"], "expected the zero-copy install path"
    assert restored["fingerprint"] == original["fingerprint"]


def test_arena_snapshot_roundtrip_is_byte_identical(tmp_path):
    """Golden: snapshot → mmap-load → snapshot reproduces every byte."""
    session = build_session()
    try:
        session.summarize(SummarizationRequest(number_of_steps=3))
        blob = serialization.arena_snapshot_bytes(_ir.GLOBAL_STORE)
        path = str(tmp_path / "arena.bin")
        serialization.write_arena_snapshot(_ir.GLOBAL_STORE, path)
        with open(path, "rb") as handle:
            assert handle.read() == blob
        loaded = serialization.load_arena_snapshot(path)
        assert loaded.restored()
        assert serialization.arena_snapshot_bytes(loaded) == blob
        assert loaded.n_monomials() == _ir.GLOBAL_STORE.n_monomials()
    finally:
        session.close()


def test_session_snapshot_restore_resnapshot_is_byte_identical(tmp_path):
    """A restored-but-untouched session re-snapshots to the same bytes
    (fresh process: restore is zero-copy, so no arena drift)."""
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


def test_arena_less_session_snapshot_restores_identically(tmp_path):
    """Older releases could write session snapshots without an interner
    or arena block (``write_session_snapshot(path, meta)``).  Such a
    file still loads, and restores by event replay -- in a fresh process
    and in this warm one -- to the summary the original session made."""
    path = str(tmp_path / "session.snap")
    original = _run_child(_CHILD_BUILD, path, json.dumps({"number_of_steps": 4}))
    assert_clean(original["fingerprint"])
    meta, names_blob, store = serialization.load_session_snapshot(path)
    assert names_blob and store is not None
    arena_less = str(tmp_path / "arena-less.snap")
    serialization.write_session_snapshot(arena_less, meta)
    meta_again, names_again, store_again = serialization.load_session_snapshot(
        arena_less
    )
    assert (meta_again, names_again, store_again) == (meta, b"", None)

    restored = _run_child(_CHILD_RESTORE, arena_less)
    assert not restored["zero_copy"]
    assert restored["fingerprint"] == original["fingerprint"]
    session = ProxSession.restore(arena_less)
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

"""The kernel contract's bit-identity, property-checked.

Every op the native backend overrides must equal the pure-python
reference backend *exactly* -- same floats (``==``, not ``approx``),
same ints, same words -- on arbitrary inputs, including ragged tail
blocks where ``n_vals`` is not a multiple of 64.  Ops the native
backend inherits run the reference code itself and are not compared.
Plus the resolution layer: env-token mapping, graceful degrade, the
context manager, and the info gauge.
"""

import logging
import math
import os
import subprocess
import sys
from array import array
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.kernels import PythonKernel, SPARSE_KINDS
from repro.core.kernels.masktable import int_to_row
from repro.core.kernels.reference import SPARSE_FORMS
from repro.core.val_funcs import (
    AbsoluteDifference,
    Disagreement,
    EuclideanDistance,
)
from repro.provenance.monoids import SumMonoid
from repro.observability import metrics as _metrics

REFERENCE = PythonKernel()
SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

try:
    from repro.core.kernels.native_backend import NativeKernel

    NATIVE = NativeKernel()
except Exception:  # pragma: no cover - no toolchain in this env
    NATIVE = None

needs_native = pytest.mark.skipif(
    NATIVE is None, reason="native backend unavailable"
)

#: A backend token that no longer names a backend: it resolves as
#: ``auto`` does, to native or (without a toolchain) the reference.
#: Only the two row-index guard tests still keep a row for it; those
#: rows are slated for deletion (ROADMAP item 5).
REMOVED = "numpy"
AUTO = kernels.MODE_NATIVE if NATIVE is not None else kernels.MODE_PYTHON

#: The backend checked against the reference, as a pytest axis that
#: skips cleanly when native cannot exist in this environment.
BACKENDS = [pytest.param("native", marks=needs_native)]


def backend_of(name):
    if name == REMOVED:
        with kernels.backend(name):
            return kernels.get_backend()
    return REFERENCE if name == "python" else NATIVE


# Finite doubles whose products/sums stay finite across a dozen terms.
values = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
positive_weights = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def scatter_cases(draw):
    n_rows = draw(st.integers(min_value=0, max_value=12))
    n_vals = draw(st.integers(min_value=1, max_value=200))
    n_entries = draw(st.integers(min_value=0, max_value=10))
    entries = []
    for _ in range(n_entries):
        rows = draw(
            st.lists(
                st.integers(0, n_rows - 1), min_size=0, max_size=5
            )
            if n_rows
            else st.just([])
        )
        positions = draw(
            st.lists(st.integers(0, n_vals - 1), min_size=0, max_size=6)
        )
        entries.append((rows, positions))
    return n_rows, n_vals, entries


@st.composite
def sparse_cases(draw):
    n_vals = draw(st.integers(min_value=0, max_value=80))
    column = st.lists(values, min_size=n_vals, max_size=n_vals)
    base = draw(column)
    minus = [draw(column) for _ in range(draw(st.integers(0, 3)))]
    contribs = [
        (draw(column), draw(column))
        for _ in range(draw(st.integers(0, 3)))
    ]
    weights = draw(
        st.lists(positive_weights, min_size=n_vals, max_size=n_vals)
    )
    kind = draw(st.sampled_from(sorted(SPARSE_KINDS)))
    return base, minus, contribs, weights, kind


def packed(rows, n_vals):
    """Rows back to back in one ``array('Q')`` table."""
    table = array("Q")
    for row in rows:
        table.extend(row)
    return table


@st.composite
def indexed_fold_cases(draw):
    """Groups naming rows of a base table and an override table.

    Indexes repeat within and across groups, override rows (indexes
    from ``n_base`` up) mix with base rows, and MAX groups list their
    operands in descending value order, as the scorers do.
    """
    n_vals = draw(st.integers(min_value=1, max_value=200))
    word_row = st.integers(0, (1 << n_vals) - 1).map(
        lambda bits: int_to_row(bits, n_vals)
    )
    base = draw(st.lists(word_row, min_size=0, max_size=6))
    overrides = draw(st.lists(word_row, min_size=0, max_size=3))
    rows = base + overrides
    is_max = draw(st.booleans())
    groups = []
    if rows:
        for _ in range(draw(st.integers(0, 4))):
            operands = draw(
                st.lists(
                    st.tuples(values, st.integers(0, len(rows) - 1)),
                    max_size=8,
                )
            )
            if is_max:
                operands.sort(key=lambda operand: -operand[0])
            groups.append(operands)
    wanted = draw(st.one_of(st.none(), word_row))
    return n_vals, base, overrides, is_max, groups, wanted


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(case=indexed_fold_cases(), with_overrides=st.booleans())
def test_group_fold_matches_standalone_folds(name, case, with_overrides):
    n_vals, base, overrides, is_max, groups, wanted = case
    if not with_overrides:
        # Without an override table only base indexes are valid.
        groups = [
            [(value, index) for value, index in group if index < len(base)]
            for group in groups
        ]
        overrides = []
    rows = base + overrides
    indexes = [array("q", [index for _, index in group]) for group in groups]
    columns = [array("d", [value for value, _ in group]) for group in groups]
    batched = backend_of(name).group_fold(
        indexes,
        n_vals,
        is_max,
        columns,
        packed(base, n_vals),
        packed(overrides, n_vals) if with_overrides else None,
        wanted,
    )
    fold = REFERENCE.fold_max if is_max else REFERENCE.fold_sum
    # Each column equals the standalone fold over the gathered rows;
    # columns may come back as array('d'), so compare values exactly.
    assert [list(col) for col in batched] == [
        fold([(value, rows[index]) for value, index in group], n_vals, wanted)
        for group in groups
    ]


@pytest.mark.parametrize("name", [REMOVED] + BACKENDS)
def test_group_fold_memo_keyed_by_n_vals(name):
    # One backend instance serves every scorer in the process.  A
    # one-word dead row has identical *bytes* at n_vals=7 and
    # n_vals=21; a fold must read it at the n_vals of its own call.
    backend = backend_of(name)
    row = array("Q", [0b1010101])
    masks = [(2.5, row)]
    for n_vals in (7, 21, 7):
        for is_max in (True, False):
            batched = backend.group_fold(
                [array("q", [0])], n_vals, is_max, [array("d", [2.5])], row
            )
            fold = REFERENCE.fold_max if is_max else REFERENCE.fold_sum
            assert [list(col) for col in batched] == [
                fold(masks, n_vals)
            ]


@pytest.mark.parametrize("name", [REMOVED] + BACKENDS + ["python"])
def test_group_fold_rejects_rows_outside_the_tables(name):
    backend = backend_of(name)
    table = array("Q", [1, 2])
    for index in (2, -1):
        with pytest.raises(IndexError):
            backend.group_fold(
                [array("q", [0, index])],
                64,
                True,
                [array("d", [2.0, 1.0])],
                table,
            )
    # One override row makes index 2 valid.
    backend.group_fold(
        [array("q", [0, 2])], 64, True, [array("d", [2.0, 1.0])],
        table, array("Q", [3]),
    )


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(case=scatter_cases())
def test_scatter_false_sets_bit_identical(name, case):
    n_rows, n_vals, entries = case
    ours = backend_of(name).scatter_false_sets(n_rows, entries, n_vals)
    ref = REFERENCE.scatter_false_sets(n_rows, entries, n_vals)
    assert ours.n_rows == ref.n_rows == n_rows
    assert ours.n_vals == ref.n_vals == n_vals
    assert ours.words.tobytes() == ref.words.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=scatter_cases())
def test_reference_scatter_matches_bigint_shifts(case):
    # The reference scatter is itself pinned to the pre-kernel bigint
    # semantics: row r's int is the OR of ``1 << position`` over every
    # entry listing r.
    n_rows, n_vals, entries = case
    expected = [0] * n_rows
    for rows, positions in entries:
        for row in rows:
            for position in positions:
                expected[row] |= 1 << position
    table = REFERENCE.scatter_false_sets(n_rows, entries, n_vals)
    assert table.row_ints() == expected


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(case=sparse_cases())
def test_sparse_scores_bit_identical(name, case):
    base, minus, contribs, weights, kind = case
    assert backend_of(name).sparse_scores(
        base, minus, contribs, weights, kind
    ) == REFERENCE.sparse_scores(base, minus, contribs, weights, kind)


@pytest.mark.parametrize(
    "val_func, kind",
    [
        (EuclideanDistance(SumMonoid()), "sqdiff"),
        (AbsoluteDifference(SumMonoid()), "absdiff"),
        (Disagreement(SumMonoid()), "isclose01"),
    ],
)
@settings(max_examples=200, deadline=None)
@given(original=values, summary=values, total=values)
def test_sparse_forms_pin_val_func_decomposition(
    val_func, kind, original, summary, total
):
    # The kernel's closed forms must stay bitwise equal to the
    # VAL-FUNCs' own metric_contrib/metric_finish -- the sparse kernel
    # path substitutes one for the other.
    assert val_func.contrib_kind == kind
    contrib, finish = SPARSE_FORMS[kind]
    assert contrib(original, summary) == val_func.metric_contrib(
        original, summary
    )
    assert finish(total) == val_func.metric_finish(total)
    assert finish(abs(total)) == val_func.metric_finish(abs(total))


def test_sparse_isclose_edge_cases():
    contrib, _ = SPARSE_FORMS["isclose01"]
    inf = float("inf")
    nan = float("nan")
    for original, summary in [
        (inf, inf),
        (-inf, -inf),
        (inf, -inf),
        (inf, 1.0),
        (nan, nan),
        (nan, 0.0),
        (1e308, -1e308),
        (0.0, -0.0),
        (1.0, 1.0 + 1e-12),
        (1.0, 1.5),
    ]:
        expected = 0.0 if math.isclose(original, summary) else 1.0
        assert contrib(original, summary) == expected
        for backend in (REFERENCE, NATIVE):
            if backend is None:
                continue
            # One position, unit weight: the finished contribution
            # (0.0 or 1.0) is the whole total.
            total = backend.sparse_scores(
                [0.0], [], [([original], [summary])], [1.0], "isclose01"
            )
            assert total == expected


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(
    pairs=st.lists(st.tuples(values, positive_weights), max_size=200)
)
def test_weighted_moments_bit_identical(name, pairs):
    vals = [value for value, _ in pairs]
    weights = [weight for _, weight in pairs]
    assert backend_of(name).weighted_moments(
        vals, weights
    ) == REFERENCE.weighted_moments(vals, weights)


@pytest.mark.parametrize("name", BACKENDS)
def test_weighted_moments_ragged_tail_blocks(name):
    # Exact 64-block boundaries and every ragged width near them.
    for n in (1, 63, 64, 65, 127, 128, 129, 200):
        vals = [((index * 7919) % 101 - 50) / 3.0 for index in range(n)]
        weights = [((index * 104729) % 97 + 1) / 11.0 for index in range(n)]
        assert backend_of(name).weighted_moments(
            vals, weights
        ) == REFERENCE.weighted_moments(vals, weights)


def test_fold_empty_vectors_raise():
    for backend in (REFERENCE, NATIVE):
        if backend is None:
            continue
        with pytest.raises(ValueError):
            backend.fold_and([])
        with pytest.raises(ValueError):
            backend.fold_or([])


# -- resolution & fallback ----------------------------------------------------


def test_python_tokens_resolve_to_reference():
    for token in ("python", " Python "):
        with kernels.backend(token) as resolved:
            assert resolved == kernels.MODE_PYTHON
            assert kernels.get_backend() is not None
            assert kernels.get_backend().name == "python"


@needs_native
def test_native_tokens_resolve_to_native():
    for token in ("native", " NATIVE "):
        with kernels.backend(token) as resolved:
            assert resolved == kernels.MODE_NATIVE
            assert kernels.get_backend().name == "native"


def test_auto_resolves_native_first():
    # ``auto`` (or an empty value) picks native, then python.
    for token in ("auto", ""):
        with _captured_warnings() as records:
            with kernels.backend(token) as resolved:
                assert resolved == AUTO
        assert not records


def test_auto_skips_unbuildable_native_without_warning(monkeypatch):
    monkeypatch.setattr(kernels, "_NATIVE_BACKEND", False)
    monkeypatch.setattr(kernels, "_NATIVE_ERROR", "NativeBuildError: no cc")
    with _captured_warnings() as records:
        resolved = kernels._resolve_name("auto")
    assert resolved == kernels.MODE_PYTHON
    assert not records


@contextmanager
def _captured_warnings():
    """Records emitted on the kernels logger, capture-agnostic."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("repro.core.kernels")
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


def test_unknown_token_warns_and_falls_back_to_auto():
    before = kernels.active_backend()
    with _captured_warnings() as records:
        with kernels.backend("quantum") as resolved:
            assert resolved == AUTO
    assert any("kernel_unknown" in r.getMessage() for r in records)
    assert kernels.active_backend() == before


def test_removed_tokens_warn_and_resolve_to_auto():
    """``numpy`` and the old aliases of every backend are no longer
    accepted: each logs ``kernel_unknown`` and resolves as ``auto``."""
    for token in ("numpy", "np", "fast", "on", "1", "py", "legacy", "c", "default"):
        with _captured_warnings() as records:
            with kernels.backend(token) as resolved:
                assert resolved == AUTO
                assert kernels.get_backend().name == AUTO
        assert [
            r.getMessage() for r in records if "kernel_unknown" in r.getMessage()
        ] == [f"kernel_unknown requested={token} resolution=auto"], token


def test_native_request_degrades_when_probe_fails(monkeypatch):
    monkeypatch.setattr(kernels, "_NATIVE_BACKEND", False)
    monkeypatch.setattr(
        kernels, "_NATIVE_ERROR", "NativeBuildError: no C compiler on PATH"
    )
    with _captured_warnings() as records:
        with kernels.backend("native") as resolved:
            assert resolved == kernels.MODE_PYTHON
            assert kernels.get_backend().name == resolved
    messages = [r.getMessage() for r in records]
    assert any(
        "kernel_fallback" in message and "requested=native" in message
        for message in messages
    )


def test_native_request_degrades_to_python_without_numpy():
    """The kernel tier never needs numpy: with numpy unimportable and
    the native probe failing, ``REPRO_KERNEL=native`` degrades to the
    python reference with one ``kernel_fallback`` warning and scores."""
    code = """
import sys
sys.modules["numpy"] = None
from repro.core import kernels
kernels._NATIVE_BACKEND = False
kernels._NATIVE_ERROR = "NativeBuildError: nope"
assert kernels.set_backend("native") == "python"
assert kernels.get_backend().name == "python"
from repro.core import Summarizer, SummarizationConfig
from repro.datasets import MovieLensConfig, generate_movielens
problem = generate_movielens(MovieLensConfig(n_users=8, n_movies=4, seed=3)).problem()
result = Summarizer(problem, SummarizationConfig(max_steps=2, seed=0)).run()
assert {r.scoring_path for r in result.steps} == {"fast+incremental"}
"""
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_KERNEL="python")
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    fallbacks = [
        line for line in completed.stderr.splitlines() if "kernel_fallback" in line
    ]
    assert len(fallbacks) == 1
    assert "requested=native active=python" in fallbacks[0]


def test_backend_context_restores_previous():
    before = kernels.active_backend()
    with kernels.backend("python"):
        assert kernels.active_backend() == "python"
        with kernels.backend("auto"):
            pass
        assert kernels.active_backend() == "python"
    assert kernels.active_backend() == before


def test_backend_gauge_tracks_active_backend():
    rendered = _metrics.REGISTRY.render()
    active = kernels.active_backend()
    assert (
        f'repro_kernel_backend{{backend="{active}"}} 1' in rendered
    )
    for other in ("python", "native"):
        if other == active:
            continue
        assert f'repro_kernel_backend{{backend="{other}"}} 0' in rendered

"""The kernel protocol's bit-identity contract, property-checked.

Every op of the accelerated backends (numpy, native) must equal the
pure-python reference backend *exactly* -- same floats (``==``, not
``approx``), same ints, same words -- on arbitrary inputs, including
ragged tail blocks where ``n_vals`` is not a multiple of 64.  Plus the
resolution layer: env-token mapping, graceful degrade, the context
manager, and the info gauge.
"""

import logging
import math
from array import array
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.kernels import PythonKernel, SPARSE_KINDS
from repro.core.kernels.masktable import full_row, int_to_row, row_int
from repro.core.kernels.reference import SPARSE_FORMS
from repro.core.val_funcs import (
    AbsoluteDifference,
    Disagreement,
    EuclideanDistance,
)
from repro.provenance.monoids import SumMonoid
from repro.observability import metrics as _metrics

REFERENCE = PythonKernel()

try:
    from repro.core.kernels.numpy_backend import NumpyKernel

    NUMPY = NumpyKernel()
except Exception:  # pragma: no cover - exercised only without numpy
    NUMPY = None

try:
    from repro.core.kernels.native_backend import NativeKernel

    NATIVE = NativeKernel()
except Exception:  # pragma: no cover - no toolchain in this env
    NATIVE = None

needs_numpy = pytest.mark.skipif(
    NUMPY is None, reason="numpy backend unavailable"
)
needs_native = pytest.mark.skipif(
    NATIVE is None, reason="native backend unavailable"
)

#: Every accelerated backend, as a pytest axis that skips cleanly when
#: the backend cannot exist in this environment.
BACKENDS = [
    pytest.param("numpy", marks=needs_numpy),
    pytest.param("native", marks=needs_native),
]


def backend_of(name):
    return {"numpy": NUMPY, "native": NATIVE}[name]


# Finite doubles whose products/sums stay finite across a dozen terms.
values = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
positive_weights = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def fold_cases(draw):
    # Sizes straddle the 64-bit word boundary so ragged tail blocks,
    # exact multiples and sub-word masks are all exercised.
    n_vals = draw(st.integers(min_value=1, max_value=200))
    n_terms = draw(st.integers(min_value=0, max_value=10))
    masks = [
        (
            draw(values),
            int_to_row(draw(st.integers(0, (1 << n_vals) - 1)), n_vals),
        )
        for _ in range(n_terms)
    ]
    wanted = draw(
        st.one_of(st.none(), st.integers(0, (1 << n_vals) - 1))
    )
    if wanted is not None:
        wanted = int_to_row(wanted, n_vals)
    return n_vals, masks, wanted


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


@st.composite
def word_vectors(draw):
    n_words = draw(st.integers(min_value=1, max_value=8))
    n_vectors = draw(st.integers(min_value=1, max_value=6))
    word = st.integers(min_value=0, max_value=(1 << 64) - 1)
    return [
        array("Q", [draw(word) for _ in range(n_words)])
        for _ in range(n_vectors)
    ]


@st.composite
def monomial_runs(draw):
    def run():
        ids = sorted(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=50), max_size=8
                )
            )
        )
        return [
            (ann_id, draw(st.integers(min_value=1, max_value=5)))
            for ann_id in ids
        ]

    return run(), run()


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(case=fold_cases())
def test_fold_max_bit_identical(name, case):
    n_vals, masks, wanted = case
    # MAX folds consume masks in descending value order (the scorers
    # presort every group); the contract is defined over that order.
    masks = sorted(masks, key=lambda entry: -entry[0])
    assert backend_of(name).fold_max(
        masks, n_vals, wanted
    ) == REFERENCE.fold_max(masks, n_vals, wanted)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(case=fold_cases())
def test_fold_sum_bit_identical(name, case):
    n_vals, masks, wanted = case
    assert backend_of(name).fold_sum(
        masks, n_vals, wanted
    ) == REFERENCE.fold_sum(masks, n_vals, wanted)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(case=fold_cases(), is_max=st.booleans(), n_groups=st.integers(1, 4))
def test_baseline_scatter_matches_standalone_folds(name, case, is_max, n_groups):
    n_vals, masks, _ = case
    if is_max:
        masks = sorted(masks, key=lambda entry: -entry[0])
    # Same masks under several group keys: the shared unpack memo must
    # not leak state between groups.
    groups = [(f"g{index}", masks) for index in range(n_groups)]
    assert backend_of(name).baseline_scatter(
        groups, n_vals, is_max
    ) == REFERENCE.baseline_scatter(groups, n_vals, is_max)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(case=fold_cases(), is_max=st.booleans(), splits=st.lists(st.integers(0, 10), max_size=4))
def test_group_fold_matches_standalone_folds(name, case, is_max, splits):
    n_vals, masks, wanted = case
    if is_max:
        masks = sorted(masks, key=lambda entry: -entry[0])
    # Ragged groups sliced from one term pool -- empty groups included,
    # terms repeating across groups -- each column must equal its own
    # standalone fold.
    groups = [masks[: min(size, len(masks))] for size in splits]
    backend = backend_of(name)
    batched = backend.group_fold(groups, n_vals, is_max, wanted)
    fold = REFERENCE.fold_max if is_max else REFERENCE.fold_sum
    # Columns may come back as array('d'); compare values bit for bit.
    assert [list(col) for col in batched] == [
        fold(g, n_vals, wanted) for g in groups
    ]


@pytest.mark.parametrize("name", BACKENDS)
def test_group_fold_memo_keyed_by_n_vals(name):
    # One backend instance serves every scorer in the process, and its
    # cross-call unpack memo outlives any single n_vals.  A one-word
    # dead row has identical *bytes* at n_vals=7 and n_vals=21; the
    # memo must not serve the 7-position vector to the 21-val fold.
    backend = backend_of(name)
    row = array("Q", [0b1010101])
    masks = [(2.5, row)]
    for n_vals in (7, 21, 7):
        for is_max in (True, False):
            batched = backend.group_fold([masks], n_vals, is_max)
            fold = REFERENCE.fold_max if is_max else REFERENCE.fold_sum
            assert [list(col) for col in batched] == [
                fold(masks, n_vals)
            ]


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
        for backend in (NUMPY, NATIVE):
            if backend is None:
                continue
            accs, wf, total = backend.sparse_scores(
                [0.0], [], [([original], [summary])], [1.0], "isclose01"
            )
            assert accs == [expected]


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


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(vectors=word_vectors())
def test_word_algebra_bit_identical(name, vectors):
    backend = backend_of(name)
    assert backend.fold_and(vectors) == REFERENCE.fold_and(vectors)
    assert backend.fold_or(vectors) == REFERENCE.fold_or(vectors)
    first = vectors[0]
    assert backend.popcount_blocks(first) == REFERENCE.popcount_blocks(first)
    assert backend.popcount(first) == REFERENCE.popcount(first)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(
    mask=st.integers(min_value=0), n_vals=st.integers(min_value=1, max_value=200)
)
def test_fold_not_bit_identical_and_tail_clamped(name, mask, n_vals):
    row = int_to_row(mask % (1 << n_vals), n_vals)
    ours = backend_of(name).fold_not(row, n_vals)
    ref = REFERENCE.fold_not(row, n_vals)
    assert ours == ref
    assert row_int(ref) == (~row_int(row)) & row_int(full_row(n_vals))


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(runs=monomial_runs())
def test_merge_monomials_bit_identical(name, runs):
    first, second = runs
    assert backend_of(name).merge_monomials(
        first, second
    ) == REFERENCE.merge_monomials(first, second)


def test_fold_empty_vectors_raise():
    for backend in (REFERENCE, NUMPY, NATIVE):
        if backend is None:
            continue
        with pytest.raises(ValueError):
            backend.fold_and([])
        with pytest.raises(ValueError):
            backend.fold_or([])


# -- resolution & fallback ----------------------------------------------------


def test_python_tokens_resolve_to_reference():
    for token in ("python", "py", "reference", "off", "legacy", "0"):
        with kernels.backend(token) as resolved:
            assert resolved == kernels.MODE_PYTHON
            assert kernels.get_backend() is not None
            assert kernels.get_backend().name == "python"


@needs_numpy
def test_numpy_tokens_resolve_to_numpy():
    for token in ("numpy", "np", "fast", "on", "1"):
        with kernels.backend(token) as resolved:
            assert resolved == kernels.MODE_NUMPY
            assert kernels.get_backend().name == "numpy"


@needs_native
def test_native_tokens_resolve_to_native():
    for token in ("native", "c", "simd"):
        with kernels.backend(token) as resolved:
            assert resolved == kernels.MODE_NATIVE
            assert kernels.get_backend().name == "native"


def test_auto_resolves_native_first():
    # ``auto`` ranks backends by the end-to-end measurements:
    # native → numpy → python, silently skipping unavailable ones.
    expected = (
        kernels.MODE_NATIVE
        if kernels.native_available()
        else kernels.MODE_NUMPY
        if kernels.numpy_available()
        else kernels.MODE_PYTHON
    )
    with kernels.backend("auto") as resolved:
        assert resolved == expected


def test_auto_skips_unbuildable_native_without_warning(monkeypatch):
    monkeypatch.setattr(kernels, "_NATIVE_BACKEND", False)
    monkeypatch.setattr(kernels, "_NATIVE_ERROR", "NativeBuildError: no cc")
    with _captured_warnings() as records:
        resolved = kernels._resolve_name("auto")
    assert resolved in (kernels.MODE_PYTHON, kernels.MODE_NUMPY)
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
            assert resolved in (
                kernels.MODE_PYTHON, kernels.MODE_NUMPY, kernels.MODE_NATIVE
            )
    assert any("kernel_unknown" in r.getMessage() for r in records)
    assert kernels.active_backend() == before


def test_numpy_request_degrades_when_probe_fails(monkeypatch):
    monkeypatch.setattr(kernels, "_NUMPY_BACKEND", False)
    monkeypatch.setattr(kernels, "_NUMPY_ERROR", "ImportError: no numpy")
    with _captured_warnings() as records:
        with kernels.backend("numpy") as resolved:
            assert resolved == kernels.MODE_PYTHON
            assert kernels.get_backend().name == "python"
    assert any("kernel_fallback" in r.getMessage() for r in records)


def test_native_request_degrades_when_probe_fails(monkeypatch):
    monkeypatch.setattr(kernels, "_NATIVE_BACKEND", False)
    monkeypatch.setattr(
        kernels, "_NATIVE_ERROR", "NativeBuildError: no C compiler on PATH"
    )
    with _captured_warnings() as records:
        with kernels.backend("native") as resolved:
            assert resolved in (kernels.MODE_PYTHON, kernels.MODE_NUMPY)
            assert kernels.get_backend().name == resolved
    messages = [r.getMessage() for r in records]
    assert any(
        "kernel_fallback" in message and "requested=native" in message
        for message in messages
    )


def test_native_request_degrades_to_python_without_numpy(monkeypatch):
    monkeypatch.setattr(kernels, "_NATIVE_BACKEND", False)
    monkeypatch.setattr(kernels, "_NATIVE_ERROR", "NativeBuildError: nope")
    monkeypatch.setattr(kernels, "_NUMPY_BACKEND", False)
    monkeypatch.setattr(kernels, "_NUMPY_ERROR", "ImportError: no numpy")
    with _captured_warnings() as records:
        with kernels.backend("native") as resolved:
            assert resolved == kernels.MODE_PYTHON
            assert kernels.get_backend().name == "python"
    assert any(
        "kernel_fallback" in r.getMessage()
        and "active=python" in r.getMessage()
        for r in records
    )


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
    for other in ("python", "numpy", "native"):
        if other == active:
            continue
        assert f'repro_kernel_backend{{backend="{other}"}} 0' in rendered

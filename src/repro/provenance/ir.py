"""Interned provenance IR: annotation interner + arena-backed term store.

PROX's premise is that provenance expressions are too large to keep
around naively, yet the seed representation stored every ``N[Ann]``
monomial as a string-keyed tuple-of-tuples and rebuilt ``Counter``
objects term by term on every product and rename.  This module is the
memory/throughput answer: all annotation *names* are interned once
into dense integer ids, and all *monomials* live in one flat
append-only arena, so a polynomial reduces to two parallel integer
arrays -- ``(monomial id, coefficient)`` pairs -- and every kernel is
integer work over shared storage.  This mirrors how related
summarization systems get leverage from compact representations:
provenance-type aggregation (Moreau 2015) and provenance abstraction
for hypothetical reasoning (Deutch et al. 2020) both map concrete
identifiers into a small interned space before doing any real work.

Layout
------

:class:`AnnotationInterner`
    Bidirectional ``str ↔ int`` map.  Ids are dense, start at 0 and
    are stable for the interner's lifetime (a session holds one
    interner, so repeated ``/summarize`` calls reuse ids instead of
    re-parsing annotation strings).

:class:`TermStore`
    The arena.  Monomials are interned exactly like names: the
    ``(annotation-id, exponent)`` pairs of every distinct monomial are
    appended once to one flat ``array('q')`` (``_pair_data``), with a
    bounds array mapping monomial id → slice.  Monomial id 0 is the
    empty monomial (the constant ``1``).  Because monomials are
    interned, polynomial products and renames memoize at the monomial
    level: multiplying ``a·b²`` by ``c`` resolves to a single
    dictionary hit after the first time anywhere in the process.

:class:`PolyData`
    One polynomial: parallel ``array('q')`` columns ``mono_ids`` /
    ``coeffs``, sorted by monomial id (the canonical simplified form
    -- equality is array equality).  All semiring kernels
    (:meth:`TermStore.poly_add`, :meth:`TermStore.poly_mul`,
    :meth:`TermStore.poly_rename`, :meth:`TermStore.poly_size`, ...)
    are vectorized-in-pure-python loops over these columns.

:class:`RenameTable`
    A summarization mapping ``h : Ann → Ann'`` compiled to an id-remap
    array (``table[id] = id'``) plus a per-table monomial memo, so
    applying the same ``h`` to many polynomials (or the same monomial
    under many terms) is a lookup, not a rebuild.

Observability: the gauges ``repro_ir_interned_annotations`` and
``repro_ir_arena_bytes`` (exported via the existing ``/metrics``
endpoint) track interner cardinality and arena storage; publishing
stores update them on growth, others via :func:`publish_metrics`.
Only in-process :class:`~repro.provenance.polynomial.Polynomial`
users grow the arena: summarization keeps its ids in a per-problem
interner, and serving sessions in a per-session one.
"""

from __future__ import annotations

import os
from array import array
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..observability import log as _log
from ..observability import metrics as _metrics

_IR_INTERNED = _metrics.gauge(
    "repro_ir_interned_annotations",
    "Annotation names interned by the most recently published interner.",
)
_IR_ARENA_BYTES = _metrics.gauge(
    "repro_ir_arena_bytes",
    "Bytes held by the most recently published term-store arena arrays.",
)


# The string-keyed representation and its env switch are gone; a
# leftover setting is reported once and otherwise ignored.
if os.environ.get("REPRO_IR", "").strip():
    _log.get_logger("provenance.ir").warning(
        "ir_mode_removed requested=%s resolution=ir",
        _log.quote(os.environ["REPRO_IR"]),
    )


class AnnotationInterner:
    """Dense, stable, bidirectional ``annotation name ↔ int id`` map.

    A snapshot-restored interner (:meth:`from_snapshot`) wraps the
    name block of a session snapshot: the NUL-separated UTF-8
    blob is kept as-is and only decoded into Python strings -- and the
    reverse ``name → id`` dict only built -- when something actually
    asks (lazy restore).  Interning a *new* name materializes both and
    then grows them normally; ids assigned by the snapshot stay stable.
    """

    __slots__ = ("_ids", "_names", "_blob", "publish")

    def __init__(self, names: Iterable[str] = (), publish: bool = False):
        self._ids: Optional[Dict[str, int]] = {}
        self._names: Optional[List[str]] = []
        #: Undecoded snapshot name block (restored interners only).
        self._blob: Optional[bytes] = None
        #: Whether growth updates the ``repro_ir_interned_annotations`` gauge.
        self.publish = publish
        for name in names:
            self.intern(name)

    @classmethod
    def from_snapshot(cls, blob: bytes, publish: bool = False) -> "AnnotationInterner":
        """Wrap a read-only NUL-separated name block without decoding it."""
        interner = cls(publish=publish)
        if blob:
            interner._blob = bytes(blob)
            interner._names = None
            interner._ids = None
        return interner

    def _materialize(self) -> List[str]:
        """Decode the snapshot name block on first real use."""
        if self._names is None:
            self._names = [part.decode("utf-8") for part in self._blob.split(b"\x00")]
            self._blob = None
        return self._names

    def _id_map(self) -> Dict[str, int]:
        if self._ids is None:
            self._ids = {name: i for i, name in enumerate(self._materialize())}
        return self._ids

    def intern(self, name: str) -> int:
        """The id of ``name``, allocating the next dense id if new."""
        ids = self._ids
        if ids is None:
            ids = self._id_map()
        interned = ids.get(name)
        if interned is None:
            interned = len(self._names)
            ids[name] = interned
            self._names.append(name)
            if self.publish and _metrics.ENABLED:
                _IR_INTERNED.set(len(self._names))
        return interned

    def intern_all(self, names: Iterable[str]) -> Tuple[int, ...]:
        return tuple(self.intern(name) for name in names)

    def lookup(self, name: str) -> Optional[int]:
        """The id of ``name`` if already interned, without allocating."""
        return self._id_map().get(name)

    def name_of(self, interned: int) -> str:
        names = self._names
        if names is None:
            names = self._materialize()
        return names[interned]

    def names_of(self, ids: Iterable[int]) -> Tuple[str, ...]:
        names = self._names
        if names is None:
            names = self._materialize()
        return tuple(names[i] for i in ids)

    def __len__(self) -> int:
        if self._names is None:
            return self._blob.count(b"\x00") + 1
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._id_map()

    def __iter__(self) -> Iterator[str]:
        """Names in id order."""
        if self._names is None:
            self._materialize()
        return iter(self._names)

    def nbytes(self) -> int:
        """Rough payload estimate: the name characters plus two slots
        (forward dict entry, reverse list entry) per name."""
        if self._names is None:
            return len(self._blob) + 16 * len(self)
        return sum(len(name) for name in self._names) + 16 * len(self._names)


class RenameTable:
    """A mapping ``h : Ann → Ann'`` compiled against one interner.

    ``table[id]`` is the image id; monomial renames memoize per table,
    so re-applying the same ``h`` costs one dict lookup per monomial.
    """

    __slots__ = ("table", "_memo")

    def __init__(self, table: "array[int]"):
        self.table = table
        self._memo: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.table)


class PolyData:
    """One canonical polynomial: sorted, parallel integer columns."""

    __slots__ = ("mono_ids", "coeffs")

    def __init__(self, mono_ids: "array[int]", coeffs: "array[int]"):
        self.mono_ids = mono_ids
        self.coeffs = coeffs

    def __len__(self) -> int:
        return len(self.mono_ids)

    def nbytes(self) -> int:
        return (
            self.mono_ids.itemsize * len(self.mono_ids)
            + self.coeffs.itemsize * len(self.coeffs)
        )


_EMPTY_KEY: Tuple[int, ...] = ()


class TermStore:
    """Arena of interned monomials plus the polynomial kernels.

    Monomial id ``m`` owns ``_pair_data[_bounds[m]:_bounds[m + 1]]`` --
    a flat, ann-id-sorted run of ``(annotation-id, exponent)`` pairs.
    Id 0 is the empty monomial.  The store is append-only; nothing is
    ever moved or freed, so ids and slices are stable for its lifetime
    (single-writer: share a store across threads only behind a lock,
    as the PROX server's session lock already provides).
    """

    __slots__ = (
        "interner",
        "_pair_data",
        "_bounds",
        "_mono_sizes",
        "_mono_index",
        "_product_memo",
        "_rename_tables",
        "publish",
    )

    def __init__(
        self,
        interner: Optional[AnnotationInterner] = None,
        publish: bool = False,
    ):
        self.interner = interner if interner is not None else AnnotationInterner()
        self.publish = publish
        if publish:
            self.interner.publish = True
        self._pair_data = array("q")
        self._bounds = array("q", (0, 0))  # mono 0: the empty slice
        self._mono_sizes = array("q", (0,))
        self._mono_index: Dict[Tuple[int, ...], int] = {_EMPTY_KEY: 0}
        self._product_memo: Dict[Tuple[int, int], int] = {}
        self._rename_tables: Dict[Tuple[Tuple[str, str], ...], RenameTable] = {}

    # -- monomial arena ------------------------------------------------------

    def n_monomials(self) -> int:
        return len(self._mono_sizes)

    def arena_bytes(self) -> int:
        """Bytes held by the arena arrays (pair data, bounds, sizes)."""
        return (
            self._pair_data.itemsize * len(self._pair_data)
            + self._bounds.itemsize * len(self._bounds)
            + self._mono_sizes.itemsize * len(self._mono_sizes)
        )

    def stats(self) -> Dict[str, int]:
        return {
            "interned_annotations": len(self.interner),
            "interner_bytes": self.interner.nbytes(),
            "monomials": self.n_monomials(),
            "arena_bytes": self.arena_bytes(),
        }

    def intern_monomial(self, flat_key: Tuple[int, ...]) -> int:
        """Intern a flattened ``(ann_id, exp, ann_id, exp, ...)`` run.

        The key must be sorted by annotation id with positive exponents
        and no duplicate ids (the canonical monomial form).
        """
        mono = self._mono_index.get(flat_key)
        if mono is None:
            mono = len(self._mono_sizes)
            self._mono_index[flat_key] = mono
            self._pair_data.extend(flat_key)
            self._bounds.append(len(self._pair_data))
            self._mono_sizes.append(sum(flat_key[1::2]))
            if self.publish and _metrics.ENABLED:
                _IR_ARENA_BYTES.set(self.arena_bytes())
        return mono

    def mono_from_name_pairs(self, pairs: Iterable[Tuple[str, int]]) -> int:
        """Intern a name-space monomial (``(name, exponent)`` pairs)."""
        id_pairs = sorted(
            (self.interner.intern(name), exponent) for name, exponent in pairs
        )
        flat: List[int] = []
        for ann_id, exponent in id_pairs:
            flat.append(ann_id)
            flat.append(exponent)
        return self.intern_monomial(tuple(flat))

    def mono_pairs(self, mono: int) -> List[Tuple[int, int]]:
        """The ``(annotation-id, exponent)`` pairs of one monomial."""
        data = self._pair_data
        start, end = self._bounds[mono], self._bounds[mono + 1]
        return [(data[i], data[i + 1]) for i in range(start, end, 2)]

    def mono_name_pairs(self, mono: int) -> Tuple[Tuple[str, int], ...]:
        """Name-space pairs, sorted by name (a polynomial ``Monomial``)."""
        name_of = self.interner.name_of
        return tuple(
            sorted((name_of(ann_id), exp) for ann_id, exp in self.mono_pairs(mono))
        )

    def mono_size(self, mono: int) -> int:
        """Total degree (annotation occurrences with repetition)."""
        return self._mono_sizes[mono]

    def mono_annotation_ids(self, mono: int) -> Tuple[int, ...]:
        data = self._pair_data
        return tuple(
            data[i] for i in range(self._bounds[mono], self._bounds[mono + 1], 2)
        )

    def mono_product(self, left: int, right: int) -> int:
        """Monomial product: merge the two sorted pair runs (memoized)."""
        if left == 0:
            return right
        if right == 0:
            return left
        key = (left, right) if left <= right else (right, left)
        product = self._product_memo.get(key)
        if product is None:
            product = self.intern_monomial(
                _active_merge()(self.mono_pairs(left), self.mono_pairs(right))
            )
            self._product_memo[key] = product
        return product

    # -- rename tables -------------------------------------------------------

    def rename_table(self, mapping: Mapping[str, str]) -> RenameTable:
        """Compile ``h`` to an id-remap table (cached per mapping).

        Tables are extended lazily when the interner has grown since
        compilation, so cached tables survive new annotations.
        """
        cache_key = tuple(sorted(mapping.items()))
        table = self._rename_tables.get(cache_key)
        if table is None:
            table = RenameTable(array("q"))
            self._rename_tables[cache_key] = table
        interner = self.interner
        if len(table.table) < len(interner):
            for ann_id in range(len(table.table), len(interner)):
                name = interner.name_of(ann_id)
                table.table.append(interner.intern(mapping.get(name, name)))
        return table

    def rename_mono(self, mono: int, table: RenameTable) -> int:
        """Apply an id-remap to one monomial (memoized per table)."""
        renamed = table._memo.get(mono)
        if renamed is None:
            remap = table.table
            counts: Dict[int, int] = {}
            for ann_id, exponent in self.mono_pairs(mono):
                image = remap[ann_id]
                counts[image] = counts.get(image, 0) + exponent
            flat: List[int] = []
            for ann_id in sorted(counts):
                flat.append(ann_id)
                flat.append(counts[ann_id])
            renamed = self.intern_monomial(tuple(flat))
            table._memo[mono] = renamed
        return renamed

    # -- polynomial kernels --------------------------------------------------

    def poly_from_counts(self, counts: Mapping[int, int]) -> PolyData:
        """Canonical simplification: drop zeros, sort by monomial id."""
        mono_ids = array("q")
        coeffs = array("q")
        for mono in sorted(counts):
            coefficient = counts[mono]
            if coefficient:
                mono_ids.append(mono)
                coeffs.append(coefficient)
        return PolyData(mono_ids, coeffs)

    def poly_zero(self) -> PolyData:
        return PolyData(array("q"), array("q"))

    def poly_add(self, left: PolyData, right: PolyData) -> PolyData:
        """Merge two sorted ``(mono, coeff)`` columns."""
        mono_ids = array("q")
        coeffs = array("q")
        left_ids, left_coeffs = left.mono_ids, left.coeffs
        right_ids, right_coeffs = right.mono_ids, right.coeffs
        i = j = 0
        n_left, n_right = len(left_ids), len(right_ids)
        while i < n_left and j < n_right:
            a, b = left_ids[i], right_ids[j]
            if a == b:
                mono_ids.append(a)
                coeffs.append(left_coeffs[i] + right_coeffs[j])
                i += 1
                j += 1
            elif a < b:
                mono_ids.append(a)
                coeffs.append(left_coeffs[i])
                i += 1
            else:
                mono_ids.append(b)
                coeffs.append(right_coeffs[j])
                j += 1
        for k in range(i, n_left):
            mono_ids.append(left_ids[k])
            coeffs.append(left_coeffs[k])
        for k in range(j, n_right):
            mono_ids.append(right_ids[k])
            coeffs.append(right_coeffs[k])
        return PolyData(mono_ids, coeffs)

    def poly_mul(self, left: PolyData, right: PolyData) -> PolyData:
        counts: Dict[int, int] = {}
        mono_product = self.mono_product
        right_pairs = list(zip(right.mono_ids, right.coeffs))
        for left_mono, left_coeff in zip(left.mono_ids, left.coeffs):
            for right_mono, right_coeff in right_pairs:
                product = mono_product(left_mono, right_mono)
                counts[product] = counts.get(product, 0) + left_coeff * right_coeff
        return self.poly_from_counts(counts)

    def poly_rename(self, poly: PolyData, table: RenameTable) -> PolyData:
        counts: Dict[int, int] = {}
        rename_mono = self.rename_mono
        for mono, coefficient in zip(poly.mono_ids, poly.coeffs):
            renamed = rename_mono(mono, table)
            counts[renamed] = counts.get(renamed, 0) + coefficient
        return self.poly_from_counts(counts)

    def poly_size(self, poly: PolyData) -> int:
        """§3.2 size: annotation occurrences weighted by coefficients."""
        sizes = self._mono_sizes
        return sum(
            coefficient * sizes[mono]
            for mono, coefficient in zip(poly.mono_ids, poly.coeffs)
        )

    def poly_degree(self, poly: PolyData) -> int:
        sizes = self._mono_sizes
        return max((sizes[mono] for mono in poly.mono_ids), default=0)

    def poly_annotation_ids(self, poly: PolyData) -> frozenset:
        ids: set = set()
        for mono in poly.mono_ids:
            ids.update(self.mono_annotation_ids(mono))
        return frozenset(ids)

    def poly_coefficient(self, poly: PolyData, flat_key: Tuple[int, ...]) -> int:
        mono = self._mono_index.get(flat_key)
        if mono is None:
            return 0
        mono_ids = poly.mono_ids
        low, high = 0, len(mono_ids)
        while low < high:
            mid = (low + high) // 2
            if mono_ids[mid] < mono:
                low = mid + 1
            else:
                high = mid
        if low < len(mono_ids) and mono_ids[low] == mono:
            return poly.coeffs[low]
        return 0

    def poly_evaluate_in(self, poly: PolyData, semiring, valuation: Mapping[str, object]):
        """The unique semiring-hom extension of ``valuation``."""
        name_of = self.interner.name_of
        total = semiring.zero
        for mono, coefficient in zip(poly.mono_ids, poly.coeffs):
            value = semiring.one
            for ann_id, exponent in self.mono_pairs(mono):
                name = name_of(ann_id)
                try:
                    base = valuation[name]
                except KeyError:
                    raise KeyError(
                        f"valuation missing annotation {name!r}"
                    ) from None
                for _ in range(exponent):
                    value = semiring.times(value, base)
            for _ in range(coefficient):
                total = semiring.plus(total, value)
        return total


def _active_merge():
    """The active kernel backend's sorted-merge monomial product.

    Imported lazily: ``repro.core.kernels`` pulls in ``repro.core``,
    which must not execute while this module is still initializing.
    Falls back to the inline merge if the kernel tier is unavailable
    (both produce identical tuples -- the kernel reference backend *is*
    this function, extracted).
    """
    try:
        from ..core import kernels
    except Exception:
        return _merge_pair_runs
    return kernels.get_backend().merge_monomials


def _merge_pair_runs(
    first: Sequence[Tuple[int, int]], second: Sequence[Tuple[int, int]]
) -> Tuple[int, ...]:
    """Merge two ann-id-sorted pair runs, summing shared exponents."""
    flat: List[int] = []
    i = j = 0
    n_first, n_second = len(first), len(second)
    while i < n_first and j < n_second:
        ann_a, exp_a = first[i]
        ann_b, exp_b = second[j]
        if ann_a == ann_b:
            flat.append(ann_a)
            flat.append(exp_a + exp_b)
            i += 1
            j += 1
        elif ann_a < ann_b:
            flat.append(ann_a)
            flat.append(exp_a)
            i += 1
        else:
            flat.append(ann_b)
            flat.append(exp_b)
            j += 1
    for ann_id, exponent in first[i:]:
        flat.append(ann_id)
        flat.append(exponent)
    for ann_id, exponent in second[j:]:
        flat.append(ann_id)
        flat.append(exponent)
    return tuple(flat)


#: The process-wide store backing every :class:`~repro.provenance
#: .polynomial.Polynomial`.  Serving and summarizing never intern into it.
GLOBAL_STORE = TermStore(publish=True)


def publish_metrics(
    interner: Optional[AnnotationInterner] = None,
    store: Optional[TermStore] = None,
) -> None:
    """Export interner/arena gauges (``/metrics``) for the given or
    global store."""
    target = store if store is not None else GLOBAL_STORE
    counted = interner if interner is not None else target.interner
    _IR_INTERNED.set(len(counted))
    _IR_ARENA_BYTES.set(target.arena_bytes())

"""Batch candidate scoring for one Algorithm-1 step (optimized path).

Scoring a step naively costs
``O(#candidates × #valuations × #terms)`` -- the dominant cost of the
whole algorithm (and what Fig. 6.5 measures).  This module exploits
four structural facts to collapse that product:

1. The valuation class is fixed across the step, so each current
   annotation's lifted truth values can be packed once into a *bitmask
   word row* -- a little-endian ``array('Q')`` vector, bit ``v`` set ⇔
   the annotation is false under valuation ``v`` -- scattered for all
   annotations at once into one contiguous
   :class:`~repro.core.kernels.masktable.MaskTable` by the active
   kernel backend.  A term is dead exactly when any of its
   annotations' bits are set, so per-term aliveness across *all*
   valuations is a couple of ORs; every term's dead row lives in one
   contiguous ``array('Q')`` table, row ``i`` for term ``i``, and the
   kernel folds read it by row index.
2. A candidate merge ``{a, b} → c`` changes aliveness only for terms
   containing ``a`` or ``b`` (with the OR combiner,
   ``mask(c) = mask(a) AND mask(b)``); every other group's aggregate is
   shared with the step's baseline and computed once.
3. Per-group aggregates across all valuations need not iterate
   valuations: for MAX, walking the group's terms in descending value
   order assigns each valuation its maximum the first time an alive
   term covers it; for SUM, only each term's (typically few) dead bits
   are subtracted from the full-sum.
4. The VAL-FUNC decomposes coordinate-wise (its ``contrib_kind``), so
   a candidate's per-valuation metric is the baseline's *nonzero*
   contributions (keys touched by past merges -- typically few) with
   the candidate's disturbed keys swapped for their recomputed
   contributions, instead of a walk over every group.

The scorer mirrors :class:`~repro.core.distance.DistanceComputer`
semantics -- the equivalence is asserted by
``tests/core/test_fast_distance.py`` over randomized instances.

Applicability (checked by :func:`FastStepScorer.applicable`): the
expression is a :class:`~repro.provenance.tensor_sum.TensorSum` with
non-negative values, the VAL-FUNC is a
:class:`~repro.core.val_funcs.VectorValFunc` whose monoid is MAX, SUM
or COUNT and whose ``contrib_kind`` is one of the kernel's
:data:`~repro.core.kernels.SPARSE_KINDS`, every domain lifts with the
OR combiner, and the valuation class is small enough to enumerate.
Everything else goes to the naive reference path.

The scorer is carried across steps: after a merge ``{a, b} → c`` is
applied, :meth:`FastStepScorer.advance` rebuilds only the state
touching ``a``, ``b`` or ``c`` (annotation masks, the rewritten terms'
keys and dead rows, group baselines, aligned original vectors and
per-valuation metric contributions) and carries everything else.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from array import array

from ..provenance.annotations import AnnotationUniverse
from ..provenance.monoids import CountMonoid, MaxMonoid, SumMonoid
from ..provenance.tensor_sum import Guard, TensorSum, Term
from ..provenance.valuation_classes import ValuationClass
from . import kernels
from .kernels.masktable import MaskTable, WordRow
from .kernels.reference import SPARSE_KINDS
from .combiners import DomainCombiners, OrCombiner
from .distance import DistanceComputer, DistanceEstimate
from .mapping import MappingState
from .val_funcs import VectorValFunc


def _renamed_guard(guard: Tuple, parts: FrozenSet[str]) -> Tuple:
    """Collision key of a presorted guard under the merge ``parts → c``."""
    names, value, op, threshold = guard
    kept = tuple([name for name in names if name not in parts])
    return (len(names) - len(kept), kept, value, op, threshold)


_COMPARE = {
    ">": lambda left, threshold: left > threshold,
    ">=": lambda left, threshold: left >= threshold,
    "<": lambda left, threshold: left < threshold,
    "<=": lambda left, threshold: left <= threshold,
    "==": lambda left, threshold: left == threshold,
    "!=": lambda left, threshold: left != threshold,
}


class FastStepScorer:
    """Scores one step's candidates against all valuations; carried
    across steps by :meth:`advance`."""

    @staticmethod
    def applicable(expression, val_func, combiners: DomainCombiners,
                   valuations: ValuationClass, universe: AnnotationUniverse,
                   max_enumerate: int) -> bool:
        """Whether the optimized path reproduces the reference result."""
        if not isinstance(expression, TensorSum):
            return False
        if not isinstance(val_func, VectorValFunc):
            return False
        if not isinstance(val_func.monoid, (MaxMonoid, SumMonoid, CountMonoid)):
            return False
        if val_func.contrib_kind not in SPARSE_KINDS:
            return False
        if len(valuations) > max_enumerate:
            return False
        domains = {universe[name].domain for name in expression.annotation_names()}
        if any(not isinstance(combiners.for_domain(d), OrCombiner) for d in domains):
            return False
        return all(term.value >= 0 for term in expression.terms)

    def __init__(
        self,
        computer: DistanceComputer,
        current: TensorSum,
        mapping: MappingState,
        universe: AnnotationUniverse,
    ):
        self.computer = computer
        self.current = current
        self.mapping = mapping
        self.universe = universe
        # All per-annotation state -- valuation bitmasks and term
        # indexes -- is keyed on the computer's dense interned ids.
        self._interner = computer.interner
        self._key = self._interner.intern
        self.val_func: VectorValFunc = computer.val_func
        self.monoid = self.val_func.monoid
        self._is_max = isinstance(self.monoid, MaxMonoid)
        self.valuations = self._step_valuations()
        self.n_vals = len(self.valuations)
        # The backend is captured once per scorer: a mid-step
        # ``kernels.set_backend`` never mixes backends within one
        # scorer's folds (results are bit-identical either way; this
        # just keeps the ``kernel=`` span attribute truthful).
        self._kernel = kernels.get_backend()
        # Word rows are ``_row_bytes`` long; the python-side mask algebra
        # (term dead rows, candidate overrides) runs on ints whose bit
        # ``v`` is the row's bit ``v``.
        self._n_words = kernels.words_for(self.n_vals)
        self._row_bytes = 8 * self._n_words
        self._full_bits = (1 << self.n_vals) - 1
        #: Dead rows derived (at construction and by ``advance``); the
        #: carry regression test asserts ``advance`` derives only the
        #: merge's neighborhood.
        self.mask_builds = 0
        # Per-term tables, index-aligned with ``_terms`` (see
        # :meth:`_term_structure`).
        self._terms: List[Term] = []
        self._term_names: List[Tuple[str, ...]] = []
        self._term_guard_names: List[Tuple[Tuple, ...]] = []
        self._term_ann_keys: List[List[object]] = []
        self._term_guard_keys: List[List[Tuple[Guard, List[object]]]] = []
        self._term_keys: List[Tuple[object, ...]] = []
        #: Dead row of every term: ``n_terms × n_words`` words, row ``i``
        #: for term ``i`` (read-only once built; ``advance`` builds a
        #: new table).
        self._dead = array("Q")

        self._build_masks()
        self._build_terms()
        self._baseline = self._fold_groups(list(self._group_order))
        # Original results in evaluation-encounter order, shared across
        # steps: ``_align_originals`` folds them, and ``advance``
        # refolds the merged keys in the same order.
        self._image: Dict[Optional[str], Optional[str]] = {}
        self._orig_lists: List[List[Tuple[Optional[str], float]]] = []
        # Read-only entry lists: repeated batch members share one list
        # (``advance`` only iterates them, never mutates).
        listed: Dict[int, List[Tuple[Optional[str], float]]] = {}
        for index, valuation in enumerate(self.valuations):
            entries = listed.get(id(valuation))
            if entries is None:
                original = self._original_result(index, valuation)
                entries = []
                for key, aggregate in original.items():
                    entries.append((key, aggregate.finalized_value()))
                    if key not in self._image:
                        self._image[key] = (
                            self.mapping.get(key, key) if key is not None else None
                        )
                listed[id(valuation)] = entries
            self._orig_lists.append(entries)

        self._orig_aligned = self._align_originals()
        #: Number of advance() carries since construction (telemetry).
        self.steps_carried = 0

        # What the most recent advance() perturbed -- the engine's
        # lazy queue uses these to decide which carried sizes shift
        # verbatim (None until the first advance):
        #: Term indexes (new state) the merge rewrote: those mentioning
        #: the merged annotation or grouped under it.
        self.last_affected_terms: Optional[set] = None
        #: Expression-size change of the applied merge; a disjoint
        #: candidate's post-merge size is its carried size plus this.
        self.last_size_shift: int = 0
        #: Whether ``last_size_shift`` is accounted for entirely by the
        #: merge's own neighborhood.  ``apply_mapping`` canonicalizes
        #: *every* monomial and merges equal terms globally, so a merge
        #: can collapse duplicate terms that never mention the merged
        #: annotations (possible only when the pre-merge expression was
        #: not already canonical).  Such a collapse is not disjoint from
        #: anything: a carried candidate's own merge would collapse the
        #: same pair, so ``old_size + last_size_shift`` double-counts
        #: it.  False ⇒ the engine must not carry sizes across this step.
        self.last_shift_local: bool = True
        #: Names and groups of ``last_affected_terms`` (what
        #: :meth:`size_intersects` tests parts against).
        self._last_touched: FrozenSet[Optional[str]] = frozenset()

        self._nonzero: List[Dict[Optional[str], float]] = []
        #: Per-position running sum of ``_nonzero`` values (insertion
        #: order at build, then corrected by each merge's delta).  The
        #: sparse walk starts from this and subtracts the few excluded
        #: keys instead of re-walking the whole dict.  The association
        #: dust this introduces stays far inside the engine's stale-key
        #: margin, and every recorded winner is freshly scored.
        self._nonzero_sum: List[float] = []
        # Position-indexed weights and their left-to-right sum, the
        # ``total_weight`` every candidate's weighted mean divides by.
        self._weights_col = array(
            "d", [valuation.weight for valuation in self.valuations]
        )
        weight_sum = 0.0
        for weight in self._weights_col:
            weight_sum += weight
        self._weight_sum: float = weight_sum
        # Columnar float64 mirrors of the sparse dicts for the kernel
        # ``sparse_scores`` walk, built lazily (many candidates per step
        # share them) and dropped by ``advance``.  Dense columns encode
        # an absent key as 0.0: subtracting or adding that coordinate
        # is an IEEE identity, so the columnar walk is bit-identical to
        # a walk over the sparse dicts.
        self._base_col: Optional[array] = None
        self._zero_col: Optional[array] = None
        self._nonzero_cols: Dict[object, array] = {}
        self._orig_cols: Dict[object, array] = {}
        self._build_nonzero()

    # -- precomputation ---------------------------------------------------------

    def _step_valuations(self) -> List:
        """The valuations this step scores against.

        The enumerating scorer walks the whole class; the sampled
        subclass overrides this with its Monte-Carlo batch.
        """
        return list(self.computer.valuations)

    def _original_result(self, index: int, valuation):
        """Original's evaluation under ``self.valuations[index]``.

        The enumerating scorer shares the computer's index-keyed cache;
        the sampled subclass redirects to the false-set-keyed sample
        cache (batch positions are not stable enumeration indexes).
        """
        return self.computer._original_result(index, valuation)

    def _mask_rows(self) -> Dict[object, int]:
        """Table-row index per annotation key, in expression order."""
        key = self._key
        row_of: Dict[object, int] = {}
        for name in self.current.annotation_names():
            mask_key = key(name)
            if mask_key not in row_of:
                row_of[mask_key] = len(row_of)
        return row_of

    def _build_masks(self) -> None:
        """Lifted false word row per current annotation (key space).

        The per-valuation false sets are gathered in python (they come
        from the combiners' lifted semantics) and scattered into one
        contiguous :class:`MaskTable` by the kernel backend.
        """
        row_of = self._mask_rows()
        combiners = self.computer.combiners
        interner = self._interner
        entries: List[Tuple[List[int], Tuple[int, ...]]] = []
        for index, valuation in enumerate(self.valuations):
            rows: List[int] = []
            for name in combiners.lifted_false_set(
                valuation, self.mapping, self.universe
            ):
                # Non-inserting lookup: lifted sets may mention names
                # outside the expression, which must not grow the
                # interner.
                mask_key = interner.lookup(name)
                if mask_key is not None:
                    row = row_of.get(mask_key)
                    if row is not None:
                        rows.append(row)
            if rows:
                entries.append((rows, (index,)))
        table = self._kernel.scatter_false_sets(
            len(row_of), entries, self.n_vals
        )
        self._set_masks(table, row_of)

    def _set_masks(self, table: MaskTable, row_of: Mapping[object, int]) -> None:
        """Adopt a scattered mask table.

        ``self._mask`` maps each key to a zero-copy view of its row;
        ``self._mask_bits`` holds the same rows as ints, which the
        per-term dead-row algebra ORs together.
        """
        self._mask: Dict[object, WordRow] = {
            mask_key: table.row(row) for mask_key, row in row_of.items()
        }
        self._mask_bits: Dict[object, int] = {
            mask_key: int.from_bytes(row, "little")
            for mask_key, row in self._mask.items()
        }

    def _dead_bits(
        self,
        ann_keys: Sequence[object],
        guard_keys: Sequence[Tuple[Guard, Sequence[object]]],
        part_keys: Optional[FrozenSet[object]] = None,
        merged: int = 0,
    ) -> int:
        """Valuations under which a term contributes nothing, as an int.

        ``part_keys``/``merged`` substitute the candidate's merged row
        for the parts' rows (candidate scoring); annotation and guard
        keys come pre-interned from the term tables.
        """
        bits_of = self._mask_bits
        dead = 0
        if part_keys is None:
            for mask_key in ann_keys:
                dead |= bits_of[mask_key]
        else:
            for mask_key in ann_keys:
                dead |= merged if mask_key in part_keys else bits_of[mask_key]
        for guard_token, keys in guard_keys:
            dead |= self._guard_bits(guard_token, keys, part_keys, merged)
        return dead

    def _guard_bits(
        self,
        guard_token: Guard,
        guard_keys: Sequence[object],
        part_keys: Optional[FrozenSet[object]],
        merged: int,
    ) -> int:
        compare = _COMPARE[guard_token.op]
        sat_alive = compare(guard_token.value, guard_token.threshold)
        sat_dead = compare(0.0, guard_token.threshold)
        if sat_alive and sat_dead:
            return 0
        if not sat_alive and not sat_dead:
            return self._full_bits
        bits_of = self._mask_bits
        union = 0
        for mask_key in guard_keys:
            if part_keys is not None and mask_key in part_keys:
                union |= merged
            else:
                union |= bits_of.get(mask_key, 0)
        if sat_alive:
            return union
        return self._full_bits & ~union

    def _term_structure(self, term: Term) -> Tuple:
        """A term's interned and presorted name tables.

        ``(sorted names, sorted guard names, annotation keys, guard
        keys, distinct keys)``: ``_candidate_size`` derives collision
        keys from the sorted names, the dead-row algebra ORs the keys'
        rows, and ``_ann_terms`` indexes the distinct keys.
        """
        key = self._key
        names = tuple(sorted(term.annotations))
        ann_keys = [key(name) for name in names]
        guard_names = tuple(
            (tuple(sorted(guard.annotations)), guard.value, guard.op,
             guard.threshold)
            for guard in term.guards
        )
        guard_keys = [
            (guard, [key(name) for name in guard.annotations])
            for guard in term.guards
        ]
        all_keys = ann_keys
        if guard_keys:
            all_keys = ann_keys + [
                mask_key for _, keys in guard_keys for mask_key in keys
            ]
        return (
            names,
            guard_names,
            ann_keys,
            guard_keys,
            tuple(dict.fromkeys(all_keys)),
        )

    def _build_terms(self) -> None:
        """Every term's tables and dead row, from scratch."""
        self._set_terms([(None, 1)] * len(self.current.terms), None)

    def _set_terms(
        self,
        runs: Sequence[Tuple[Optional[int], int]],
        old_order: Optional[Mapping],
    ) -> None:
        """Term tables of ``self.current``: carry runs, recompute the rest.

        ``runs`` as :meth:`_carried_runs` returns them; ``old_order`` is
        the pre-merge ``_group_order`` when anything is carried.
        """
        terms = list(self.current.terms)
        old_tables = (
            self._term_names,
            self._term_guard_names,
            self._term_ann_keys,
            self._term_guard_keys,
            self._term_keys,
        )
        tables: Tuple[list, ...] = ([], [], [], [], [])
        words = memoryview(self._dead)
        n_words = self._n_words
        width = self._row_bytes
        chunks: list = []
        new_of: List[Optional[int]] = [None] * len(self._terms)
        touched: set = set()
        position = 0
        for start, count in runs:
            if start is None:
                term = terms[position]
                structure = self._term_structure(term)
                for table, value in zip(tables, structure):
                    table.append(value)
                chunks.append(
                    self._dead_bits(structure[2], structure[3]).to_bytes(
                        width, "little"
                    )
                )
                touched.add(term.group)
                self.mask_builds += 1
            else:
                stop = start + count
                for table, old in zip(tables, old_tables):
                    table.extend(old[start:stop])
                chunks.append(words[start * n_words : stop * n_words])
                new_of[start:stop] = range(position, position + count)
            position += count
        self._terms = terms
        (
            self._term_names,
            self._term_guard_names,
            self._term_ann_keys,
            self._term_guard_keys,
            self._term_keys,
        ) = tables
        self._dead = array("Q")
        self._dead.frombytes(b"".join(chunks))
        self._index_terms(
            None if old_order is None else (old_order, new_of, touched)
        )

    def _index_terms(self, carried: Optional[Tuple] = None) -> None:
        """Group and annotation indexes over the current term tables.

        ``carried`` -- ``(old group order, old → new term index, touched
        groups)`` from ``advance`` -- remaps the presorted order of
        every untouched group instead of re-sorting it.
        """
        group_terms: Dict[Optional[str], List[int]] = {}
        for index, term in enumerate(self._terms):
            members = group_terms.get(term.group)
            if members is None:
                group_terms[term.group] = [index]
            else:
                members.append(index)
        self._group_terms = group_terms
        ann_terms: Dict[object, List[int]] = {}
        for index, keys in enumerate(self._term_keys):
            for mask_key in keys:
                members = ann_terms.get(mask_key)
                if members is None:
                    ann_terms[mask_key] = [index]
                else:
                    members.append(index)
        self._ann_terms = ann_terms
        # Per-group term indexes in the order the fold consumes them:
        # descending value for MAX, so the fold never re-sorts the
        # same baseline group inside every candidate score; term order
        # for SUM/COUNT, whose subtraction fold must keep the original
        # association order to stay bit-identical.
        if self._is_max:
            terms = self._terms
            old_order, new_of, touched = carried or ({}, (), ())
            order: Dict[Optional[str], List[int]] = {}
            for group, indexes in group_terms.items():
                if carried is not None and group not in touched:
                    # Untouched: same terms, same values, positions
                    # shifted monotonically -- the sorted order maps.
                    order[group] = [new_of[i] for i in old_order[group]]
                else:
                    order[group] = sorted(
                        indexes, key=lambda index: -terms[index].value
                    )
            self._group_order: Dict[Optional[str], List[int]] = order
        else:
            self._group_order = group_terms
        # Per-group ``(row indexes, values, position of term)`` arrays
        # for the index-addressed ``group_fold``, built lazily.
        self._group_cache: Dict[
            Optional[str], Tuple[array, array, Dict[int, int]]
        ] = {}
        # Per-name size buckets for :meth:`candidate_sizes`, built
        # lazily, and the step's bucket-key interner.
        self._size_info: Dict[str, Optional[Tuple]] = {}
        self._bucket_ids: Dict[Tuple, int] = {}

    def _group_arrays(
        self, group: Optional[str]
    ) -> Tuple[array, array, Dict[int, int]]:
        """Row-index and value arrays of one group, in fold order."""
        entry = self._group_cache.get(group)
        if entry is None:
            order = self._group_order[group]
            terms = self._terms
            entry = (
                array("q", order),
                array("d", [terms[index].value for index in order]),
                {index: position for position, index in enumerate(order)},
            )
            self._group_cache[group] = entry
        return entry

    def _fold_groups(
        self, groups: Sequence[Optional[str]]
    ) -> Dict[Optional[str], Sequence[float]]:
        """Baseline columns of whole groups in one kernel call."""
        arrays = [self._group_arrays(group) for group in groups]
        columns = self._kernel.group_fold(
            [entry[0] for entry in arrays],
            self.n_vals,
            self._is_max,
            [entry[1] for entry in arrays],
            self._dead,
        )
        return dict(zip(groups, columns))

    def _align_originals(self) -> List[Dict[Optional[str], float]]:
        """Original vectors per valuation, in current-group coordinates.

        Folds ``_orig_lists`` through ``_image``.  A repeated batch
        member shares one entry list, so its vector is folded once and
        dict-copied per extra position (the copies stay independent --
        ``advance`` refolds them in place).
        """
        aligned: List[Dict[Optional[str], float]] = []
        image_of = self._image
        folded: Dict[int, Dict[Optional[str], float]] = {}
        for entries in self._orig_lists:
            cached = folded.get(id(entries))
            if cached is not None:
                aligned.append(dict(cached))
                continue
            vector: Dict[Optional[str], float] = {}
            for key, value in entries:
                image = image_of[key]
                if image in vector:
                    vector[image] = self.monoid.combine(vector[image], value)
                else:
                    vector[image] = value
            folded[id(entries)] = vector
            aligned.append(vector)
        return aligned

    # -- candidate scoring ---------------------------------------------------------

    #: Placeholder key for the candidate's merged annotation / group.
    _MARKER = "\x00merged"

    def _part_terms(self, part_keys: Sequence[object]) -> List[int]:
        """Indexes of the terms mentioning any part, in first-seen order.

        The one walk over a candidate's term neighborhood: the scoring
        state (:meth:`_candidate_state`) overrides exactly these terms'
        dead rows, while the size (:meth:`_candidate_size`) needs only
        the indexes.
        """
        affected: List[int] = []
        seen: set = set()
        for part_key in part_keys:
            for index in self._ann_terms.get(part_key, ()):
                if index not in seen:
                    seen.add(index)
                    affected.append(index)
        return affected

    def _candidate_state(
        self, parts: Sequence[str]
    ) -> Tuple[FrozenSet[str], List[int], array, bool]:
        """Shared per-candidate precomputation: the merge's neighborhood.

        Returns the part set, the indexes of the terms the merge
        touches, their substituted dead rows as one override table
        (row ``j`` for ``affected[j]``, addressed by the folds as row
        ``n_terms + j``), and whether any part is itself a group key
        (group-merge case).
        """
        part_set = frozenset(parts)
        key = self._key
        part_keys = [key(name) for name in parts]
        # OR combiner over 0/1 valuations: the merged annotation is
        # false exactly where every part is, i.e. the AND of the rows.
        bits_of = self._mask_bits
        merged = bits_of[part_keys[0]]
        for part_key in part_keys[1:]:
            merged &= bits_of[part_key]
        substituted = frozenset(part_keys)
        affected = self._part_terms(part_keys)
        ann_keys = self._term_ann_keys
        guard_keys = self._term_guard_keys
        width = self._row_bytes
        overrides = array("Q")
        overrides.frombytes(
            b"".join(
                self._dead_bits(
                    ann_keys[index], guard_keys[index], substituted, merged
                ).to_bytes(width, "little")
                for index in affected
            )
        )
        group_merge = any(part in self._group_terms for part in parts)
        return part_set, affected, overrides, group_merge

    def _estimate(self, distance_value: float) -> DistanceEstimate:
        max_error = self.computer.max_error
        normalized = (
            min(1.0, distance_value / max_error) if max_error > 0 else 0.0
        )
        # Hottest allocation of a step: built once per scored candidate.
        # The frozen dataclass ``__init__`` pays object.__setattr__ per
        # field; writing the dict wholesale keeps eq/hash semantics and
        # drops most of that cost.
        estimate = DistanceEstimate.__new__(DistanceEstimate)
        estimate.__dict__.update(
            value=distance_value,
            normalized=normalized,
            n_valuations=self.n_vals,
            exact=True,
        )
        return estimate

    def _recompute_groups(
        self,
        parts: FrozenSet[str],
        affected: Sequence[int],
        overrides: array,
        group_merge: bool,
    ) -> Dict[Optional[str], Sequence[float]]:
        """Disturbed groups' columns in one index-addressed kernel call.

        A group holding an affected term is refolded with that term's
        row index pointed at its override row; under a group merge the
        parts' groups fold as one marker group.  Groups come in
        first-touched order, the marker's members in part-set order
        (descending value for MAX).
        """
        marker = self._MARKER
        terms = self._terms
        n_terms = len(terms)
        slots: Dict[Optional[str], List[Tuple[int, int]]] = {}
        for offset, index in enumerate(affected):
            group = terms[index].group
            image = marker if group in parts else group
            bucket = slots.get(image)
            if bucket is None:
                slots[image] = bucket = []
            bucket.append((index, n_terms + offset))
        merged: List[int] = []
        if group_merge:
            for part in parts:
                merged.extend(self._group_terms.get(part, ()))
            if merged:
                if self._is_max:
                    merged.sort(key=lambda index: -terms[index].value)
                slots.setdefault(marker, [])
        if not slots:
            return {}
        index_groups: List[array] = []
        value_groups: List[array] = []
        for image, bucket in slots.items():
            if image == marker:
                slot_of = dict(bucket)
                index_groups.append(
                    array("q", [slot_of.get(index, index) for index in merged])
                )
                value_groups.append(
                    array("d", [terms[index].value for index in merged])
                )
            else:
                indexes, values, position_of = self._group_arrays(image)
                patched = indexes[:]
                for index, slot in bucket:
                    patched[position_of[index]] = slot
                index_groups.append(patched)
                value_groups.append(values)
        columns = self._kernel.group_fold(
            index_groups,
            self.n_vals,
            self._is_max,
            value_groups,
            self._dead,
            overrides,
        )
        return dict(zip(slots, columns))

    def _candidate_size(
        self, parts: FrozenSet[str], affected: Sequence[int]
    ) -> int:
        """Size after the merge: only terms touching the merge can collide.

        A term is touched when the merge renames one of its (guard)
        annotations *or* its group -- a group-only rename can make two
        terms congruent even though neither mentions the merged
        annotations, so group members must be examined too.

        Two touched terms collide when their renamed monomials, guards
        and groups agree.  A name multiset renamed by ``parts → c`` is
        fixed by how many of its names are parts plus the sorted
        remaining names (filtering a sorted tuple keeps it sorted), so
        the keys are built from the step's presorted names with no
        per-candidate sort.  Colliding terms share a key and hence a
        size, so which one is counted first does not matter.

        The exact reference for every size: :meth:`candidate_sizes`
        serves the common pair shapes from per-name buckets and falls
        back here for the rest.
        """
        size = self.current.size()
        touched = affected
        extra = [
            index
            for part in parts
            for index in self._group_terms.get(part, ())
        ]
        if extra:
            listed = set(affected)
            touched = list(affected)
            for index in extra:
                if index not in listed:
                    listed.add(index)
                    touched.append(index)
        terms = self._terms
        names_of = self._term_names
        guards_of = self._term_guard_names
        marker = self._MARKER
        keys: set = set()
        for index in touched:
            names = names_of[index]
            kept = tuple([name for name in names if name not in parts])
            guards = guards_of[index]
            if guards:
                guards = tuple(
                    _renamed_guard(guard, parts) for guard in guards
                )
            group = terms[index].group
            key = (
                len(names) - len(kept),
                kept,
                guards,
                marker if group in parts else group,
            )
            if key in keys:
                size -= terms[index].size()
            else:
                keys.add(key)
        return size

    def _name_buckets(self, name: str) -> Optional[Tuple]:
        """One name's collision buckets for the pair-size pass.

        Every term mentioning ``name`` goes into the bucket keyed by
        its sorted names without ``name``, its guards and its group
        (interned to an int per step).  Returns ``(bucket → term size,
        dup, partners)``: ``dup`` is the size of the terms identical to
        an earlier one in the same bucket (only in a non-canonical
        expression), ``partners`` every name sharing a term with
        ``name``.  ``None`` when the pass does not cover the name: a
        group key, a guard annotation, or a name in a term with a
        repeated name.
        """
        info = self._size_info.get(name, False)
        if info is not False:
            return info
        info = None
        if name not in self._group_terms:
            terms = self._terms
            names_of = self._term_names
            guards_of = self._term_guard_names
            bucket_ids = self._bucket_ids
            buckets: Dict[int, int] = {}
            dup = 0
            partners: set = set()
            for index in self._ann_terms.get(self._key(name), ()):
                names = names_of[index]
                guards = guards_of[index]
                if any(name in guard[0] for guard in guards):
                    break
                if len(set(names)) != len(names):
                    break
                position = names.index(name)
                bucket = bucket_ids.setdefault(
                    (
                        names[:position] + names[position + 1:],
                        guards,
                        terms[index].group,
                    ),
                    len(bucket_ids),
                )
                size = terms[index].size()
                if bucket in buckets:
                    dup += size
                else:
                    buckets[bucket] = size
                partners.update(names)
            else:
                info = (buckets, dup, partners)
        self._size_info[name] = info
        return info

    def candidate_sizes(
        self, parts_list: Sequence[Sequence[str]]
    ) -> Tuple[List[int], int]:
        """Exact post-merge sizes of many candidates in one pass.

        Under a pair merge ``{a, b}`` whose parts are plain monomial
        names (no group key, no guard, no repeated name) in disjoint
        terms, a term mentioning ``a`` collides with one mentioning
        ``b`` exactly when both sit in one bucket of
        :meth:`_name_buckets`, so ``size(a, b) = size − pair[a, b] −
        dup[a] − dup[b]``.  Every other candidate is served by the
        reference :meth:`_candidate_size`.  Returns the sizes, in
        order, and how many took the reference.
        """
        size = self.current.size()
        sizes: List[int] = []
        fallback = 0
        buckets_of = self._name_buckets
        for parts in parts_list:
            if len(parts) == 2:
                first = buckets_of(parts[0])
                second = buckets_of(parts[1]) if first is not None else None
                if second is not None and parts[1] not in first[2]:
                    small, large = first[0], second[0]
                    if len(large) < len(small):
                        small, large = large, small
                    pair = 0
                    for bucket, term_size in small.items():
                        if bucket in large:
                            pair += term_size
                    sizes.append(size - pair - first[1] - second[1])
                    continue
            fallback += 1
            sizes.append(self.candidate_size(parts))
        return sizes, fallback


    # -- sparse state ------------------------------------------------------------

    def _build_nonzero(self) -> None:
        """Per-valuation nonzero metric contributions of the baseline.

        A repeated batch member's baseline and original values are
        position-independent (all its positions carry the same dead
        bits), so its contributions are computed once and dict-copied
        per extra position -- the copies must stay independent because
        ``_refresh_contributions`` mutates them per position.
        """
        contrib = self.val_func.metric_contrib
        self._nonzero = []
        self._nonzero_sum = []
        built: Dict[int, Tuple[Dict[Optional[str], float], float]] = {}
        for index in range(self.n_vals):
            cached = built.get(id(self.valuations[index]))
            if cached is not None:
                self._nonzero.append(dict(cached[0]))
                self._nonzero_sum.append(cached[1])
                continue
            orig_vec = self._orig_aligned[index]
            entries: Dict[Optional[str], float] = {}
            total = 0.0
            for key in orig_vec.keys() | self._baseline.keys():
                values = self._baseline.get(key)
                value = contrib(
                    orig_vec.get(key, 0.0),
                    values[index] if values is not None else 0.0,
                )
                if value != 0.0:
                    entries[key] = value
                    total += value
            built[id(self.valuations[index])] = (entries, total)
            self._nonzero.append(entries)
            self._nonzero_sum.append(total)

    def _refresh_contributions(self, part_set: FrozenSet[str], refresh: set) -> None:
        """Re-base the nonzero contributions past a merge.

        Pops the merged annotations' old group contributions, refreshes
        the disturbed groups' new ones, and corrects each position's
        running sum by what changed.
        """
        contrib = self.val_func.metric_contrib
        for index in range(self.n_vals):
            nonzero = self._nonzero[index]
            delta = 0.0
            for part in part_set:
                removed = nonzero.pop(part, None)
                if removed is not None:
                    delta -= removed
            orig_vec = self._orig_aligned[index]
            for key in refresh:
                values = self._baseline.get(key)
                value = contrib(
                    orig_vec.get(key, 0.0),
                    values[index] if values is not None else 0.0,
                )
                delta += value - nonzero.get(key, 0.0)
                if value != 0.0:
                    nonzero[key] = value
                else:
                    nonzero.pop(key, None)
            self._nonzero_sum[index] += delta

    # -- sparse column mirrors ---------------------------------------------------

    def _drop_sparse_columns(self) -> None:
        """Invalidate the columnar mirrors (state they mirror changed)."""
        self._base_col = None
        self._nonzero_cols.clear()
        self._orig_cols.clear()

    def _sparse_base_col(self) -> array:
        if self._base_col is None:
            self._base_col = array("d", self._nonzero_sum)
        return self._base_col

    def _sparse_zero_col(self) -> array:
        if self._zero_col is None:
            self._zero_col = array("d", bytes(8 * self.n_vals))
        return self._zero_col

    def _nonzero_col(self, key: object) -> array:
        """Dense column of one key's nonzero contributions (0.0 absent).

        The nonzero dicts never store 0.0 (``value != 0.0`` gates the
        insert), so the dense column and the dict agree exactly on
        which coordinates carry a value.
        """
        col = self._nonzero_cols.get(key)
        if col is None:
            col = array("d", bytes(8 * self.n_vals))
            nonzero_of = self._nonzero
            for index in range(self.n_vals):
                value = nonzero_of[index].get(key)
                if value is not None:
                    col[index] = value
            self._nonzero_cols[key] = col
        return col

    def _orig_col(self, group: Optional[str]) -> array:
        """Dense column of one group's aligned original values."""
        col = self._orig_cols.get(group)
        if col is None:
            aligned = self._orig_aligned
            col = array(
                "d",
                (aligned[index].get(group, 0.0) for index in range(self.n_vals)),
            )
            self._orig_cols[group] = col
        return col

    # -- candidate scoring -------------------------------------------------------

    def score(self, parts: Sequence[str]) -> Tuple[int, DistanceEstimate]:
        """Size and distance of the merge ``parts → c``.

        Per valuation, the candidate's metric is the baseline's running
        contribution sum, minus the contributions of every key the
        merge disturbs (the parts and the recomputed groups, in that
        order), plus the recomputed groups' fresh contributions (in
        dict order), finished and weighted.  The walk runs over dense
        float64 columns in one kernel call.
        """
        marker = self._MARKER
        part_set, affected, overrides, group_merge = self._candidate_state(
            parts
        )
        recomputed = self._recompute_groups(
            part_set, affected, overrides, group_merge
        )
        excluded = list(part_set)
        excluded.extend(
            group for group in recomputed if group not in part_set
        )
        minus = [self._nonzero_col(key) for key in excluded]
        contribs: List[Tuple[Sequence[float], Sequence[float]]] = []
        for group, values in recomputed.items():
            if group == marker:
                if group_merge:
                    originals: Sequence[float] = array(
                        "d",
                        (
                            self._fold_orig(index, part_set)
                            for index in range(self.n_vals)
                        ),
                    )
                else:
                    originals = self._sparse_zero_col()
            else:
                originals = self._orig_col(group)
            contribs.append((originals, values))
        total = self._kernel.sparse_scores(
            self._sparse_base_col(),
            minus,
            contribs,
            self._weights_col,
            self.val_func.contrib_kind,
        )
        total_weight = self._weight_sum
        distance_value = total / total_weight if total_weight else 0.0
        estimate = self._estimate(distance_value)
        return self._candidate_size(part_set, affected), estimate

    def candidate_size(self, parts: Sequence[str]) -> int:
        """Exact post-merge size of one candidate (no distance walk).

        Reads term structure only: no merged mask, no dead rows.
        """
        key = self._key
        affected = self._part_terms([key(name) for name in parts])
        return self._candidate_size(frozenset(parts), affected)

    def size_intersects(self, parts: Sequence[str]) -> bool:
        """Whether the last applied merge may have moved this candidate's size.

        A candidate's size reads only the terms it touches: those
        mentioning its parts and those grouped under them
        (:meth:`_candidate_size`).  When none of them is among the
        merge's ``last_affected_terms``, the merge carried every one
        verbatim, so the candidate's collisions are unchanged and its
        size shifts by exactly ``last_size_shift`` (given
        ``last_shift_local``).  Sharing an aggregate group with the
        merge moves the candidate's *distance*, not its size.  A part
        names such a term exactly when it is one of the affected terms'
        names or groups, collected once per step by :meth:`advance`.
        """
        return not self._last_touched.isdisjoint(parts)

    def _fold_orig(self, index: int, keys: FrozenSet[str]) -> float:
        """Fold the aligned original values of ``keys`` (group merge).

        Values combine in the aligned vector's iteration order, as the
        reference alignment folds colliding keys.
        """
        acc: Optional[float] = None
        for key, value in self._orig_aligned[index].items():
            if key in keys:
                acc = value if acc is None else self.monoid.combine(acc, value)
        return 0.0 if acc is None else acc

    # -- step transition ---------------------------------------------------------

    def advance(
        self,
        parts: Sequence[str],
        new_name: str,
        new_expression: TensorSum,
        new_mapping: MappingState,
    ) -> None:
        """Carry the scorer past the applied merge ``parts → new_name``.

        ``new_expression`` / ``new_mapping`` must be the result of
        applying exactly that single-step homomorphism to the scorer's
        current expression and mapping.
        """
        part_set = frozenset(parts)
        key = self._key
        new_key = key(new_name)
        self.last_size_shift = new_expression.size() - self.current.size()
        # Size held by terms the merge cannot rewrite (no part appears in
        # them).  Mapped terms all contain ``new_key`` afterwards and
        # unaffected terms never do, so equal terms collapsed by
        # ``apply_mapping`` pair up strictly within one side; if the
        # unaffected side's total size survives unchanged, every collapse
        # was local to the merge's neighborhood and the carried-size
        # identity ``old + last_size_shift`` is exact.
        old_affected = set()
        for name in parts:
            old_affected.update(self._ann_terms.get(key(name), ()))
        old_unaffected_size = self.current.size() - sum(
            self._terms[index].size() for index in old_affected
        )
        bits_of = self._mask_bits
        merged = bits_of[key(parts[0])]
        for name in parts[1:]:
            merged &= bits_of[key(name)]
        for name in parts:
            del self._mask[key(name)]
            del bits_of[key(name)]
        # A fresh row: it stays valid after the part rows' backing
        # table is dropped.
        self._mask[new_key] = array(
            "Q", merged.to_bytes(self._row_bytes, "little")
        )
        bits_of[new_key] = merged
        runs = self._carried_runs(parts, new_name, new_expression)
        old_order = self._group_order
        self.current = new_expression
        self.mapping = new_mapping
        if runs is None:
            # A collapse outside the neighborhood moved carried terms:
            # rebuild every term.
            self._build_terms()
        else:
            self._set_terms(runs, old_order)

        new_unaffected_size = new_expression.size() - sum(
            self._terms[index].size()
            for index in self._ann_terms.get(new_key, ())
        )
        self.last_shift_local = old_unaffected_size == new_unaffected_size

        # The merge's neighborhood: the terms it rewrote (for the
        # engine's candidate carry) and their groups, whose baselines
        # are refolded in one kernel call; the rest carry.
        affected_terms = set(self._ann_terms.get(new_key, ()))
        affected_terms.update(self._group_terms.get(new_name, ()))
        self.last_affected_terms = affected_terms
        terms = self._terms
        touched_groups = {terms[index].group for index in affected_terms}
        touched_names = set(touched_groups)
        for index in affected_terms:
            touched_names.update(terms[index].all_annotation_names())
        self._last_touched = frozenset(touched_names)
        refolded = self._fold_groups(
            [
                group
                for group in self._group_order
                if group in touched_groups or group not in self._baseline
            ]
        )
        carried = self._baseline
        self._baseline = {
            group: refolded[group] if group in refolded else carried[group]
            for group in self._group_order
        }

        # Aligned originals: refold only the keys whose image changed.
        changed = {
            key for key, image in self._image.items() if image in part_set
        }
        for key in changed:
            self._image[key] = new_name
        if changed:
            for index in range(self.n_vals):
                vector = self._orig_aligned[index]
                for part in part_set:
                    vector.pop(part, None)
                acc: Optional[float] = None
                for key, value in self._orig_lists[index]:
                    if key in changed:
                        acc = value if acc is None else self.monoid.combine(acc, value)
                if acc is not None:
                    vector[new_name] = acc

        refresh = set(touched_groups)
        refresh.add(new_name)
        self._refresh_contributions(part_set, refresh)
        # The nonzero dicts, their running sums and the aligned
        # originals all moved; the columnar mirrors must follow.
        self._drop_sparse_columns()
        self.steps_carried += 1

    def _carried_runs(
        self,
        parts: Sequence[str],
        new_name: str,
        new_expression: TensorSum,
    ) -> Optional[List[Tuple[Optional[int], int]]]:
        """Where each new term comes from, as runs over the old terms.

        ``apply_mapping`` keeps term order and folds a collapsed term
        into its first occurrence, so the new terms are the old ones in
        order, minus the rewritten terms whose renamed key repeats an
        earlier one.  Returns ``(old start, count)`` runs of carried
        terms and ``(None, 1)`` for each rewritten term to recompute,
        or ``None`` when the walk does not account for every new term
        (a collapse among terms the merge did not rewrite).
        """
        key = self._key
        rewritten = set()
        for name in parts:
            rewritten.update(self._ann_terms.get(key(name), ()))
            rewritten.update(self._group_terms.get(name, ()))
        step = {name: new_name for name in parts}
        runs: List[Tuple[Optional[int], int]] = []
        seen: set = set()
        start = 0
        n_new = 0
        for index in sorted(rewritten):
            if index > start:
                runs.append((start, index - start))
                n_new += index - start
            renamed = self._terms[index].rename(step)
            congruence = (renamed.annotations, renamed.guards, renamed.group)
            if congruence not in seen:
                seen.add(congruence)
                runs.append((None, 1))
                n_new += 1
            start = index + 1
        n_old = len(self._terms)
        if start < n_old:
            runs.append((start, n_old - start))
            n_new += n_old - start
        if n_new != len(new_expression.terms):
            return None
        return runs

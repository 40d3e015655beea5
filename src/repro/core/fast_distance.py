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
   valuations is a couple of word-wise ORs.
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
applied, :meth:`FastStepScorer.advance` invalidates only the state
touching ``a``, ``b`` or ``c`` (annotation masks, term dead-masks,
group baselines, aligned original vectors and per-valuation metric
contributions) and carries everything else.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from array import array

from ..provenance.annotations import AnnotationUniverse
from ..provenance.monoids import CountMonoid, MaxMonoid, SumMonoid
from ..provenance.tensor_sum import Guard, TensorSum, Term
from ..provenance.valuation_classes import ValuationClass
from . import kernels
from .kernels.masktable import WordRow
from .kernels.protocol import SPARSE_KINDS, MaskedValue
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
        # Shared all-ones / all-zeros word rows (read-only by
        # convention; never handed out for mutation).
        self._full_row = kernels.full_row(self.n_vals)
        self._zero_row = kernels.zero_row(self.n_vals)

        self._build_masks()
        self._build_terms()
        terms = self._terms
        dead_of = self._term_dead
        self._baseline = self._kernel.baseline_scatter(
            [
                (group, [(terms[i].value, dead_of[i]) for i in indexes])
                for group, indexes in self._group_order.items()
            ],
            self.n_vals,
            self._is_max,
        )
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
        contiguous :class:`MaskTable` by the kernel backend;
        ``self._mask`` maps each key to a zero-copy view of its row.
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
        self._mask: Dict[object, WordRow] = {
            mask_key: table.row(row) for mask_key, row in row_of.items()
        }

    def _term_mask(
        self,
        index: int,
        mask_of: Mapping[object, WordRow],
        override_of: Optional[Mapping[object, WordRow]] = None,
    ) -> WordRow:
        """Valuations under which term ``index`` contributes nothing.

        ``override_of`` layers a handful of substituted rows over
        ``mask_of`` without copying it (candidate scoring substitutes
        only the merged annotations' rows).  Annotation and guard keys
        come pre-interned from ``_build_terms`` -- re-interning the same
        names for every scored candidate was a measurable slice of the
        seed path.  Single-operand folds return the operand itself:
        callers treat dead rows as read-only, so aliasing is safe.
        """
        rows: List[WordRow] = []
        if override_of is None:
            for mask_key in self._term_ann_keys[index]:
                rows.append(mask_of[mask_key])
        else:
            for mask_key in self._term_ann_keys[index]:
                mask = override_of.get(mask_key)
                rows.append(mask_of[mask_key] if mask is None else mask)
        for guard_token, guard_keys in self._term_guard_keys[index]:
            rows.append(
                self._guard_mask(guard_token, guard_keys, mask_of, override_of)
            )
        if not rows:
            return self._zero_row
        if len(rows) == 1:
            return rows[0]
        return self._kernel.fold_or(rows)

    def _guard_mask(
        self,
        guard_token: Guard,
        guard_keys: Sequence[object],
        mask_of: Mapping[object, WordRow],
        override_of: Optional[Mapping[object, WordRow]] = None,
    ) -> WordRow:
        compare = _COMPARE[guard_token.op]
        sat_alive = compare(guard_token.value, guard_token.threshold)
        sat_dead = compare(0.0, guard_token.threshold)
        if sat_alive and sat_dead:
            return self._zero_row
        if not sat_alive and not sat_dead:
            return self._full_row
        rows: List[WordRow] = []
        for mask_key in guard_keys:
            mask = (
                override_of.get(mask_key) if override_of is not None else None
            )
            if mask is None:
                mask = mask_of.get(mask_key)
            if mask is not None:
                rows.append(mask)
        if not rows:
            union: WordRow = self._zero_row
        elif len(rows) == 1:
            union = rows[0]
        else:
            union = self._kernel.fold_or(rows)
        if sat_alive:
            return union
        return self._kernel.fold_not(union, self.n_vals)

    def _build_terms(self) -> None:
        self._terms: List[Term] = list(self.current.terms)
        key = self._key
        self._term_ann_keys: List[List[object]] = [
            [key(name) for name in term.annotations] for term in self._terms
        ]
        self._term_guard_keys: List[List[Tuple[Guard, List[object]]]] = [
            [
                (guard, [key(name) for name in guard.annotations])
                for guard in term.guards
            ]
            for term in self._terms
        ]
        # Sorted monomial and guard names per term, built once per step:
        # ``_candidate_size`` derives every candidate's collision key
        # from these instead of re-sorting the touched terms' names.
        self._term_names: List[Tuple[str, ...]] = [
            tuple(sorted(term.annotations)) for term in self._terms
        ]
        self._term_guard_names: List[Tuple[Tuple, ...]] = [
            tuple(
                (tuple(sorted(guard.annotations)), guard.value, guard.op,
                 guard.threshold)
                for guard in term.guards
            )
            for term in self._terms
        ]
        self._term_dead: List[WordRow] = self._derive_term_dead()
        self._group_terms: Dict[Optional[str], List[int]] = {}
        self._ann_terms: Dict[object, List[int]] = {}
        key = self._key
        for index, term in enumerate(self._terms):
            self._group_terms.setdefault(term.group, []).append(index)
            for name in set(term.all_annotation_names()):
                self._ann_terms.setdefault(key(name), []).append(index)
        # Per-group term indexes in the order the fold consumes them:
        # descending value for MAX, so ``_fold_max`` never re-sorts the
        # same baseline group inside every candidate score; term order
        # for SUM/COUNT, whose subtraction fold must keep the original
        # association order to stay bit-identical.
        if self._is_max:
            terms = self._terms
            self._group_order: Dict[Optional[str], List[int]] = {
                group: sorted(indexes, key=lambda index: -terms[index].value)
                for group, indexes in self._group_terms.items()
            }
        else:
            self._group_order = self._group_terms
        # Per-group ``(value, dead-row)`` operand lists plus each term's
        # position, built lazily by ``_recompute_groups``: candidate
        # scoring then copies the list and patches only the overridden
        # positions instead of rebuilding every tuple per candidate.
        # Terms and dead rows were just replaced, so start fresh.
        self._group_mask_cache: Dict[
            Optional[str], Tuple[List[MaskedValue], Dict[int, int]]
        ] = {}

    def _derive_term_dead(self) -> List[WordRow]:
        """Dead row of every term under the current ``_mask`` table.

        Hook point: the sampled subclass memoizes per-term masks across
        ``advance()`` while its pinned batch survives (the batch fixes
        the bit ↔ draw correspondence, so an unchanged term's mask
        cannot change).
        """
        return [
            self._term_mask(index, self._mask)
            for index in range(len(self._terms))
        ]

    def _group_values(self, indexes: Sequence[int]) -> List[float]:
        """Aggregate value of one group under every valuation.

        ``indexes`` arrive in ``_group_order``: descending value for
        MAX, so each valuation takes the first alive value it sees.
        """
        dead_of = self._term_dead
        masks = [(self._terms[i].value, dead_of[i]) for i in indexes]
        fold = self._kernel.fold_max if self._is_max else self._kernel.fold_sum
        return fold(masks, self.n_vals)

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
    ) -> Tuple[FrozenSet[str], List[int], Dict[int, WordRow], bool]:
        """Shared per-candidate precomputation: the merge's neighborhood.

        Returns the part set, the indexes of the terms the merge
        touches, their substituted dead rows, and whether any part is
        itself a group key (group-merge case).
        """
        part_set = frozenset(parts)
        key = self._key
        part_keys = [key(name) for name in parts]
        # OR combiner over 0/1 valuations: the merged annotation is
        # false exactly where every part is, i.e. the AND of the rows.
        merged_mask = self._kernel.fold_and(
            [self._mask[part_key] for part_key in part_keys]
        )
        # Overlay instead of copying the whole mask dict: the handful
        # of affected-term lookups below never justify an
        # O(annotations) copy per candidate.
        overrides = {part_key: merged_mask for part_key in part_keys}

        affected = self._part_terms(part_keys)
        override = {
            index: self._term_mask(index, self._mask, overrides)
            for index in affected
        }
        group_merge = any(part in self._group_terms for part in parts)
        return part_set, affected, override, group_merge

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

    def _affected_group_indexes(
        self,
        parts: FrozenSet[str],
        marker: str,
        override: Mapping[int, int],
        group_merge: bool,
    ) -> Dict[Optional[str], Sequence[int]]:
        """Term indexes per group whose aggregate the merge disturbs."""
        affected_groups: Dict[Optional[str], Sequence[int]] = {}
        for index in override:
            group = self._terms[index].group
            image = marker if group in parts else group
            affected_groups.setdefault(image, [])
        if group_merge:
            merged_indexes: List[int] = []
            for part in parts:
                merged_indexes.extend(self._group_terms.get(part, ()))
            if merged_indexes:
                if self._is_max:
                    terms = self._terms
                    merged_indexes.sort(key=lambda index: -terms[index].value)
                affected_groups[marker] = merged_indexes
        for group in list(affected_groups):
            if group == marker:
                continue
            affected_groups[group] = self._group_order[group]
        return affected_groups

    def _recompute_groups(
        self,
        parts: FrozenSet[str],
        marker: str,
        override: Mapping[int, WordRow],
        group_merge: bool,
    ) -> Dict[Optional[str], List[float]]:
        """Disturbed groups' columns in one batched kernel call.

        Equivalent to ``{group: _group_values(indexes, override)}``
        over ``_affected_group_indexes`` -- the batching amortizes the
        per-call kernel dispatch across the candidate's groups.
        """
        affected = self._affected_group_indexes(
            parts, marker, override, group_merge
        )
        if not affected:
            return {}
        dead_of = self._term_dead
        terms = self._terms
        cache = self._group_mask_cache
        group_order = self._group_order
        batched: List[List[MaskedValue]] = []
        for group, indexes in affected.items():
            if indexes is group_order.get(group):
                # Whole-group recompute: copy the cached operand list
                # and patch just the overridden positions.
                entry = cache.get(group)
                if entry is None:
                    pre = [(terms[i].value, dead_of[i]) for i in indexes]
                    pos_of = {i: p for p, i in enumerate(indexes)}
                    cache[group] = entry = (pre, pos_of)
                pre, pos_of = entry
                masks: Optional[List[MaskedValue]] = None
                for i, row in override.items():
                    position = pos_of.get(i)
                    if position is not None:
                        if masks is None:
                            masks = list(pre)
                        masks[position] = (terms[i].value, row)
                batched.append(pre if masks is None else masks)
            else:
                # Marker/merged-group index lists are candidate-shaped.
                batched.append(
                    [
                        (terms[i].value, override.get(i, dead_of[i]))
                        for i in indexes
                    ]
                )
        columns = self._kernel.group_fold(batched, self.n_vals, self._is_max)
        return dict(zip(affected.keys(), columns))

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
        part_set, affected, override, group_merge = self._candidate_state(parts)
        recomputed = self._recompute_groups(
            part_set, marker, override, group_merge
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
        merge moves the candidate's *distance*, not its size.
        """
        affected = self.last_affected_terms
        key = self._key
        for name in parts:
            if not affected.isdisjoint(self._ann_terms.get(key(name), ())):
                return True
            if not affected.isdisjoint(self._group_terms.get(name, ())):
                return True
        return False

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
        # Fresh ``array('Q')`` (fold_and always copies): the merged row
        # stays valid after the part rows' backing table is dropped.
        merged_mask = self._kernel.fold_and(
            [self._mask[key(name)] for name in parts]
        )
        for name in parts:
            del self._mask[key(name)]
        self._mask[new_key] = merged_mask
        self.current = new_expression
        self.mapping = new_mapping

        # Terms, dead masks and indexes: O(#terms) integer work.
        self._build_terms()

        new_unaffected_size = new_expression.size() - sum(
            self._terms[index].size()
            for index in self._ann_terms.get(new_key, ())
        )
        self.last_shift_local = old_unaffected_size == new_unaffected_size

        # Group baselines: recompute the neighborhood, carry the rest.
        touched_groups = {
            self._terms[index].group
            for index in self._ann_terms.get(new_key, ())
        }
        if new_name in self._group_terms:
            touched_groups.add(new_name)
        baseline: Dict[Optional[str], List[float]] = {}
        for group, indexes in self._group_order.items():
            carried = self._baseline.get(group)
            if carried is None or group in touched_groups:
                baseline[group] = self._group_values(indexes)
            else:
                baseline[group] = carried
        self._baseline = baseline

        # The merge's neighborhood (for the engine's candidate carry).
        affected_terms = set(self._ann_terms.get(new_key, ()))
        affected_terms.update(self._group_terms.get(new_name, ()))
        self.last_affected_terms = affected_terms

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

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
   contributions, instead of a walk over every group.  That state is
   column-major, in the layout the kernel's ``sparse_scores`` walk
   reads: one ``array('d')`` per key, position ``i`` for valuation
   ``i``.  The original's side comes from
   :meth:`~repro.core.distance.DistanceComputer.original_columns` (a
   column per original group, constant for the run) and is aligned
   to the current groups by combining colliding keys' columns
   elementwise in original key order; a group merge's original
   (:meth:`FastStepScorer._fold_orig`) combines the parts' aligned
   columns in aligned order.  Each key's contribution column is
   ``metric_contrib`` of its original and baseline columns; keys
   whose two columns are byte-equal contribute nothing and are
   skipped.  The per-position running sum adds the columns in the
   order of the set union of original and baseline keys, and a
   merge's correction subtracts the parts' columns and adds each
   refreshed key's change in the same per-position order a walk over
   per-valuation dicts would, so every float is bit-identical to that
   walk.

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
keys and dead rows, group baselines, the merged key's aligned original
column and the refreshed keys' contribution columns) and carries
everything else.
"""

from __future__ import annotations

import bisect
import operator
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

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
        self._term_keys: List[Tuple[str, ...]] = []
        #: Dead row of every term: ``n_terms × n_words`` words, row ``i``
        #: for term ``i`` (read-only once built; ``advance`` builds a
        #: new table).
        self._dead = array("Q")

        self._build_masks()
        self._build_terms()
        self._baseline = self._fold_groups(list(self._group_order))
        #: An all-0.0 column: the value of every absent key.
        self._zero_col = array("d", bytes(8 * self.n_vals))
        # The original's columns per original group key: constants of
        # the run, read-only (see :meth:`DistanceComputer
        # .original_columns`).  ``_preimage`` lists the original keys
        # of each current group; ``_aligned`` holds the original in
        # current-group coordinates, colliding keys combined column by
        # column in original key order.  ``advance`` pops the merged
        # keys and appends their refold, so the dict's order is the
        # order ``_fold_orig`` combines in.
        self._orig_base = self._original_columns()
        self._orig_rank = {key: rank for rank, key in enumerate(self._orig_base)}
        #: Current group → the original keys it aligns, in key order.
        self._preimage: Dict[Optional[str], List[Optional[str]]] = {}
        for key in self._orig_base:
            image = self.mapping.get(key, key) if key is not None else None
            self._preimage.setdefault(image, []).append(key)
        self._aligned: Dict[Optional[str], array] = {
            image: self._combine_columns(self._orig_base[key] for key in keys)
            for image, keys in self._preimage.items()
        }
        #: Number of advance() carries since construction (telemetry).
        self.steps_carried = 0
        # Prop 4.2.2 on this expression (see :meth:`keeps_distance`).
        # A merge adds no guard, so both flags hold for every expression
        # ``advance`` carries the scorer to.
        self._revives_only = not any(
            guard.negated for term in current.terms for guard in term.guards
        )
        self._groups_keep_distance = (
            not self._is_max and self.val_func.contrib_kind != "isclose01"
        )

        # What the most recent advance() perturbed -- the engine's
        # lazy queue uses these to decide which carried sizes shift
        # verbatim (None until the first advance):
        #: Term slots (new state) the merge rewrote: those mentioning
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

        #: Per-key metric contribution columns of the baseline; a key
        #: whose contribution is 0.0 everywhere is absent.
        self._contrib: Dict[Optional[str], array] = {}
        #: Per-position running sum of the contributions (key order of
        #: the build, then corrected by each merge's delta).  The
        #: sparse walk starts from this and subtracts the few excluded
        #: keys instead of re-walking every key.  The association dust
        #: this introduces stays far inside the engine's stale-key
        #: margin, and every recorded winner is freshly scored.
        self._nonzero_sum = self._zero_col
        # Position-indexed weights and their left-to-right sum, the
        # ``total_weight`` every candidate's weighted mean divides by.
        self._weights_col = array(
            "d", [valuation.weight for valuation in self.valuations]
        )
        weight_sum = 0.0
        for weight in self._weights_col:
            weight_sum += weight
        self._weight_sum: float = weight_sum
        self._build_nonzero()

    # -- precomputation ---------------------------------------------------------

    def _step_valuations(self) -> List:
        """The valuations this step scores against.

        The enumerating scorer walks the whole class; the sampled
        subclass overrides this with its Monte-Carlo batch.
        """
        return list(self.computer.valuations)

    def _original_columns(self) -> Dict[Optional[str], array]:
        """The original's columns over :attr:`valuations`.

        The enumerating scorer reads the computer's whole-class columns
        (built once per computer); the sampled subclass builds them
        over its batch.
        """
        return self.computer.original_columns()

    def _mask_rows(self) -> Dict[str, int]:
        """Table-row index per annotation name, in expression order."""
        row_of: Dict[str, int] = {}
        for name in self.current.annotation_names():
            if name not in row_of:
                row_of[name] = len(row_of)
        return row_of

    def _build_masks(self) -> None:
        """Lifted false word row per current annotation.

        The per-valuation false sets are gathered in python (they come
        from the combiners' lifted semantics) and scattered into one
        contiguous :class:`MaskTable` by the kernel backend.
        """
        row_of = self._mask_rows()
        combiners = self.computer.combiners
        entries: List[Tuple[List[int], Tuple[int, ...]]] = []
        for index, valuation in enumerate(self.valuations):
            rows: List[int] = []
            for name in combiners.lifted_false_set(
                valuation, self.mapping, self.universe
            ):
                # Lifted sets may mention names outside the expression,
                # which have no row.
                row = row_of.get(name)
                if row is not None:
                    rows.append(row)
            if rows:
                entries.append((rows, (index,)))
        table = self._kernel.scatter_false_sets(
            len(row_of), entries, self.n_vals
        )
        self._set_masks(table, row_of)

    def _set_masks(self, table: MaskTable, row_of: Mapping[str, int]) -> None:
        """Adopt a scattered mask table.

        ``self._mask`` maps each name to a zero-copy view of its row;
        ``self._mask_bits`` holds the same rows as ints, which the
        per-term dead-row algebra ORs together.
        """
        self._mask: Dict[str, WordRow] = {
            name: table.row(row) for name, row in row_of.items()
        }
        self._mask_bits: Dict[str, int] = {
            name: int.from_bytes(row, "little")
            for name, row in self._mask.items()
        }

    def _dead_bits(
        self,
        names: Sequence[str],
        guards: Sequence[Guard],
        parts: Optional[FrozenSet[str]] = None,
        merged: int = 0,
    ) -> int:
        """Valuations under which a term contributes nothing, as an int.

        ``parts``/``merged`` substitute the candidate's merged row for
        the parts' rows (candidate scoring); annotation and guard names
        come from the term tables.
        """
        bits_of = self._mask_bits
        dead = 0
        if parts is None:
            for name in names:
                dead |= bits_of[name]
        else:
            for name in names:
                dead |= merged if name in parts else bits_of[name]
        for guard_token in guards:
            dead |= self._guard_bits(guard_token, parts, merged)
        return dead

    def _guard_bits(
        self,
        guard_token: Guard,
        parts: Optional[FrozenSet[str]],
        merged: int,
    ) -> int:
        bits_of = self._mask_bits
        union = 0
        for name in guard_token.annotations:
            if parts is not None and name in parts:
                union |= merged
            else:
                union |= bits_of.get(name, 0)
        return guard_token.dead_bits(union, self._full_bits)

    def _term_structure(self, term: Term) -> Tuple:
        """A term's presorted name tables.

        ``(sorted names, sorted guard names, distinct names)``:
        ``_candidate_size`` derives collision keys from the sorted
        names, the dead-row algebra ORs the rows of the names and of
        the guards' annotations, and ``_ann_terms`` indexes the
        distinct names (guard annotations included).
        """
        names = tuple(sorted(term.annotations))
        guard_names = tuple(
            (tuple(sorted(guard.annotations)), guard.value, guard.op,
             guard.threshold)
            for guard in term.guards
        )
        all_names = names
        if term.guards:
            all_names = names + tuple(
                name for guard in term.guards for name in guard.annotations
            )
        return (names, guard_names, tuple(dict.fromkeys(all_names)))

    def _build_terms(self) -> None:
        """Every term's tables and dead row, from scratch: slot ``i``
        holds the expression's term ``i``."""
        terms = list(self.current.terms)
        tables: Tuple[list, ...] = ([], [], [])
        width = self._row_bytes
        chunks: list = []
        for term in terms:
            structure = self._term_structure(term)
            for table, value in zip(tables, structure):
                table.append(value)
            chunks.append(
                self._dead_bits(structure[0], term.guards).to_bytes(width, "little")
            )
        self.mask_builds += len(terms)
        self._terms = terms
        (
            self._term_names,
            self._term_guard_names,
            self._term_keys,
        ) = tables
        self._slots = list(range(len(terms)))
        self._dead = array("Q")
        self._dead.frombytes(b"".join(chunks))
        self._index_terms()

    def _index_terms(self) -> None:
        """Group and annotation indexes over the current term tables."""
        group_terms: Dict[Optional[str], List[int]] = {}
        for index, term in enumerate(self._terms):
            members = group_terms.get(term.group)
            if members is None:
                group_terms[term.group] = [index]
            else:
                members.append(index)
        self._group_terms = group_terms
        ann_terms: Dict[str, List[int]] = {}
        for index, names in enumerate(self._term_keys):
            for name in names:
                members = ann_terms.get(name)
                if members is None:
                    ann_terms[name] = [index]
                else:
                    members.append(index)
        self._ann_terms = ann_terms
        # Per-group term slots in the order the fold consumes them:
        # descending value for MAX, so the fold never re-sorts the
        # same baseline group inside every candidate score; term order
        # for SUM/COUNT, whose subtraction fold must keep the original
        # association order to stay bit-identical.
        self._group_order = group_terms
        if self._is_max:
            self._group_order = {
                group: self._max_order(indexes)
                for group, indexes in group_terms.items()
            }
        # Per-group ``(row slots, values, position of slot)`` arrays for
        # the index-addressed ``group_fold``, built lazily.
        self._group_cache: Dict[
            Optional[str], Tuple[array, array, Dict[int, int]]
        ] = {}
        # Per-name size buckets for :meth:`candidate_sizes`, built
        # lazily, and the content-keyed bucket ids they use.
        self._size_info: Dict[str, Optional[Tuple]] = {}
        self._bucket_ids: Dict[Tuple, int] = {}

    def _max_order(self, indexes: Sequence[int]) -> List[int]:
        """A group's ascending term slots in descending value order
        (ties keep term order)."""
        terms = self._terms
        return sorted(indexes, key=lambda index: -terms[index].value)

    def _rewrite_terms(self, rewritten: AbstractSet[int], folded: Mapping) -> None:
        """Carry the term tables past a merge, in place.

        ``rewritten`` are the slots of the terms the merge renamed,
        ``folded`` the expression positions ``apply_mapping`` folded
        away (all of them rewritten).  A folded slot is emptied and
        never read again; every other rewritten slot takes its renamed
        term, recomputed.  Every other slot keeps its term, tables and
        dead row, so only the rewritten terms' groups and names change
        members in the indexes; every other index list, fold order,
        fold array and size bucket carries (:meth:`advance` prunes the
        size buckets to the names the merge left alone).
        """
        slots = self._slots
        gone = {slots[position] for position in folded}
        for position in sorted(folded, reverse=True):
            del slots[position]
        terms = self._terms
        keys = self._term_keys
        tables = (self._term_names, self._term_guard_names, keys)
        dead = array("Q", self._dead)
        n_words = self._n_words
        width = self._row_bytes
        expression_terms = self.current.terms
        old = {}
        fresh_groups: Dict[Optional[str], List[int]] = {}
        fresh_names: Dict[str, List[int]] = {}
        for slot in sorted(rewritten):
            old[slot] = (terms[slot].group, keys[slot])
            if slot in gone:
                term = None
                structure: Tuple = ((), (), ())
                bits = 0
            else:
                term = expression_terms[bisect.bisect_left(slots, slot)]
                structure = self._term_structure(term)
                bits = self._dead_bits(structure[0], term.guards)
                fresh_groups.setdefault(term.group, []).append(slot)
                for name in structure[2]:
                    fresh_names.setdefault(name, []).append(slot)
                self.mask_builds += 1
            terms[slot] = term
            for table, value in zip(tables, structure):
                table[slot] = value
            dead[slot * n_words : (slot + 1) * n_words] = array(
                "Q", bits.to_bytes(width, "little")
            )
        self._dead = dead

        dirty_groups = set(fresh_groups)
        dirty_names = set(fresh_names)
        for group, names in old.values():
            dirty_groups.add(group)
            dirty_names.update(names)
        for index, fresh, dirty in (
            (self._group_terms, fresh_groups, dirty_groups),
            (self._ann_terms, fresh_names, dirty_names),
        ):
            for key in dirty:
                members = [
                    slot for slot in index.get(key, ()) if slot not in rewritten
                ]
                members.extend(fresh.get(key, ()))
                if members:
                    members.sort()
                    index[key] = members
                else:
                    index.pop(key, None)
        if self._is_max:
            order = self._group_order
            for group in dirty_groups:
                members = self._group_terms.get(group)
                if members is None:
                    order.pop(group, None)
                else:
                    order[group] = self._max_order(members)
        cache = self._group_cache
        for group in dirty_groups:
            cache.pop(group, None)

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
        # Baselines are read as arrays (byte comparison, map combines);
        # the native backend already returns them.
        return {
            group: column if isinstance(column, array) else array("d", column)
            for group, column in zip(groups, columns)
        }

    # -- candidate scoring ---------------------------------------------------------

    #: Placeholder key for the candidate's merged annotation / group.
    _MARKER = "\x00merged"

    def _part_terms(self, parts: Sequence[str]) -> List[int]:
        """Indexes of the terms mentioning any part, in first-seen order.

        The one walk over a candidate's term neighborhood: the scoring
        state (:meth:`_candidate_state`) overrides exactly these terms'
        dead rows, while the size (:meth:`_candidate_size`) needs only
        the indexes.
        """
        affected: List[int] = []
        seen: set = set()
        for name in parts:
            for index in self._ann_terms.get(name, ()):
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
        # OR combiner over 0/1 valuations: the merged annotation is
        # false exactly where every part is, i.e. the AND of the rows.
        bits_of = self._mask_bits
        merged = bits_of[parts[0]]
        for name in parts[1:]:
            merged &= bits_of[name]
        affected = self._part_terms(parts)
        names_of = self._term_names
        terms = self._terms
        width = self._row_bytes
        overrides = array("Q")
        overrides.frombytes(
            b"".join(
                self._dead_bits(
                    names_of[index], terms[index].guards, part_set, merged
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
        (numbered per step).  Returns ``(bucket → term size,
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
            for index in self._ann_terms.get(name, ()):
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

    def _contrib_col(self, key: Optional[str]) -> array:
        """One key's contribution column, recomputed from its original
        and baseline columns (an absent side reads 0.0)."""
        zero = self._zero_col
        return array(
            "d",
            map(
                self.val_func.metric_contrib,
                self._aligned.get(key, zero),
                self._baseline.get(key, zero),
            ),
        )

    def _build_nonzero(self) -> None:
        """Per-key contribution columns of the baseline and their sum.

        Keys come in the order of the set union of original and
        baseline keys; a key whose two columns are byte-equal
        contributes 0.0 everywhere (``metric_contrib(x, x) == 0.0``)
        and is skipped.  Adding a 0.0 contribution to a non-negative
        sum is an IEEE identity, so summing whole columns equals the
        per-position sum over nonzero contributions bit for bit.
        """
        zero = self._zero_col
        aligned = self._aligned
        baseline = self._baseline
        keys = aligned.keys() | baseline.keys()
        #: Keys the build walked: original and current groups.
        self.n_keys = len(keys)
        total = zero
        for key in keys:
            originals = aligned.get(key, zero)
            values = baseline.get(key, zero)
            if originals.tobytes() == values.tobytes():
                continue
            column = self._contrib_col(key)
            if any(column):
                self._contrib[key] = column
                total = array("d", map(operator.add, total, column))
        self._nonzero_sum = total

    @property
    def nonzero_keys(self) -> int:
        """Keys with a nonzero contribution at some position."""
        return len(self._contrib)

    def _refresh_contributions(self, part_set: FrozenSet[str], refresh: set) -> None:
        """Re-base the contribution columns past a merge.

        Drops the merged annotations' old group contributions,
        refreshes the disturbed groups' new ones, and corrects each
        position's running sum by what changed.  Per position the
        operations run in the order of a walk over the keys: the
        parts' contributions subtracted in part-set order, then each
        refreshed key's ``fresh − old`` added in set order, then the
        delta added to the sum.
        """
        zero = self._zero_col
        columns = self._contrib
        delta = zero
        for part in part_set:
            removed = columns.pop(part, None)
            if removed is not None:
                delta = array("d", map(operator.sub, delta, removed))
        for key in refresh:
            fresh = self._contrib_col(key)
            delta = array(
                "d",
                map(
                    operator.add,
                    delta,
                    map(operator.sub, fresh, columns.get(key, zero)),
                ),
            )
            if any(fresh):
                columns[key] = fresh
            else:
                columns.pop(key, None)
        self._nonzero_sum = array(
            "d", map(operator.add, self._nonzero_sum, delta)
        )

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
        zero = self._zero_col
        contrib_of = self._contrib
        minus = [contrib_of.get(key, zero) for key in excluded]
        contribs: List[Tuple[Sequence[float], Sequence[float]]] = []
        for group, values in recomputed.items():
            if group != marker:
                originals = self._aligned.get(group, zero)
            elif group_merge:
                originals = self._fold_orig(part_set)
            else:
                originals = zero
            contribs.append((originals, values))
        total = self._kernel.sparse_scores(
            self._nonzero_sum,
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
        affected = self._part_terms(parts)
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

    @property
    def last_touched(self) -> FrozenSet[Optional[str]]:
        """Names and groups of ``last_affected_terms``: a candidate
        mentioning none of them kept its size up to
        ``last_size_shift`` (:meth:`size_intersects`)."""
        return self._last_touched

    def keeps_distance(self, parts: Sequence[str]) -> bool:
        """Whether merging ``parts`` cannot lower the distance (Prop 4.2.2).

        Under the OR combiner the merged annotation is true wherever a
        part is, so the merge only revives terms: over non-negative
        MAX/SUM/COUNT values every group's summary value stays at or
        above the original's and moves away from it, one valuation at a
        time, and each metric contribution grows.  Two cases break
        that.  A negated guard (:attr:`~repro.provenance.tensor_sum
        .Guard.negated`) cancels its term where the merge makes its
        annotation true.  A merge of group keys compares combined
        groups: under MAX a larger original absorbs a revived value
        (``max(3, 5) == max(1, 5)``), and Disagreement's relative
        tolerance can absorb a small group's gap into a large one's.
        """
        if not self._revives_only:
            return False
        return self._groups_keep_distance or self._group_terms.keys().isdisjoint(
            parts
        )

    @property
    def merges_keep_distance(self) -> bool:
        """Whether :meth:`keeps_distance` holds for every merge."""
        return self._revives_only and self._groups_keep_distance

    def _fold_orig(self, keys: FrozenSet[str]) -> array:
        """Combine the aligned original columns of ``keys`` (group merge).

        Columns combine elementwise in the aligned dict's order, as the
        reference alignment folds colliding keys; no key aligned reads
        0.0.
        """
        combined = self._combine_columns(
            column for key, column in self._aligned.items() if key in keys
        )
        return self._zero_col if combined is None else combined

    def _combine_columns(self, columns: Iterable[array]) -> Optional[array]:
        """Left fold of ``columns`` through the monoid, elementwise.

        ``max`` and ``+`` are MAX's and SUM/COUNT's ``combine`` run as C
        builtins.  ``None`` for no column; a single column is returned
        as is (columns are never written in place).
        """
        combine = max if self._is_max else operator.add
        acc: Optional[array] = None
        for column in columns:
            acc = column if acc is None else array("d", map(combine, acc, column))
        return acc

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
        self.last_size_shift = new_expression.size() - self.current.size()
        # Size held by terms the merge cannot rewrite (no part appears in
        # them).  Mapped terms all contain ``new_name`` afterwards and
        # unaffected terms never do, so equal terms collapsed by
        # ``apply_mapping`` pair up strictly within one side; if the
        # unaffected side's total size survives unchanged, every collapse
        # was local to the merge's neighborhood and the carried-size
        # identity ``old + last_size_shift`` is exact.
        old_affected = set()
        for name in parts:
            old_affected.update(self._ann_terms.get(name, ()))
        old_unaffected_size = self.current.size() - sum(
            self._terms[index].size() for index in old_affected
        )
        bits_of = self._mask_bits
        merged = bits_of[parts[0]]
        for name in parts[1:]:
            merged &= bits_of[name]
        for name in parts:
            del self._mask[name]
            del bits_of[name]
        # A fresh row: it stays valid after the part rows' backing
        # table is dropped.
        self._mask[new_name] = array(
            "Q", merged.to_bytes(self._row_bytes, "little")
        )
        bits_of[new_name] = merged
        carried = self._carried_terms(parts, new_expression)
        self.current = new_expression
        self.mapping = new_mapping
        if carried is None:
            # A collapse outside the neighborhood moved carried terms:
            # rebuild every term.
            self._build_terms()
        else:
            self._rewrite_terms(*carried)

        new_unaffected_size = new_expression.size() - sum(
            self._terms[index].size()
            for index in self._ann_terms.get(new_name, ())
        )
        self.last_shift_local = old_unaffected_size == new_unaffected_size

        # The merge's neighborhood: the terms it rewrote (for the
        # engine's candidate carry) and their groups, whose baselines
        # are refolded in one kernel call; the rest carry.
        affected_terms = set(self._ann_terms.get(new_name, ()))
        affected_terms.update(self._group_terms.get(new_name, ()))
        self.last_affected_terms = affected_terms
        terms = self._terms
        touched_groups = {terms[index].group for index in affected_terms}
        touched_names = set(touched_groups)
        for index in affected_terms:
            touched_names.update(terms[index].all_annotation_names())
        self._last_touched = frozenset(touched_names)
        if carried is not None:
            # A name's size buckets read only the terms mentioning it:
            # those of names the merge left alone carry.
            size_info = self._size_info
            for name in touched_names:
                size_info.pop(name, None)
            for name in part_set:
                size_info.pop(name, None)
        # Every group the merge created or changed holds a rewritten
        # term; a part's group is gone (renamed to ``new_name``).
        group_terms = self._group_terms
        baseline = self._baseline
        for part in part_set:
            if part not in group_terms:
                baseline.pop(part, None)
        baseline.update(
            self._fold_groups(
                [group for group in touched_groups if group in group_terms]
            )
        )

        # Aligned originals: refold only the keys whose image changed,
        # from the original columns in original key order.
        changed: List[Optional[str]] = []
        for part in part_set:
            changed.extend(self._preimage.pop(part, ()))
        if changed:
            changed.sort(key=self._orig_rank.__getitem__)
            self._preimage[new_name] = changed
            aligned = self._aligned
            for part in part_set:
                aligned.pop(part, None)
            aligned[new_name] = self._combine_columns(
                self._orig_base[key] for key in changed
            )

        refresh = set(touched_groups)
        refresh.add(new_name)
        self._refresh_contributions(part_set, refresh)
        self.steps_carried += 1

    def _carried_terms(
        self,
        parts: Sequence[str],
        new_expression: TensorSum,
    ) -> Optional[Tuple[set, Mapping[int, int]]]:
        """Which slots the merge rewrites, and which positions it folds.

        ``apply_mapping`` keeps term order and folds a collapsed term
        into its first occurrence, recording which source positions
        folded (:attr:`~repro.provenance.tensor_sum.TensorSum.folded`),
        so the new terms are the old ones in order, minus the folded
        ones.  Returns the rewritten slots (terms mentioning a part or
        grouped under one) and the folded positions, or ``None`` when a
        fold involves a term the merge did not rewrite (a collapse
        outside its neighborhood) or the expression records no folds.
        """
        folded = new_expression.folded
        if folded is None:
            return None
        rewritten = set()
        for name in parts:
            rewritten.update(self._ann_terms.get(name, ()))
            rewritten.update(self._group_terms.get(name, ()))
        slots = self._slots
        for index, first in folded.items():
            if slots[index] not in rewritten or slots[first] not in rewritten:
                return None
        if len(slots) - len(folded) != len(new_expression.terms):
            return None
        return rewritten, folded

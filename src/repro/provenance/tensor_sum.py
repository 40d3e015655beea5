"""Grouped tensor-sum normal form -- the summarizer's representation.

Every provenance expression in the thesis's three datasets is a formal
aggregation sum of tensors whose provenance part is a *monomial* (a
product of annotations, possibly guarded by comparison tokens), e.g.

    MovieLens:  (UID1 · Title1 · Year1) ⊗ (Rating, 1) ⊕ ...
    Wikipedia:  (User1 · Page1) ⊗ (EditType, 1) ⊕ ...

:class:`TensorSum` stores exactly that: a sequence of :class:`Term`
entries, each carrying its monomial, guards, ``(value, count)`` pair
and the *group* it aggregates into (the movie / page / concept whose
score it contributes to).  Evaluating a tensor sum under a truth
valuation yields one :class:`~repro.provenance.monoids.CountedAggregate`
per group -- the "vector of aggregated ratings" the thesis's Euclidean
VAL-FUNC compares.

Two evaluation paths exist:

* :meth:`TensorSum.evaluate` -- takes the set of *false* annotations
  and uses per-group caches so that a valuation cancelling few
  annotations only re-folds the affected groups.  The summarization
  algorithm calls this thousands of times per step.
* :meth:`TensorSum.evaluate_scan` -- a cache-free linear scan used by
  the usage-time experiment (Fig. 6.4), where wall-clock cost must be
  proportional to expression size.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..observability import tracing as _tracing
from .monoids import AggregationMonoid, CountedAggregate, fold_counted

_COMPARATORS: Dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}

#: Evaluation result: aggregate per group.
GroupVector = Dict[Optional[str], CountedAggregate]


@dataclass(frozen=True)
class Guard:
    """A comparison token ``[a1 · ... · ak ⊗ value op threshold]``.

    When every annotation of the guard is true the left operand is
    ``value`` (congruence ``1 ⊗ m ≡ m``), otherwise 0 (``0 ⊗ m ≡ 0``);
    the token holds iff ``left op threshold``.
    """

    annotations: Tuple[str, ...]
    value: float
    op: str
    threshold: float

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ValueError(
                f"unsupported guard operator {self.op!r}; expected one of "
                f"{sorted(_COMPARATORS)}"
            )

    def satisfied(self, false_annotations: AbstractSet[str]) -> bool:
        alive = all(name not in false_annotations for name in self.annotations)
        left = self.value if alive else 0.0
        return _COMPARATORS[self.op](left, self.threshold)

    def dead_bits(self, false_union: int, full: int) -> int:
        """The packed positions where the token fails.

        ``false_union`` has bit ``i`` set when some annotation of the
        token is false at position ``i`` (its left operand is then 0);
        ``full`` has a bit set for every position.
        """
        holds_alive = _COMPARATORS[self.op](self.value, self.threshold)
        holds_dead = _COMPARATORS[self.op](0.0, self.threshold)
        if holds_alive:
            return 0 if holds_dead else false_union
        return full & ~false_union if holds_dead else full

    @property
    def negated(self) -> bool:
        """Whether the token holds only while one of its annotations is
        false: a merge, which makes annotations true under more
        valuations, can then cancel its term instead of reviving it."""
        compare = _COMPARATORS[self.op]
        return compare(0.0, self.threshold) and not compare(
            self.value, self.threshold
        )

    def satisfied_by_truth(self, truth: Mapping[str, bool]) -> bool:
        alive = all(truth.get(name, True) for name in self.annotations)
        left = self.value if alive else 0.0
        return _COMPARATORS[self.op](left, self.threshold)

    def rename(self, mapping: Mapping[str, str]) -> "Guard":
        return Guard(
            tuple(sorted(mapping.get(name, name) for name in self.annotations)),
            self.value,
            self.op,
            self.threshold,
        )

    def size(self) -> int:
        return len(self.annotations)

    def __str__(self) -> str:
        inner = " · ".join(self.annotations) if self.annotations else "1"
        return f"[{inner} ⊗ {self.value:g} {self.op} {self.threshold:g}]"


@dataclass(frozen=True)
class Term:
    """One tensor ``(a1 · ... · ak · guards) ⊗ (value, count)``."""

    annotations: Tuple[str, ...]
    value: float
    count: int = 1
    group: Optional[str] = None
    guards: Tuple[Guard, ...] = ()

    def all_annotation_names(self) -> Tuple[str, ...]:
        names = list(self.annotations)
        for guard in self.guards:
            names.extend(guard.annotations)
        return tuple(names)

    def size(self) -> int:
        return len(self.annotations) + sum(guard.size() for guard in self.guards)

    def alive(self, false_annotations: AbstractSet[str]) -> bool:
        """Whether the term contributes under the given cancellations."""
        if any(name in false_annotations for name in self.annotations):
            return False
        return all(guard.satisfied(false_annotations) for guard in self.guards)

    def rename(self, mapping: Mapping[str, str]) -> "Term":
        return Term(
            annotations=tuple(
                sorted(mapping.get(name, name) for name in self.annotations)
            ),
            value=self.value,
            count=self.count,
            group=mapping.get(self.group, self.group) if self.group else None,
            guards=tuple(guard.rename(mapping) for guard in self.guards),
        )

    def __str__(self) -> str:
        parts = list(self.annotations) + [str(guard) for guard in self.guards]
        monomial = " · ".join(parts) if parts else "1"
        value = int(self.value) if float(self.value).is_integer() else self.value
        return f"({monomial}) ⊗ ({value}, {self.count})"


class TensorSum:
    """A grouped formal sum of tensors (immutable).

    Parameters
    ----------
    terms:
        The tensor contributions.  Terms with identical
        ``(annotations, guards, group)`` are merged on construction via
        the congruence ``k ⊗ m1 ⊕ k ⊗ m2 ≡ k ⊗ (m1 ⊕ m2)`` -- this is
        what makes summaries *smaller* after a merge.
    monoid:
        Aggregation monoid combining values (MAX / SUM / MIN).
    """

    __slots__ = (
        "terms",
        "monoid",
        "folded",
        "_presorted",
        "_annotation_names",
        "_size",
        "_ann_to_groups",
        "_group_terms",
        "_full_vector",
    )

    def __init__(self, terms: Iterable[Term], monoid: AggregationMonoid):
        self._setup(self._merge_congruent(terms, monoid), monoid)

    def _setup(self, terms: Tuple[Term, ...], monoid: AggregationMonoid) -> None:
        self.terms: Tuple[Term, ...] = terms
        self.monoid = monoid
        #: For an expression made by :meth:`apply_mapping`: each source
        #: term index folded into an earlier congruent term → that
        #: term's source index (every other source term became one new
        #: term, in source order).  ``None`` for any other expression.
        self.folded: Optional[Dict[int, int]] = None
        #: Whether every term's names and guard names are sorted, as
        #: :meth:`Term.rename` leaves them (``None``: not checked yet).
        self._presorted: Optional[bool] = None
        self._annotation_names: Optional[FrozenSet[str]] = None
        self._size: Optional[int] = None
        self._ann_to_groups: Optional[Dict[str, FrozenSet[Optional[str]]]] = None
        self._group_terms: Optional[Dict[Optional[str], Tuple[Term, ...]]] = None
        self._full_vector: Optional[GroupVector] = None

    @staticmethod
    def _merge_congruent(
        terms: Iterable[Term],
        monoid: AggregationMonoid,
        folded: Optional[Dict[int, int]] = None,
    ) -> Tuple[Term, ...]:
        """Fold congruent terms into their first occurrence; records
        each folded term's index → the first one's in ``folded``."""
        merged: Dict[Tuple, Term] = {}
        first: Dict[Tuple, int] = {}
        for index, term in enumerate(terms):
            key = (term.annotations, term.guards, term.group)
            existing = merged.get(key)
            if existing is None:
                merged[key] = term
                first[key] = index
            else:
                merged[key] = Term(
                    annotations=term.annotations,
                    value=monoid.combine(existing.value, term.value),
                    count=existing.count + term.count,
                    group=term.group,
                    guards=term.guards,
                )
                if folded is not None:
                    folded[index] = first[key]
        # Updating a key keeps its insertion position: first-occurrence
        # order.
        return tuple(merged.values())

    # -- structural queries -------------------------------------------------

    def annotation_names(self) -> FrozenSet[str]:
        """All annotation names occurring in monomials and guards."""
        if self._annotation_names is None:
            names: set = set()
            for term in self.terms:
                names.update(term.all_annotation_names())
            self._annotation_names = frozenset(names)
        return self._annotation_names

    def size(self) -> int:
        """Number of annotation occurrences, with repetition (§3.2)."""
        if self._size is None:
            self._size = sum(term.size() for term in self.terms)
        return self._size

    def groups(self) -> Tuple[Optional[str], ...]:
        """Distinct group keys, in first-appearance order."""
        seen: List[Optional[str]] = []
        for term in self.terms:
            if term.group not in seen:
                seen.append(term.group)
        return tuple(seen)

    def __len__(self) -> int:
        return len(self.terms)

    # -- homomorphism application --------------------------------------------

    def apply_mapping(self, mapping: Mapping[str, str]) -> "TensorSum":
        """Apply a homomorphism ``h`` (annotation renaming) and simplify.

        A term the mapping does not touch is kept as is when every
        term's names are already sorted (what :meth:`Term.rename` would
        rebuild it into); the rest go through :meth:`Term.rename`.  The
        result records which source terms folded together
        (:attr:`folded`).
        """
        with _tracing.span("rename") as opened:
            keys = mapping.keys()
            terms: List[Term] = []
            if self._names_sorted():
                for term in self.terms:
                    group = term.group
                    if (
                        keys.isdisjoint(term.annotations)
                        and (group is None or (group and group not in keys))
                        and all(
                            keys.isdisjoint(guard.annotations)
                            for guard in term.guards
                        )
                    ):
                        terms.append(term)
                    else:
                        terms.append(term.rename(mapping))
            else:
                terms = [term.rename(mapping) for term in self.terms]
            folded: Dict[int, int] = {}
            renamed = TensorSum.__new__(TensorSum)
            renamed._setup(
                self._merge_congruent(terms, self.monoid, folded), self.monoid
            )
            renamed.folded = folded
            renamed._presorted = True
            opened.set("n_terms", len(self.terms))
            opened.set("n_renamed", len(mapping))
            return renamed

    def _names_sorted(self) -> bool:
        """Whether every term's names and guard names are sorted."""
        if self._presorted is None:
            self._presorted = all(
                _is_sorted(term.annotations)
                and all(_is_sorted(guard.annotations) for guard in term.guards)
                for term in self.terms
            )
        return self._presorted

    # -- evaluation -----------------------------------------------------------

    def _indexes(self) -> None:
        ann_to_groups: Dict[str, set] = {}
        group_terms: Dict[Optional[str], List[Term]] = {}
        for term in self.terms:
            group_terms.setdefault(term.group, []).append(term)
            for name in term.all_annotation_names():
                ann_to_groups.setdefault(name, set()).add(term.group)
        self._ann_to_groups = {
            name: frozenset(groups) for name, groups in ann_to_groups.items()
        }
        self._group_terms = {
            group: tuple(terms) for group, terms in group_terms.items()
        }
        empty: FrozenSet[str] = frozenset()
        self._full_vector = {
            group: fold_counted(
                (
                    CountedAggregate(term.value, term.count)
                    for term in terms
                    if term.alive(empty)
                ),
                self.monoid,
            )
            for group, terms in self._group_terms.items()
        }

    def evaluate(self, false_annotations: AbstractSet[str]) -> GroupVector:
        """Aggregate per group with the given annotations cancelled.

        Annotations not mentioned are true.  Uses per-group caches:
        only groups touched by a cancelled annotation are re-folded.
        """
        if self._full_vector is None:
            self._indexes()
        assert self._full_vector is not None
        assert self._ann_to_groups is not None
        assert self._group_terms is not None
        affected: set = set()
        relevant = False
        for name in false_annotations:
            groups = self._ann_to_groups.get(name)
            if groups:
                affected.update(groups)
                relevant = True
        if not relevant:
            return dict(self._full_vector)
        result = dict(self._full_vector)
        for group in affected:
            result[group] = fold_counted(
                (
                    CountedAggregate(term.value, term.count)
                    for term in self._group_terms[group]
                    if term.alive(false_annotations)
                ),
                self.monoid,
            )
        return result

    def evaluate_scan(self, truth: Mapping[str, bool]) -> GroupVector:
        """Cache-free evaluation scanning every term.

        Used to time provenance *usage* honestly (Fig. 6.4): the cost is
        linear in the number of terms, so summaries evaluate faster.
        """
        buckets: Dict[Optional[str], List[CountedAggregate]] = {}
        for term in self.terms:
            if not all(truth.get(name, True) for name in term.annotations):
                continue
            if not all(guard.satisfied_by_truth(truth) for guard in term.guards):
                continue
            buckets.setdefault(term.group, []).append(
                CountedAggregate(term.value, term.count)
            )
        result: GroupVector = {}
        for group in self.groups():
            result[group] = fold_counted(buckets.get(group, ()), self.monoid)
        return result

    def full_vector(self) -> GroupVector:
        """The aggregate per group with nothing cancelled."""
        if self._full_vector is None:
            self._indexes()
        assert self._full_vector is not None
        return dict(self._full_vector)

    def __str__(self) -> str:
        return " ⊕ ".join(str(term) for term in self.terms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TensorSum of {len(self.terms)} terms, size {self.size()}, "
            f"{self.monoid.name} aggregation>"
        )


def _is_sorted(names: Tuple[str, ...]) -> bool:
    return all(first <= second for first, second in zip(names, names[1:]))

"""Valuation-equivalence grouping (``GroupEquivalent``, Prop. 4.2.1).

Two annotations are *equivalent* with respect to ``V_Ann`` when every
valuation in the class assigns them the same truth value.  Merging
equivalent annotations can never change any valuation's result, so the
distance stays exactly 0 while the size shrinks -- which is why
Algorithm 1 performs this grouping before its greedy loop, and why
finding a minimal distance-0 summary is in PTIME.

Following the proof of Proposition 4.2.1, classes are computed by
iterative refinement: start from the partition induced by the first
valuation's (true-set, false-set) and intersect with each further
valuation's partition.  Equivalently (and how we implement it), group
annotations by their truth *signature* across the class.

We additionally respect the semantic constraints while merging inside
an equivalence class: the thesis never merges annotations that share
no attribute, so each class is greedily split into
constraint-compatible groups first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

from ..provenance.annotations import Annotation, AnnotationUniverse
from ..provenance.valuation_classes import ValuationClass
from .candidates import virtual_summary
from .constraints import MergeConstraint, MergeProposal


@dataclass
class EquivalencePartition:
    """Per-annotation truth signatures, repairable under deltas.

    The partition of Prop. 4.2.1 is fully determined by each
    annotation's *signature* -- its truth value under every valuation,
    packed into one integer (bit ``v`` set ⇔ true under valuation
    ``v``).  Signatures are per-annotation and per-valuation-coordinate,
    so a provenance delta only perturbs the coordinates it touches:

    * a **new annotation** needs one fresh signature (full scan);
    * a **new valuation** appends one bit to every signature;
    * an **extended valuation** (its false set grew) flips exactly the
      bits of the annotations whose truth changed.

    Everything else is carried verbatim -- that locality is what makes
    delta class-repair sound (see docs/ALGORITHM.md).  Valuations are
    addressed by label: repair requires the old labels to be a unique
    prefix of the new ones and otherwise falls back to a full rebuild,
    so a reordered or relabeled valuation class degrades to the exact
    from-scratch computation instead of a wrong partition.
    """

    valuation_labels: Tuple[str, ...]
    signatures: Dict[str, int]

    @classmethod
    def build(
        cls, names: Sequence[str], valuations: ValuationClass
    ) -> "EquivalencePartition":
        """Full signature scan (the non-incremental baseline)."""
        valuation_list = list(valuations)
        labels = tuple(str(valuation) for valuation in valuation_list)
        return cls(
            labels, {name: _signature(name, valuation_list) for name in names}
        )

    def repair(
        self,
        names: Sequence[str],
        valuations: ValuationClass,
        flipped: Optional[Mapping[str, Collection[str]]] = None,
    ) -> "EquivalencePartition":
        """Delta-update: carry old signatures, recompute only the delta.

        ``names`` / ``valuations`` describe the *post-delta* state;
        ``flipped`` maps a valuation label to the annotations whose
        truth under it changed (e.g. the names an extension added to
        its false set).  Falls back to :meth:`build` when the old
        valuation labels are not a unique prefix of the new ones.
        """
        valuation_list = list(valuations)
        labels = tuple(str(valuation) for valuation in valuation_list)
        n_old = len(self.valuation_labels)
        if (
            labels[:n_old] != self.valuation_labels
            or len(set(labels)) != len(labels)
        ):
            return EquivalencePartition.build(names, valuation_list)
        appended = valuation_list[n_old:]
        signatures: Dict[str, int] = {}
        for name in names:
            carried = self.signatures.get(name)
            if carried is None:
                signatures[name] = _signature(name, valuation_list)
            else:
                signatures[name] = carried | _signature(name, appended, n_old)
        if flipped:
            index_of = {label: index for index, label in enumerate(labels)}
            for label, touched in flipped.items():
                index = index_of.get(label)
                if index is None:
                    continue
                valuation = valuation_list[index]
                bit = 1 << index
                for name in touched:
                    if name not in signatures:
                        continue
                    if valuation.truth(name):
                        signatures[name] |= bit
                    else:
                        signatures[name] &= ~bit
        return EquivalencePartition(labels, signatures)

    def classes(self, names: Sequence[str]) -> List[Tuple[str, ...]]:
        """Bucket ``names`` (in the given order) by equal signature."""
        buckets: Dict[int, List[str]] = {}
        signatures = self.signatures
        for name in names:
            buckets.setdefault(signatures[name], []).append(name)
        return [tuple(group) for group in buckets.values()]


def _signature(name: str, valuations: Sequence, first_bit: int = 0) -> int:
    """``name``'s truth under each valuation, packed from ``first_bit``
    (bit ``first_bit + v`` set ⇔ true under ``valuations[v]``)."""
    signature = 0
    for index, valuation in enumerate(valuations, first_bit):
        if valuation.truth(name):
            signature |= 1 << index
    return signature


def compute_partition(
    names: Sequence[str], valuations: ValuationClass
) -> EquivalencePartition:
    """Build the repairable signature partition for ``names``.

    Kept as a module-level name because the end-to-end benchmark's
    per-layer tracer (``perfbench/tracer.py``) times the equivalence
    layer by patching it where ``repro.core.summarize`` looks it up.
    """
    return EquivalencePartition.build(names, valuations)


def equivalence_classes(
    names: Sequence[str], valuations: ValuationClass
) -> List[Tuple[str, ...]]:
    """Partition ``names`` into ``V_Ann``-equivalence classes.

    Each annotation's signature is its truth value under every
    valuation of the class; equal signatures mean no valuation can
    ever tell the annotations apart.  Classes keep first-occurrence
    order.  (:meth:`EquivalencePartition.repair` delta-updates a
    partition instead of rescanning every (annotation, valuation)
    pair; its classes are identical.)
    """
    return EquivalencePartition.build(names, valuations).classes(names)


def constrained_groups(
    annotations: Sequence[Annotation],
    constraint: MergeConstraint,
) -> List[Tuple[List[Annotation], MergeProposal]]:
    """Split a set of equivalent annotations into mergeable groups.

    Greedy: each annotation joins the first existing group whose
    (virtual) summary the constraint accepts it against; otherwise it
    seeds a new group.  Returned groups have at least two members.
    """
    groups: List[List[Annotation]] = []
    proposals: List[Optional[MergeProposal]] = []
    representatives: List[Annotation] = []
    for annotation in annotations:
        placed = False
        for index, representative in enumerate(representatives):
            proposal = constraint.propose(representative, annotation)
            if proposal is not None:
                groups[index].append(annotation)
                proposals[index] = proposal
                representatives[index] = virtual_summary(groups[index], proposal)
                placed = True
                break
        if not placed:
            groups.append([annotation])
            proposals.append(None)
            representatives.append(annotation)
    return [
        (group, proposal)
        for group, proposal in zip(groups, proposals)
        if len(group) >= 2 and proposal is not None
    ]


def minimal_zero_distance_summary(expression, valuations: ValuationClass):
    """The minimal summary at distance exactly 0 (Proposition 4.2.1).

    Merges every full ``V_Ann``-equivalence class, ignoring semantic
    constraints -- this is the PTIME construction of the proposition's
    proof, where the minimal ``p'`` with ``distance(p, p') = 0`` is
    obtained by mapping each equivalence class to one representative.

    Returns ``(summary_expression, mapping)`` where ``mapping`` sends
    each annotation to its class representative (the lexicographically
    first member, as the proof's "arbitrary order").
    """
    step: Dict[str, str] = {}
    names = sorted(expression.annotation_names())
    for class_names in equivalence_classes(names, valuations):
        if len(class_names) < 2:
            continue
        representative = min(class_names)
        for name in class_names:
            if name != representative:
                step[name] = representative
    if not step:
        return expression, step
    return expression.apply_mapping(step), step


def group_equivalent(
    expression,
    universe: AnnotationUniverse,
    valuations: ValuationClass,
    constraint: MergeConstraint,
    partition: Optional[EquivalencePartition] = None,
):
    """The ``GroupEquivalent`` step of Algorithm 1 (line 1).

    Returns ``(new_expression, step_mapping, merge_count)`` where
    ``step_mapping`` maps every merged current annotation to its new
    summary annotation (registered in ``universe``).  Summary names are
    content-derived (:meth:`AnnotationUniverse.equivalence_summary`),
    so re-running the grouping on an unchanged class -- including after
    a streaming delta that left it intact -- resolves to the *same*
    annotation instead of minting a fresh counter name.

    ``partition``, when given, supplies the equivalence classes (a
    :class:`EquivalencePartition` built or repaired elsewhere) instead
    of a fresh signature scan.
    """
    step: Dict[str, str] = {}
    merges = 0
    names = sorted(expression.annotation_names())
    classes = (
        partition.classes(names)
        if partition is not None
        else equivalence_classes(names, valuations)
    )
    for class_names in classes:
        if len(class_names) < 2:
            continue
        by_domain: Dict[str, List[Annotation]] = {}
        for name in class_names:
            annotation = universe[name]
            by_domain.setdefault(annotation.domain, []).append(annotation)
        for domain, domain_annotations in by_domain.items():
            if not constraint.merges_domain(domain):
                continue
            for group, proposal in constrained_groups(domain_annotations, constraint):
                summary = universe.equivalence_summary(
                    group, label=proposal.label, concept=proposal.concept
                )
                for annotation in group:
                    step[annotation.name] = summary.name
                merges += len(group) - 1
    if not step:
        return expression, step, 0
    return expression.apply_mapping(step), step, merges

"""Candidate homomorphism enumeration (``CandidateHom`` of Algorithm 1).

Each algorithm step examines the single-step mappings that send a
small set of current annotations (normally a pair; ``arity > 2``
implements the thesis's future-work k-way generalization) to one new
summary annotation, subject to the semantic constraints.

Because summary annotations carry the *intersection* of their members'
attributes and their members' LCA concept, checking a constraint
between two current annotations is equivalent to checking it across
the union of their base members -- no special-casing for
summary-with-summary merges is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from ..provenance.annotations import Annotation, AnnotationUniverse
from .constraints import MergeConstraint, MergeProposal


@dataclass(frozen=True)
class Candidate:
    """One candidate single-step merge: ``parts → proposal.label``."""

    parts: Tuple[str, ...]
    proposal: MergeProposal

    def __str__(self) -> str:
        return f"{{{', '.join(self.parts)}}} → {self.proposal.label}"


def virtual_summary(parts: Sequence[Annotation], proposal: MergeProposal) -> Annotation:
    """An unregistered summary annotation standing in for a candidate.

    Candidate scoring needs the summary's members and domain but must
    not pollute the universe with annotations for merges that are never
    chosen; the winner is re-minted through
    :meth:`~repro.provenance.annotations.AnnotationUniverse.new_summary`.
    """
    members = frozenset().union(*(part.base_members() for part in parts))
    shared = dict(parts[0].attributes)
    for part in parts[1:]:
        shared = {
            key: value
            for key, value in shared.items()
            if key in part.attributes and part.attributes[key] == value
        }
    return Annotation(
        name=f"{proposal.label}?cand",
        domain=parts[0].domain,
        attributes=shared,
        concept=proposal.concept,
        members=members,
    )


def enumerate_candidates(
    expression,
    universe: AnnotationUniverse,
    constraint: MergeConstraint,
    arity: int = 2,
) -> List[Candidate]:
    """All constraint-satisfying single-step merges of ``expression``.

    Pairs are enumerated within each domain; for ``arity > 2`` each
    allowed pair is greedily extended with further annotations that the
    constraint accepts against the growing (virtual) summary, so every
    returned candidate is internally consistent.
    """
    if arity < 2:
        raise ValueError("merge arity must be at least 2")
    candidates = generate_candidates(expression, universe, constraint, arity)
    return finalize_candidates(candidates, arity)


def annotations_by_domain(
    expression, universe: AnnotationUniverse
) -> Dict[str, List[Annotation]]:
    """The expression's annotations grouped per domain, name-sorted.

    Domains appear in order of their smallest member name -- the same
    order :func:`generate_candidates` (and therefore the candidate
    list) walks them in.
    """
    present = sorted(expression.annotation_names())
    by_domain: Dict[str, List[Annotation]] = {}
    for name in present:
        annotation = universe[name]
        by_domain.setdefault(annotation.domain, []).append(annotation)
    return by_domain


def generate_candidates(
    expression,
    universe: AnnotationUniverse,
    constraint: MergeConstraint,
    arity: int,
) -> List[Candidate]:
    """The raw candidate list before dedupe (generation order):
    the :func:`candidate_blocks` joined in domain order."""
    return [
        candidate
        for block in candidate_blocks(expression, universe, constraint, arity).values()
        for candidate in block
    ]


def candidate_blocks(
    expression,
    universe: AnnotationUniverse,
    constraint: MergeConstraint,
    arity: int,
) -> Dict[str, List[Candidate]]:
    """The raw candidates per domain, each block in seed-name order.

    Domains come in order of their smallest member name, so joining
    the blocks gives the generation order.  Domains the constraint
    never merges (:meth:`~repro.core.constraints.MergeConstraint
    .merges_domain`) are skipped unasked.  Shared by
    :func:`enumerate_candidates` and the cross-step
    :class:`~repro.core.pool.CandidatePool`, whose maintained blocks
    must replay exactly this order.
    """
    return domain_blocks(
        annotations_by_domain(expression, universe), constraint, arity
    )


def domain_blocks(
    by_domain: Dict[str, List[Annotation]],
    constraint: MergeConstraint,
    arity: int,
) -> Dict[str, List[Candidate]]:
    """:func:`candidate_blocks` over the :func:`annotations_by_domain`
    grouping ``by_domain``."""
    blocks: Dict[str, List[Candidate]] = {}
    for domain, domain_annotations in by_domain.items():
        if not constraint.merges_domain(domain):
            continue
        block = []
        for first, second in combinations(domain_annotations, 2):
            candidate = propose_candidate(
                first, second, domain_annotations, constraint, arity
            )
            if candidate is not None:
                block.append(candidate)
        if block:
            blocks[domain] = block
    return blocks


def propose_candidate(
    first: Annotation,
    second: Annotation,
    domain_annotations: Sequence[Annotation],
    constraint: MergeConstraint,
    arity: int,
) -> Optional[Candidate]:
    """The candidate seeded by ``(first, second)``, or ``None`` if rejected.

    ``first``/``second`` must be passed in name order: some constraints
    (``AllowAll``'s label) are order-sensitive, and candidate identity
    must not depend on who proposes the pair.
    """
    proposal = constraint.propose(first, second)
    if proposal is None:
        return None
    parts = [first, second]
    if arity > 2:
        parts, proposal = _extend_group(
            parts, proposal, domain_annotations, constraint, arity
        )
    return Candidate(tuple(part.name for part in parts), proposal)


def finalize_candidates(candidates: List[Candidate], arity: int) -> List[Candidate]:
    """A raw candidate list, deduplicated when ``arity > 2``."""
    if arity > 2:
        candidates = _dedupe(candidates)
    return candidates


def _extend_group(
    parts: List[Annotation],
    proposal: MergeProposal,
    pool: Sequence[Annotation],
    constraint: MergeConstraint,
    arity: int,
) -> Tuple[List[Annotation], MergeProposal]:
    """Greedily grow a pair to ``arity`` members under the constraint."""
    chosen = {part.name for part in parts}
    representative = virtual_summary(parts, proposal)
    for annotation in pool:
        if len(parts) >= arity:
            break
        if annotation.name in chosen:
            continue
        extended = constraint.propose(representative, annotation)
        if extended is None:
            continue
        parts = parts + [annotation]
        chosen.add(annotation.name)
        proposal = extended
        representative = virtual_summary(parts, proposal)
    return parts, proposal


def _dedupe(candidates: List[Candidate]) -> List[Candidate]:
    """Drop duplicate part sets (the first one seen survives) and emit
    the survivors ordered by their sorted part names."""
    by_parts: Dict[Tuple[str, ...], Candidate] = {}
    for candidate in candidates:
        by_parts.setdefault(tuple(sorted(candidate.parts)), candidate)
    return [by_parts[parts] for parts in sorted(by_parts)]

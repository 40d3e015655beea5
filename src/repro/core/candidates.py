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

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from ..provenance.annotations import Annotation, AnnotationUniverse
from ..provenance.ir import AnnotationInterner
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
    cap: Optional[int] = None,
    rng: Optional[random.Random] = None,
    interner: Optional[AnnotationInterner] = None,
) -> List[Candidate]:
    """All constraint-satisfying single-step merges of ``expression``.

    Pairs are enumerated within each domain; for ``arity > 2`` each
    allowed pair is greedily extended with further annotations that the
    constraint accepts against the growing (virtual) summary, so every
    returned candidate is internally consistent.  ``cap`` optionally
    subsamples the candidate list deterministically via ``rng`` (an
    escape hatch for very large expressions; the thesis enumerates all
    pairs).  ``interner`` keys deduplication identity on dense interned
    ids (the output order stays name-sorted either way, so all scoring
    paths see identical candidate lists).
    """
    if arity < 2:
        raise ValueError("merge arity must be at least 2")
    candidates = generate_candidates(expression, universe, constraint, arity)
    return finalize_candidates(candidates, arity, cap, rng, interner)


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
    """The raw candidate list before dedupe/cap (generation order):
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
    the blocks gives the generation order.  Shared by
    :func:`enumerate_candidates` and the cross-step
    :class:`~repro.core.pool.CandidatePool`, whose maintained blocks
    must replay exactly this order.
    """
    blocks: Dict[str, List[Candidate]] = {}
    for domain, domain_annotations in annotations_by_domain(
        expression, universe
    ).items():
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


def finalize_candidates(
    candidates: List[Candidate],
    arity: int,
    cap: Optional[int],
    rng: Optional[random.Random],
    interner: Optional[AnnotationInterner],
) -> List[Candidate]:
    """Dedupe (``arity > 2``) and cap-subsample a raw candidate list.

    Consumes ``rng`` exactly as the seed ``enumerate_candidates`` did,
    so a maintained pool finalizing per step leaves the shared RNG in
    the same state as fresh enumeration would.
    """
    if arity > 2:
        # With no interner at hand an empty one makes every name key on
        # itself.
        if interner is None:
            interner = AnnotationInterner()
        candidates = _dedupe(candidates, interner)
    if cap is not None and len(candidates) > cap:
        sampler = rng if rng is not None else random.Random(0)
        candidates = sampler.sample(candidates, cap)
        candidates.sort(key=lambda candidate: candidate.parts)
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


def _dedupe(
    candidates: List[Candidate], interner: AnnotationInterner
) -> List[Candidate]:
    """Drop duplicate part sets; emit survivors in name-sorted order.

    Identity is keyed on sorted interned-id tuples (int hashing instead
    of re-hashing the name strings) while the output is still ordered
    by the name-space key -- candidate order must not depend on
    interning order, or the scoring paths of the differential suite
    would disagree.
    """
    # Non-inserting lookups only: this also runs on the pool's
    # invalidate-on-failure fallback, and a failure path must not grow
    # the session interner (the annotation universe is no longer static
    # once streaming ingest lands mid-run).  Names the interner has not
    # seen yet key on themselves; the (tag, key) pairs keep int ids and
    # name strings sortable together.
    by_ids: Dict[Tuple, Tuple[Tuple[str, ...], Candidate]] = {}
    for candidate in candidates:
        id_key = tuple(
            sorted(
                (0, interned) if interned is not None else (1, name)
                for name in candidate.parts
                for interned in (interner.lookup(name),)
            )
        )
        if id_key not in by_ids:
            by_ids[id_key] = (tuple(sorted(candidate.parts)), candidate)
    return [
        candidate
        for _, candidate in sorted(by_ids.values(), key=lambda entry: entry[0])
    ]

"""Cross-step candidate pool maintenance for the Algorithm-1 loop.

Re-running ``enumerate_candidates`` every greedy step re-proposes all
O(n²) same-domain pairs even though one applied merge ``{a, b} → c``
only (1) removes the candidates mentioning ``a``/``b`` and (2) adds
the pairs seeded by ``c``.  :class:`CandidatePool` persists the raw
candidates across steps as per-domain blocks
(:func:`~repro.core.candidates.candidate_blocks`) and edits exactly
that delta, inside the merged domain's block alone (a candidate's
parts all share one domain):

* candidates whose *seed pair* mentions a merged annotation are
  dropped (the fresh enumeration could not produce them);
* candidates whose seed survives but whose ``arity > 2`` greedy
  extension mentioned a merged annotation are re-extended against the
  new annotation pool;
* surviving ``arity > 2`` candidates in the merged domain are
  re-extended only when ``c`` would have been accepted into their
  greedy chain (checked by replaying the chain prefix below ``c``'s
  position -- the decisions for surviving members are unchanged
  because :meth:`~repro.core.constraints.MergeConstraint.propose` is
  deterministic and rejected annotations never alter the chain state);
* the new pairs ``{c, x}`` are proposed against the surviving
  same-domain annotations, reusing
  :func:`~repro.core.candidates.propose_candidate` (and with it the
  greedy extension).

Survivors keep their order, and each new pair is inserted at its
seed-name position (``bisect``), so every block stays in the
generation order of a fresh
:func:`~repro.core.candidates.enumerate_candidates` call; the blocks
are joined in domain order (smallest member name first) and finalized
through the *same* dedupe code, so the result is identical candidate
for candidate, in identical order (asserted by
``tests/core/test_candidate_pool``).

Robustness: any maintenance failure invalidates the pool, and the next
:meth:`candidates` call falls back to a full fresh enumeration -- the
same contract the scoring engine's fast paths follow.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from ..provenance.annotations import Annotation, AnnotationUniverse
from .candidates import (
    Candidate,
    annotations_by_domain,
    candidate_blocks,
    finalize_candidates,
    propose_candidate,
    virtual_summary,
)
from .constraints import MergeConstraint


class CandidatePool:
    """A candidate list maintained incrementally across greedy steps."""

    def __init__(
        self,
        universe: AnnotationUniverse,
        constraint: MergeConstraint,
        arity: int = 2,
    ):
        if arity < 2:
            raise ValueError("merge arity must be at least 2")
        self.universe = universe
        self.constraint = constraint
        self.arity = arity
        #: Raw candidates (before dedupe) per domain, each block in
        #: seed-name order and the blocks in domain order; neither the
        #: dict nor a block list is edited once stored, so pools may
        #: share them.  ``None`` means the next :meth:`candidates` call
        #: re-enumerates.
        self._blocks: Optional[Dict[str, List[Candidate]]] = None
        self._expression: object = None
        #: Telemetry: steps whose list was maintained vs. re-enumerated.
        self.maintained_steps = 0
        self.rebuilt_steps = 0

    # -- public API --------------------------------------------------------------

    def size(self) -> int:
        """Carried raw candidates (0 when invalidated) -- the resource
        accountant's per-session pool footprint."""
        if self._blocks is None:
            return 0
        return sum(len(block) for block in self._blocks.values())

    def _raw(self) -> List[Candidate]:
        """The blocks joined: the raw list in fresh-generation order."""
        return [candidate for block in self._blocks.values() for candidate in block]

    def candidates(self, expression) -> List[Candidate]:
        """The step's candidate list for ``expression``.

        Identical (candidates and order) to ``enumerate_candidates``;
        re-enumerates from scratch when the pool was invalidated or
        ``expression`` is not the one the pool was advanced to.
        """
        if self._blocks is None or self._expression is not expression:
            self._blocks = candidate_blocks(
                expression, self.universe, self.constraint, self.arity
            )
            self._expression = expression
            self.rebuilt_steps += 1
        else:
            self.maintained_steps += 1
        return finalize_candidates(self._raw(), self.arity)

    def advance(self, parts: Sequence[str], new_name: str, new_expression) -> None:
        """Maintain the pool past the applied merge ``parts → new_name``.

        A failed maintenance is never fatal: the pool is invalidated
        and the next step re-enumerates.
        """
        if self._blocks is None:
            return
        try:
            self._blocks = self._maintain(tuple(parts), new_name, new_expression)
            self._expression = new_expression
        except Exception:
            self.invalidate()

    def invalidate(self) -> None:
        """Drop the carried list (e.g. after reverting a step)."""
        self._blocks = None
        self._expression = None

    def seed(self, raw: Sequence[Candidate], expression) -> None:
        """Adopt a carried raw list (cross-run repair state)."""
        blocks: Dict[str, List[Candidate]] = {}
        for candidate in raw:
            domain = self.universe[candidate.parts[0]].domain
            blocks.setdefault(domain, []).append(candidate)
        self._blocks = blocks
        self._expression = expression

    def raw_snapshot(self, expression) -> Optional[List[Candidate]]:
        """Copy of the raw list, if it was maintained for ``expression``."""
        if self._blocks is None or self._expression is not expression:
            return None
        return self._raw()

    def ingest(self, new_expression) -> int:
        """Maintain the carried list across a streaming provenance delta.

        Unlike :meth:`advance` (one applied merge), an ingest may add
        *and* remove several annotations at once: delta annotations
        arrive, and equivalence summaries whose class gained a member
        are replaced by new ones.  The carried list is edited to match
        a fresh enumeration of ``new_expression`` exactly:

        * candidates whose seed pair mentions a removed annotation are
          dropped (every surviving pair is already in the list, so no
          replacement pair is lost);
        * candidates whose ``arity > 2`` extension mentions a removed
          annotation, or whose greedy chain an added annotation would
          join, are re-proposed from their seed;
        * the pairs involving added annotations are proposed fresh and
          inserted at their seed-name positions.

        Returns the number of carried entries invalidated (dropped or
        re-proposed) -- the ``prox_repair_invalidated_total`` count.
        On any failure the pool is invalidated and the next
        :meth:`candidates` call re-enumerates (the usual contract).
        """
        if self._blocks is None or self._expression is None:
            self.invalidate()
            return 0
        try:
            invalidated, blocks = self._ingest_maintain(new_expression)
        except Exception:
            invalidated = self.size()
            self.invalidate()
            return invalidated
        self._blocks = blocks
        self._expression = new_expression
        return invalidated

    def _ingest_maintain(
        self, new_expression
    ) -> Tuple[int, Dict[str, List[Candidate]]]:
        universe = self.universe
        old_names = frozenset(self._expression.annotation_names())
        new_names = frozenset(new_expression.annotation_names())
        added = new_names - old_names
        removed = old_names - new_names
        by_domain = annotations_by_domain(new_expression, universe)
        added_by_domain: dict = {}
        for name in added:
            annotation = universe[name]
            added_by_domain.setdefault(annotation.domain, []).append(annotation)

        invalidated = 0
        blocks: Dict[str, List[Candidate]] = {}
        for domain, carried in self._blocks.items():
            block: List[Candidate] = []
            joining = added_by_domain.get(domain, ()) if self.arity > 2 else ()
            for candidate in carried:
                seed = candidate.parts[:2]
                if removed.intersection(candidate.parts):
                    invalidated += 1
                    if removed.intersection(seed):
                        continue
                    block.append(self._repropose(seed, by_domain))
                elif any(
                    self._joins_extension(candidate, annotation)
                    for annotation in joining
                ):
                    invalidated += 1
                    block.append(self._repropose(seed, by_domain))
                else:
                    block.append(candidate)
            blocks[domain] = block

        for domain, fresh in added_by_domain.items():
            block = blocks.setdefault(domain, [])
            domain_annotations = by_domain.get(domain, [])
            pairs = {
                tuple(sorted((annotation.name, other.name)))
                for annotation in fresh
                for other in domain_annotations
                if other.name != annotation.name
            }
            for first_name, second_name in sorted(pairs):
                candidate = propose_candidate(
                    universe[first_name],
                    universe[second_name],
                    domain_annotations,
                    self.constraint,
                    self.arity,
                )
                if candidate is not None:
                    bisect.insort(block, candidate, key=_seed)
        return invalidated, _in_domain_order(blocks, by_domain)

    def child(self, parts: Sequence[str], new_name: str, new_expression) -> "CandidatePool":
        """An advanced copy, leaving this pool untouched (beam search)."""
        twin = CandidatePool(self.universe, self.constraint, arity=self.arity)
        if self._blocks is not None:
            twin._blocks = self._blocks
            twin._expression = self._expression
        twin.advance(parts, new_name, new_expression)
        return twin

    # -- maintenance -------------------------------------------------------------

    def _maintain(
        self, merged: Tuple[str, ...], new_name: str, new_expression
    ) -> Dict[str, List[Candidate]]:
        universe = self.universe
        merged_set = frozenset(merged)
        by_domain = annotations_by_domain(new_expression, universe)
        new_annotation = universe[new_name]
        domain = new_annotation.domain
        merged_domain = by_domain.get(domain, [])

        # Only the merged domain's block changes: every candidate
        # mentioning a merged annotation, and every greedy chain the new
        # one could join, lies in it.
        block: List[Candidate] = []
        for candidate in self._blocks.get(domain, ()):
            seed = candidate.parts[:2]
            if merged_set.intersection(candidate.parts):
                if merged_set.intersection(seed):
                    continue
                # Only extension members merged away: the seed pair is
                # still proposed fresh, with a new greedy extension.
                block.append(self._repropose(seed, by_domain))
            elif self.arity > 2 and self._joins_extension(
                candidate, new_annotation
            ):
                block.append(self._repropose(seed, by_domain))
            else:
                block.append(candidate)

        for annotation in merged_domain:
            if annotation.name == new_name:
                continue
            first, second = (
                (annotation, new_annotation)
                if annotation.name < new_name
                else (new_annotation, annotation)
            )
            candidate = propose_candidate(
                first, second, merged_domain, self.constraint, self.arity
            )
            if candidate is not None:
                bisect.insort(block, candidate, key=_seed)
        blocks = dict(self._blocks)
        blocks[domain] = block
        # The merge may have moved the domain's smallest member name.
        return _in_domain_order(blocks, by_domain)

    def _repropose(self, seed: Tuple[str, str], by_domain) -> Candidate:
        universe = self.universe
        first, second = universe[seed[0]], universe[seed[1]]
        candidate = propose_candidate(
            first, second, by_domain[first.domain], self.constraint, self.arity
        )
        if candidate is None:
            # The constraint rejected a previously accepted seed -- it
            # is not deterministic; the maintained list cannot be
            # trusted.  Raising invalidates the pool (see advance()).
            raise RuntimeError(
                f"constraint no longer accepts carried seed pair {seed}"
            )
        return candidate

    def _joins_extension(self, candidate: Candidate, new_annotation: Annotation) -> bool:
        """Would ``new_annotation`` join this candidate's greedy chain?

        Replays the chain's accepted members below ``new_annotation``'s
        name position (the walk visits the domain in name order, so
        exactly those precede it) and asks the constraint once.  The
        replay cannot diverge from the recorded candidate: rejected
        annotations never change the chain state, and the removed
        merged annotations were never accepted by this candidate.
        """
        universe = self.universe
        prefix = [
            name for name in candidate.parts[2:] if name < new_annotation.name
        ]
        if 2 + len(prefix) >= self.arity:
            return False
        members = [universe[candidate.parts[0]], universe[candidate.parts[1]]]
        proposal = self.constraint.propose(members[0], members[1])
        if proposal is None:
            return True  # disagreement with the carried list: force rebuild
        representative = virtual_summary(members, proposal)
        for name in prefix:
            extended = self.constraint.propose(representative, universe[name])
            if extended is None:
                return True
            members.append(universe[name])
            proposal = extended
            representative = virtual_summary(members, proposal)
        return self.constraint.propose(representative, new_annotation) is not None


def _in_domain_order(
    blocks: Dict[str, List[Candidate]], by_domain: Dict[str, list]
) -> Dict[str, List[Candidate]]:
    """The non-empty blocks in fresh-generation domain order (the
    order of ``by_domain``: smallest member name first)."""
    return {
        domain: blocks[domain]
        for domain in by_domain
        if blocks.get(domain)
    }


def _seed(candidate: Candidate) -> Tuple[str, ...]:
    """A candidate's position within its domain's block: its seed pair."""
    return candidate.parts[:2]

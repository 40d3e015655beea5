"""Cross-step candidate pool maintenance for the Algorithm-1 loop.

Re-running ``enumerate_candidates`` every greedy step re-proposes all
O(n²) same-domain pairs even though one applied merge ``{a, b} → c``
only (1) removes the candidates mentioning ``a``/``b`` and (2) adds
the pairs seeded by ``c``.  :class:`CandidatePool` persists the raw
candidates across steps, keyed by their *seed pair* per domain
(:func:`~repro.core.candidates.candidate_blocks`), with a name →
seeds index, and edits exactly that delta inside the merged domain (a
candidate's parts all share one domain):

* candidates mentioning a merged annotation are found through the
  index; those whose *seed pair* mentions one are dropped (the fresh
  enumeration could not produce them);
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
  same-domain annotations (kept name-sorted per domain), reusing
  :func:`~repro.core.candidates.propose_candidate` (and with it the
  greedy extension).

A pair merge therefore costs the merged names' candidates plus one
proposal per same-domain annotation, whatever the pool's size.

:meth:`CandidatePool.candidates` hands out a :class:`CandidateSet`: its
length is kept as a count, and the list itself -- each domain's block
in seed-name order, the blocks in domain order (smallest member name
first), finalized through the *same* dedupe code -- is built only when
a caller reads it (the full-rank path, beam search, the repair
snapshot).  It is identical to a fresh
:func:`~repro.core.candidates.enumerate_candidates` call, candidate for
candidate and in order (asserted by ``tests/core/test_candidate_pool``).
After a pair-merge advance the set also carries the step's delta --
the parts dropped and the candidates added -- which the scoring
engine's lazy queue applies instead of reading the list.

Robustness: any maintenance failure invalidates the pool, and the next
:meth:`candidates` call falls back to a full fresh enumeration -- the
same contract the scoring engine's fast paths follow.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..provenance.annotations import Annotation, AnnotationUniverse
from .candidates import (
    Candidate,
    annotations_by_domain,
    domain_blocks,
    finalize_candidates,
    propose_candidate,
    virtual_summary,
)
from .constraints import MergeConstraint

Seed = Tuple[str, ...]


class CandidateSet(Sequence):
    """One step's candidate list, as a pool version.

    ``len`` is the pool's count; the list is built on the first read
    and must be read before the pool advances.  ``removed`` (parts)
    and ``added`` (candidates) are the change from the pool version
    ``base``; ``added`` is ``None`` when the pool cannot name the change
    (a rebuild, an ``arity > 2`` pool, two advances between reads).
    """

    __slots__ = ("pool", "version", "base", "removed", "added", "_size", "_list")

    def __init__(
        self,
        pool: "CandidatePool",
        version: int,
        size: int,
        listed: Optional[List[Candidate]] = None,
        delta: Optional[Tuple[int, List[Seed], List[Candidate]]] = None,
    ):
        self.pool = pool
        self.version = version
        self._size = size
        self._list = listed
        self.base: Optional[int] = None
        self.removed: Sequence[Seed] = ()
        self.added: Optional[List[Candidate]] = None
        if delta is not None:
            self.base, self.removed, self.added = delta

    def _listed(self) -> List[Candidate]:
        if self._list is None:
            if self.pool._version != self.version:
                raise RuntimeError("candidate set read after its pool advanced")
            self._list = self.pool._raw()
        return self._list

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        return self._listed()[index]

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self._listed())


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
        #: Raw candidates (before dedupe) per domain, keyed by seed
        #: pair.  ``None`` means the next :meth:`candidates` call
        #: re-enumerates.
        self._blocks: Optional[Dict[str, Dict[Seed, Candidate]]] = None
        #: Name → seeds of the raw candidates whose parts mention it.
        self._holders: Dict[str, Set[Seed]] = {}
        #: Current annotation names of each domain, sorted.
        self._members: Dict[str, List[str]] = {}
        self._count = 0
        #: The raw list in fresh-generation order, once built; replaced,
        #: never edited, so handed-out lists stay valid.
        self._ordered: Optional[List[Candidate]] = None
        self._expression: object = None
        #: Bumped by every change of the candidate set.
        self._version = 0
        #: ``(base version, removed parts, added)`` of the last pair-merge
        #: advance, while it is the latest change.
        self._delta: Optional[Tuple[int, List[Seed], List[Candidate]]] = None
        #: Telemetry: steps whose list was maintained vs. re-enumerated.
        self.maintained_steps = 0
        self.rebuilt_steps = 0

    # -- public API --------------------------------------------------------------

    def size(self) -> int:
        """Carried raw candidates (0 when invalidated) -- the resource
        accountant's per-session pool footprint."""
        return 0 if self._blocks is None else self._count

    def _raw(self) -> List[Candidate]:
        """The raw list in fresh-generation order."""
        if self._ordered is None:
            members = self._members
            blocks = self._blocks
            domains = sorted(
                (domain for domain, block in blocks.items() if block),
                key=lambda domain: members[domain][0],
            )
            self._ordered = [
                blocks[domain][seed]
                for domain in domains
                for seed in sorted(blocks[domain])
            ]
        return self._ordered

    def candidates(self, expression) -> CandidateSet:
        """The step's candidate list for ``expression``.

        Identical (candidates and order) to ``enumerate_candidates``;
        re-enumerates from scratch when the pool was invalidated or
        ``expression`` is not the one the pool was advanced to.
        """
        if self._blocks is None or self._expression is not expression:
            self._rebuild(expression)
            self.rebuilt_steps += 1
        else:
            self.maintained_steps += 1
        if self.arity > 2:
            listed = finalize_candidates(self._raw(), self.arity)
            return CandidateSet(self, self._version, len(listed), listed)
        return CandidateSet(
            self, self._version, self._count, self._ordered, self._delta
        )

    def advance(self, parts: Sequence[str], new_name: str, new_expression) -> None:
        """Maintain the pool past the applied merge ``parts → new_name``.

        A failed maintenance is never fatal: the pool is invalidated
        and the next step re-enumerates.
        """
        if self._blocks is None:
            return
        base = self._version
        try:
            removed, added = self._maintain(tuple(parts), new_name, new_expression)
        except Exception:
            self.invalidate()
            return
        self._expression = new_expression
        self._changed()
        if self.arity == 2:
            self._delta = (base, removed, added)

    def invalidate(self) -> None:
        """Drop the carried list (e.g. after reverting a step)."""
        self._blocks = None
        self._expression = None
        self._changed()

    def seed(self, raw: Sequence[Candidate], expression) -> None:
        """Adopt a carried raw list (cross-run repair state)."""
        self._adopt(raw, annotations_by_domain(expression, self.universe))
        self._expression = expression

    def raw_snapshot(self, expression) -> Optional[List[Candidate]]:
        """Copy of the raw list, if it was maintained for ``expression``."""
        if self._blocks is None or self._expression is not expression:
            return None
        return list(self._raw())

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
            invalidated = self._ingest_maintain(new_expression)
        except Exception:
            invalidated = self.size()
            self.invalidate()
            return invalidated
        self._expression = new_expression
        return invalidated

    def _ingest_maintain(self, new_expression) -> int:
        universe = self.universe
        old_names = frozenset(self._expression.annotation_names())
        new_names = frozenset(new_expression.annotation_names())
        added = new_names - old_names
        removed = old_names - new_names
        by_domain = annotations_by_domain(new_expression, universe)
        added_by_domain: dict = {}
        for name in added:
            annotation = universe[name]
            if self.constraint.merges_domain(annotation.domain):
                added_by_domain.setdefault(annotation.domain, []).append(annotation)

        invalidated = 0
        raw: List[Candidate] = []
        for candidate in self._raw():
            seed = candidate.parts[:2]
            domain = universe[seed[0]].domain
            joining = added_by_domain.get(domain, ()) if self.arity > 2 else ()
            if removed.intersection(candidate.parts):
                invalidated += 1
                if removed.intersection(seed):
                    continue
                raw.append(self._repropose(seed, by_domain[domain]))
            elif any(
                self._joins_extension(candidate, annotation) for annotation in joining
            ):
                invalidated += 1
                raw.append(self._repropose(seed, by_domain[domain]))
            else:
                raw.append(candidate)

        for domain, fresh in added_by_domain.items():
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
                    raw.append(candidate)
        self._adopt(raw, by_domain)
        return invalidated

    def child(self, parts: Sequence[str], new_name: str, new_expression) -> "CandidatePool":
        """An advanced copy, leaving this pool untouched (beam search)."""
        twin = CandidatePool(self.universe, self.constraint, arity=self.arity)
        if self._blocks is not None:
            twin._blocks = {
                domain: dict(block) for domain, block in self._blocks.items()
            }
            twin._holders = {
                name: set(seeds) for name, seeds in self._holders.items()
            }
            twin._members = {
                domain: list(names) for domain, names in self._members.items()
            }
            twin._count = self._count
            twin._ordered = self._ordered
            twin._expression = self._expression
        twin.advance(parts, new_name, new_expression)
        return twin

    # -- maintenance -------------------------------------------------------------

    def _changed(self) -> None:
        self._version += 1
        self._ordered = None
        self._delta = None

    def _rebuild(self, expression) -> None:
        by_domain = annotations_by_domain(expression, self.universe)
        blocks = domain_blocks(by_domain, self.constraint, self.arity)
        raw = [candidate for block in blocks.values() for candidate in block]
        self._adopt(raw, by_domain)
        self._expression = expression
        # ``domain_blocks`` generates in fresh-generation order.
        self._ordered = raw

    def _adopt(
        self, raw: Sequence[Candidate], by_domain: Dict[str, List[Annotation]]
    ) -> None:
        """Index a raw list (any order) over ``by_domain``'s annotations."""
        self._changed()
        self._blocks = {}
        self._holders = {}
        self._count = 0
        self._members = {
            domain: [annotation.name for annotation in annotations]
            for domain, annotations in by_domain.items()
        }
        universe = self.universe
        for candidate in raw:
            domain = universe[candidate.parts[0]].domain
            self._insert(self._blocks.setdefault(domain, {}), candidate)

    def _insert(self, block: Dict[Seed, Candidate], candidate: Candidate) -> None:
        seed = candidate.parts[:2]
        block[seed] = candidate
        holders = self._holders
        for name in candidate.parts:
            seeds = holders.get(name)
            if seeds is None:
                holders[name] = {seed}
            else:
                seeds.add(seed)
        self._count += 1

    def _drop(self, block: Dict[Seed, Candidate], seed: Seed) -> Candidate:
        candidate = block.pop(seed)
        holders = self._holders
        for name in candidate.parts:
            seeds = holders.get(name)
            if seeds is not None:
                seeds.discard(seed)
        self._count -= 1
        return candidate

    def _maintain(
        self, merged: Tuple[str, ...], new_name: str, new_expression
    ) -> Tuple[List[Seed], List[Candidate]]:
        """Edit the merged domain past ``merged → new_name``; returns
        the dropped candidates' parts and the added candidates."""
        universe = self.universe
        new_annotation = universe[new_name]
        domain = new_annotation.domain
        names = self._members[domain]
        for name in merged:
            names.remove(name)
        bisect.insort(names, new_name)
        block = self._blocks.setdefault(domain, {})

        merged_set = frozenset(merged)
        touched: Set[Seed] = set()
        for name in merged:
            touched.update(self._holders.pop(name, ()))
        removed: List[Seed] = []
        repropose: List[Seed] = []
        for seed in touched:
            removed.append(self._drop(block, seed).parts)
            if merged_set.isdisjoint(seed):
                # Only extension members merged away: the seed pair is
                # still proposed fresh, with a new greedy extension.
                repropose.append(seed)
        domain_annotations: Sequence[Annotation] = ()
        if self.arity > 2:
            domain_annotations = [universe[name] for name in names]
            for seed, candidate in list(block.items()):
                if self._joins_extension(candidate, new_annotation):
                    removed.append(self._drop(block, seed).parts)
                    repropose.append(seed)

        added: List[Candidate] = []
        for seed in repropose:
            candidate = self._repropose(seed, domain_annotations)
            self._insert(block, candidate)
            added.append(candidate)
        for name in names:
            if name == new_name:
                continue
            first, second = (
                (universe[name], new_annotation)
                if name < new_name
                else (new_annotation, universe[name])
            )
            candidate = propose_candidate(
                first, second, domain_annotations, self.constraint, self.arity
            )
            if candidate is not None:
                self._insert(block, candidate)
                added.append(candidate)
        return removed, added

    def _repropose(
        self, seed: Seed, domain_annotations: Sequence[Annotation]
    ) -> Candidate:
        universe = self.universe
        candidate = propose_candidate(
            universe[seed[0]],
            universe[seed[1]],
            domain_annotations,
            self.constraint,
            self.arity,
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

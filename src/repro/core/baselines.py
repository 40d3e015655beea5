"""Baseline summarizers: Random and Clustering (§6.1).

Both baselines honor the same stop conditions as Algorithm 1
(``TARGET-SIZE``, ``TARGET-DIST``, step budget) and the same semantic
constraints, but choose *which* pair to merge differently:

* :class:`RandomSummarizer` -- every step picks a uniformly random
  constraint-satisfying pair.
* :class:`ClusteringSummarizer` -- precomputes an agglomerative
  hierarchical clustering dendrogram over feature vectors derived from
  the provenance (Pearson-correlation dissimilarity on shared
  ratings/edits, §6.2) and replays its merges in dissimilarity order;
  each cluster merge corresponds to mapping the clusters' annotations
  to a new summary annotation.

Neither baseline looks at the provenance-aware distance when choosing
merges -- that is exactly the thesis's point: optimizing a function of
the summary expression itself (Prov-Approx) beats optimizing feature
similarity (Clustering) or nothing (Random).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..clustering.features import (
    FeatureVector,
    feature_dissimilarity,
    feature_vectors,
)
from ..clustering.hac import AgglomerativeClustering, Merge
from ..provenance.annotations import Annotation
from ..provenance.ddp_expression import DDPExpression
from .candidates import enumerate_candidates
from .distance import DistanceComputer, DistanceEstimate
from .mapping import MappingState
from .problem import SummarizationConfig, SummarizationProblem
from .summarize import StepRecord, SummarizationResult


class _BaselineRunner:
    """Shared stop-condition / bookkeeping scaffolding for baselines."""

    def __init__(self, problem: SummarizationProblem, config: SummarizationConfig):
        self.problem = problem
        self.config = config
        self.rng = random.Random(config.seed)
        self.computer = DistanceComputer(
            problem.expression,
            problem.valuations,
            problem.val_func,
            problem.combiners,
            problem.universe,
            max_enumerate=config.max_enumerate,
            n_samples=config.distance_samples,
            epsilon=config.epsilon,
            delta=config.delta,
            rng=self.rng,
            interner=problem.resolve_interner(),
        )

    def _distance(self, expression, mapping: MappingState) -> DistanceEstimate:
        return self.computer.distance(expression, mapping)

    def _result(
        self,
        original,
        current,
        mapping: MappingState,
        steps: List[StepRecord],
        stop_reason: str,
        started: float,
    ) -> SummarizationResult:
        return SummarizationResult(
            original_expression=original,
            summary_expression=current,
            mapping=mapping,
            universe=self.problem.universe,
            steps=steps,
            stop_reason=stop_reason,
            final_size=current.size(),
            final_distance=self._distance(current, mapping),
            equivalence_merges=0,
            total_seconds=time.perf_counter() - started,
            config=self.config,
        )


class RandomSummarizer(_BaselineRunner):
    """Merge a random constraint-satisfying pair per step (§6.1)."""

    def run(self) -> SummarizationResult:
        problem, config = self.problem, self.config
        started = time.perf_counter()
        original = problem.expression
        mapping = MappingState(sorted(original.annotation_names()))
        current = original
        steps: List[StepRecord] = []
        previous: Optional[Tuple[object, MappingState]] = None
        stop_reason = "exhausted"
        while True:
            # Distance bound first: Algorithm 1 reverts when exceeded.
            if config.target_dist < 1.0:
                distance = self._distance(current, mapping)
                if distance.normalized >= config.target_dist:
                    if previous is not None:
                        current, mapping = previous
                        steps.pop()
                    stop_reason = "target_dist"
                    break
            if current.size() <= config.target_size:
                stop_reason = "target_size"
                break
            if config.max_steps is not None and len(steps) >= config.max_steps:
                stop_reason = "max_steps"
                break
            step_started = time.perf_counter()
            candidates = enumerate_candidates(
                current,
                problem.universe,
                problem.constraint,
                arity=config.merge_arity,
            )
            if not candidates:
                stop_reason = "exhausted"
                break
            chosen = self.rng.choice(candidates)
            parts = [problem.universe[name] for name in chosen.parts]
            summary = problem.universe.new_summary(
                parts, label=chosen.proposal.label, concept=chosen.proposal.concept
            )
            step_mapping = {name: summary.name for name in chosen.parts}
            previous = (current, mapping)
            current = current.apply_mapping(step_mapping)
            mapping = mapping.compose(step_mapping)
            steps.append(
                StepRecord(
                    step=len(steps) + 1,
                    merged=chosen.parts,
                    new_annotation=summary.name,
                    label=chosen.proposal.label,
                    size_after=current.size(),
                    distance_after=None,
                    n_candidates=len(candidates),
                    candidate_seconds=0.0,
                    step_seconds=time.perf_counter() - step_started,
                )
            )
        return self._result(original, current, mapping, steps, stop_reason, started)


@dataclass(frozen=True)
class ClusterDomainSpec:
    """How one annotation domain is clustered.

    ``key_domain`` chooses the sparse-profile key: ``None`` profiles by
    the term's group (users → rated movies), a domain name profiles by
    the co-occurring annotation of that domain (pages → editing users).
    ``dissimilarity`` takes two
    :class:`~repro.clustering.features.FeatureVector` objects; the
    default is the §6.2 measure combining attribute mismatch with the
    Pearson correlation of the ratings profiles.
    """

    domain: str
    key_domain: Optional[str] = None
    dissimilarity: Callable[[FeatureVector, FeatureVector], float] = (
        feature_dissimilarity
    )


class ClusteringSummarizer(_BaselineRunner):
    """Replay a HAC dendrogram as annotation merges (§6.2).

    Feature vectors and the Pearson dissimilarity are derived from the
    provenance expression; the semantic constraints gate which cluster
    pairs may merge.  When several domains are clustered (Wikipedia
    users *and* pages), their dendrograms are interleaved by merge
    dissimilarity.
    """

    def __init__(
        self,
        problem: SummarizationProblem,
        config: SummarizationConfig,
        domain_specs: Sequence[ClusterDomainSpec],
        linkage: str = "single",
    ):
        super().__init__(problem, config)
        if isinstance(problem.expression, DDPExpression):
            raise TypeError(
                "the Clustering baseline is undefined for DDP provenance "
                "(§6.1: no meaningful feature vectors exist)"
            )
        if not domain_specs:
            raise ValueError("at least one ClusterDomainSpec is required")
        self.domain_specs = tuple(domain_specs)
        self.linkage = linkage

    # -- dendrogram construction ------------------------------------------------

    def _merged_representative(self, names: Sequence[str]) -> Annotation:
        """A virtual annotation standing for a cluster of base items."""
        annotations = [self.problem.universe[name] for name in names]
        shared = dict(annotations[0].attributes)
        for annotation in annotations[1:]:
            shared = {
                key: value
                for key, value in shared.items()
                if annotation.attributes.get(key) == value
            }
        concept = None
        taxonomy = self.problem.taxonomy
        if taxonomy is not None:
            concepts = [a.concept for a in annotations if a.concept is not None]
            if len(concepts) == len(annotations):
                concept = taxonomy.lca_of(concepts)
        return Annotation(
            name="?cluster",
            domain=annotations[0].domain,
            attributes=shared,
            concept=concept,
            members=frozenset().union(*(a.base_members() for a in annotations)),
        )

    def _domain_merges(
        self, spec: ClusterDomainSpec
    ) -> List[Tuple[float, Tuple[str, ...], Tuple[str, ...]]]:
        """Dendrogram of one domain as (dissimilarity, cluster_a, cluster_b)."""
        vectors = feature_vectors(
            self.problem.expression,
            self.problem.universe,
            spec.domain,
            key_domain=spec.key_domain,
        )
        if len(vectors) < 2:
            return []
        idents = [vector.ident for vector in vectors]

        def dissimilarity(i: int, j: int) -> float:
            return spec.dissimilarity(vectors[i], vectors[j])

        def allowed(first: FrozenSet[int], second: FrozenSet[int]) -> bool:
            rep_first = self._merged_representative([idents[i] for i in first])
            rep_second = self._merged_representative([idents[i] for i in second])
            return self.problem.constraint.propose(rep_first, rep_second) is not None

        hac = AgglomerativeClustering(
            len(vectors), dissimilarity, linkage=self.linkage, allowed=allowed
        )
        members_of: Dict[int, Tuple[str, ...]] = {
            index: (ident,) for index, ident in enumerate(idents)
        }
        merges = []
        for merge in hac.run(1):
            first = members_of[merge.first]
            second = members_of[merge.second]
            members_of[merge.new] = first + second
            merges.append((merge.dissimilarity, first, second))
        return merges

    # -- replay ------------------------------------------------------------------

    def run(self) -> SummarizationResult:
        problem, config = self.problem, self.config
        started = time.perf_counter()
        original = problem.expression
        mapping = MappingState(sorted(original.annotation_names()))
        current = original

        plan: List[Tuple[float, Tuple[str, ...], Tuple[str, ...]]] = []
        for spec in self.domain_specs:
            plan.extend(self._domain_merges(spec))
        plan.sort(key=lambda entry: entry[0])

        cluster_name: Dict[Tuple[str, ...], str] = {}
        steps: List[StepRecord] = []
        previous: Optional[Tuple[object, MappingState]] = None
        stop_reason = "exhausted"
        for dissimilarity, first, second in plan:
            # Distance bound first: Algorithm 1 reverts when exceeded.
            if config.target_dist < 1.0:
                distance = self._distance(current, mapping)
                if distance.normalized >= config.target_dist:
                    if previous is not None:
                        current, mapping = previous
                        steps.pop()
                    stop_reason = "target_dist"
                    break
            if current.size() <= config.target_size:
                stop_reason = "target_size"
                break
            if config.max_steps is not None and len(steps) >= config.max_steps:
                stop_reason = "max_steps"
                break
            step_started = time.perf_counter()
            name_first = cluster_name.get(first, first[0] if len(first) == 1 else None)
            name_second = cluster_name.get(
                second, second[0] if len(second) == 1 else None
            )
            if name_first is None or name_second is None:
                # The source cluster was never materialized (its own
                # merge was skipped); skip dependent merges too.
                continue
            parts = [problem.universe[name_first], problem.universe[name_second]]
            proposal = problem.constraint.propose(parts[0], parts[1])
            if proposal is None:
                continue
            summary = problem.universe.new_summary(
                parts, label=proposal.label, concept=proposal.concept
            )
            cluster_name[first + second] = summary.name
            step_mapping = {part.name: summary.name for part in parts}
            previous = (current, mapping)
            current = current.apply_mapping(step_mapping)
            mapping = mapping.compose(step_mapping)
            steps.append(
                StepRecord(
                    step=len(steps) + 1,
                    merged=(name_first, name_second),
                    new_annotation=summary.name,
                    label=proposal.label,
                    size_after=current.size(),
                    distance_after=None,
                    n_candidates=len(plan),
                    candidate_seconds=0.0,
                    step_seconds=time.perf_counter() - step_started,
                )
            )
        else:
            stop_reason = "exhausted"
        return self._result(original, current, mapping, steps, stop_reason, started)

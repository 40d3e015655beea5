"""The paper's contribution: approximated provenance summarization.

Public entry points:

* :class:`~repro.core.problem.SummarizationProblem` /
  :class:`~repro.core.problem.SummarizationConfig` -- inputs of
  Algorithm 1.
* :class:`~repro.core.summarize.Summarizer` /
  :func:`~repro.core.summarize.summarize` -- the Prov-Approx
  algorithm.
* :class:`~repro.core.baselines.RandomSummarizer` /
  :class:`~repro.core.baselines.ClusteringSummarizer` -- the §6.1
  competitors.
* :class:`~repro.core.distance.DistanceComputer` -- exact/sampled
  summary-quality distances (Propositions 4.1.1-4.1.2).
* :class:`~repro.core.engine.ScoringEngine` -- serial per-step
  candidate scoring over one carried scorer, with lazy-greedy
  selection under normalized scoring and the naive reference as the
  fallback.
* :class:`~repro.core.sampled_scoring.SampledStepScorer` -- the
  bit-packed Monte-Carlo kernel for classes too large to enumerate
  (``sample_sharing=`` / ``sample_block=`` config knobs).
"""

from .baselines import ClusterDomainSpec, ClusteringSummarizer, RandomSummarizer
from .beam import BeamSummarizer
from .candidates import Candidate, enumerate_candidates, virtual_summary
from .combiners import (
    AND,
    MAXC,
    MINC,
    OR,
    AndCombiner,
    Combiner,
    DomainCombiners,
    MaxCombiner,
    MinCombiner,
    OrCombiner,
)
from .constraints import (
    AllowAll,
    AnyOf,
    DomainConstraints,
    MergeConstraint,
    MergeProposal,
    SharedAttribute,
    TaxonomyAncestor,
)
from .distance import (
    DistanceComputer,
    DistanceEstimate,
    chebyshev_sample_size,
    exhaustive_distance,
)
from .engine import ScoringEngine
from .equivalence import (
    constrained_groups,
    equivalence_classes,
    group_equivalent,
    minimal_zero_distance_summary,
)
from .hardness import (
    dnf_as_provenance,
    dnf_model_count_brute_force,
    dnf_model_count_via_distance,
)
from .influence import annotation_influence, group_influence, rank_influential
from .mapping import MappingState
from .problem import SummarizationConfig, SummarizationProblem
from .sampled_scoring import SampledStepScorer
from .scoring import SCORING_STRATEGIES, ScoredCandidate, score_candidates
from .summarize import StepRecord, SummarizationResult, Summarizer, summarize
from .val_funcs import (
    AbsoluteDifference,
    DDPCostDifference,
    Disagreement,
    EuclideanDistance,
    align_vector,
)

__all__ = [
    "AND",
    "AbsoluteDifference",
    "AllowAll",
    "AndCombiner",
    "AnyOf",
    "BeamSummarizer",
    "Candidate",
    "ClusterDomainSpec",
    "ClusteringSummarizer",
    "Combiner",
    "DDPCostDifference",
    "Disagreement",
    "DistanceComputer",
    "DistanceEstimate",
    "DomainCombiners",
    "DomainConstraints",
    "EuclideanDistance",
    "MAXC",
    "MINC",
    "MappingState",
    "MaxCombiner",
    "MergeConstraint",
    "MergeProposal",
    "MinCombiner",
    "OR",
    "OrCombiner",
    "RandomSummarizer",
    "SCORING_STRATEGIES",
    "SampledStepScorer",
    "ScoredCandidate",
    "ScoringEngine",
    "SharedAttribute",
    "StepRecord",
    "SummarizationConfig",
    "SummarizationProblem",
    "SummarizationResult",
    "Summarizer",
    "TaxonomyAncestor",
    "align_vector",
    "annotation_influence",
    "chebyshev_sample_size",
    "constrained_groups",
    "dnf_as_provenance",
    "dnf_model_count_brute_force",
    "dnf_model_count_via_distance",
    "enumerate_candidates",
    "equivalence_classes",
    "exhaustive_distance",
    "group_equivalent",
    "group_influence",
    "minimal_zero_distance_summary",
    "rank_influential",
    "score_candidates",
    "summarize",
    "virtual_summary",
]

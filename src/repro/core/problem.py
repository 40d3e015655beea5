"""Problem and configuration objects for the summarization algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..provenance.annotations import AnnotationUniverse
from ..provenance.ir import AnnotationInterner
from ..provenance.valuation_classes import ValuationClass
from ..taxonomy.dag import Taxonomy
from .combiners import DomainCombiners
from .constraints import MergeConstraint
from .scoring import SCORING_STRATEGIES


@dataclass
class SummarizationProblem:
    """Everything Algorithm 1 needs besides its tuning knobs.

    Mirrors one row of Table 5.1: the provenance expression and its
    annotation universe, the valuation class ``V_Ann``, the VAL-FUNC,
    the per-domain combiners ``φ``, the semantic merge constraints and
    (optionally) the taxonomy used for tie-breaking.
    """

    expression: object
    universe: AnnotationUniverse
    valuations: ValuationClass
    val_func: object
    combiners: DomainCombiners
    constraint: MergeConstraint
    taxonomy: Optional[Taxonomy] = None
    description: str = ""
    #: Annotation interner shared across runs on this problem (one per
    #: PROX session); ``None`` allocates a fresh one on first use.
    interner: Optional[AnnotationInterner] = None

    def resolve_interner(self) -> AnnotationInterner:
        """The interner runs on this problem key scoring state on: the
        session-provided one when set, else a fresh one kept for later
        runs."""
        if self.interner is None:
            self.interner = AnnotationInterner()
        return self.interner

    def describe(self) -> str:
        """One-paragraph Table 5.1-style description."""
        lines = [
            self.description or "summarization problem",
            f"  expression size: {self.expression.size()}",
            f"  annotations: {len(self.expression.annotation_names())}",
            f"  valuation class: {self.valuations.name} ({len(self.valuations)})",
            f"  VAL-FUNC: {getattr(self.val_func, 'name', type(self.val_func).__name__)}",
            f"  φ combiners: {self.combiners.describe()}",
            f"  constraints: {self.constraint.describe()}",
        ]
        return "\n".join(lines)


#: Engine knobs that no longer exist, with the reason.  Surfaces that
#: take untyped input (the HTTP API) name them in their 400 responses.
REMOVED_FIELDS = {
    "parallelism": "candidate scoring is always serial and in-process",
    "parallel_threshold": "candidate scoring is always serial and in-process",
    "lazy": "lazy-greedy selection is always on under normalized scoring",
    "incremental": "the step scorer is always carried across steps",
    "carry": "the candidate pool and the lazy queue always carry across steps",
    "sample_block": "sampling budgets always round up to 64-draw blocks",
    "sample_sharing": "sampled steps always score against one shared batch",
    "repair": "streaming summary repair is always on",
}

#: The type each checked config field takes, and whether it is
#: ``Optional``.  A ``bool`` is never a number here; ``seconds`` is a
#: number that may also arrive as a numeric string.
_FIELD_KINDS = {
    "w_dist": ("number", False),
    "w_size": ("number", True),
    "target_size": ("integer", False),
    "target_dist": ("number", False),
    "max_steps": ("integer", True),
    "merge_arity": ("integer", False),
    "max_enumerate": ("integer", False),
    "distance_samples": ("integer", True),
    "epsilon": ("number", False),
    "delta": ("number", False),
    "candidate_cap": ("integer", True),
    "seed": ("integer", False),
    "slo_seconds": ("seconds", True),
}


def check_field(label: str, field_name: str, value: object) -> object:
    """``value`` type-checked as config field ``field_name``.

    Returns the value (a numeric ``seconds`` string as a float); raises
    ``ValueError`` naming ``label`` (the field's name on the caller's
    surface) when the type is wrong.
    """
    kind, optional = _FIELD_KINDS[field_name]
    if value is None and optional:
        return value
    expected = "an integer" if kind == "integer" else "a number"
    if kind == "seconds" and isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"{label} must be {expected}, got {value!r}") from None
    wanted = int if kind == "integer" else (int, float)
    if isinstance(value, bool) or not isinstance(value, wanted):
        raise ValueError(f"{label} must be {expected}, got {value!r}")
    return value


@dataclass
class SummarizationConfig:
    """Tuning knobs of Algorithm 1 (§3.2 "Computational problems").

    The three problem flavors map onto the knobs as the thesis
    prescribes:

    1. *weights*: choose ``w_dist`` (``w_size`` defaults to its
       complement), keep ``target_size=1`` / ``target_dist=1.0`` and
       bound ``max_steps``;
    2. *TARGET-SIZE*: set ``w_dist=1``, ``target_dist=1.0``, and the
       desired ``target_size``;
    3. *TARGET-DIST*: set ``w_dist=0``, ``target_size=1``, and the
       desired ``target_dist``.

    Scoring-engine knobs (see :mod:`repro.core.engine`).  Scoring is
    always serial and in-process, over one step scorer and one
    candidate pool (:mod:`repro.core.pool`), both carried across
    steps.  With ``scoring="normalized"`` (the default) each step
    selects its winner through the lazy-greedy queue: candidates keep
    their possibly-stale scores and only entries popped from the head
    are re-scored (sound because stale scores are lower bounds, Prop
    4.2.2).  ``scoring="ordinal"`` measures and ranks every candidate.
    The removed knobs in :data:`REMOVED_FIELDS` raise ``TypeError``.
    Classes too large to enumerate are scored against one shared
    Monte-Carlo batch per step whenever the sampled kernel applies
    (:mod:`repro.core.sampled_scoring`), and every run leaves a
    streaming repair state behind and consumes one passed via
    ``Summarizer(..., repair_from=...)`` (:mod:`repro.core.streaming`);
    repaired output is bit-identical to a from-scratch run (asserted by
    ``tests/core/test_streaming_repair.py``).

    * ``slo_seconds`` -- declared latency SLO for one whole run.  A run
      whose wall-clock ``total_seconds`` exceeds the target counts one
      ``prox_slo_breaches_total{scope="summarize_run"}`` breach (and
      marks the run span) -- observation only, never an abort.  ``None``
      declares no target.
    """

    w_dist: float = 0.5
    w_size: Optional[float] = None
    target_size: int = 1
    target_dist: float = 1.0
    max_steps: Optional[int] = None
    merge_arity: int = 2
    scoring: str = "normalized"
    group_equivalent_first: bool = True
    max_enumerate: int = 512
    distance_samples: Optional[int] = None
    epsilon: float = 0.05
    delta: float = 0.9
    candidate_cap: Optional[int] = None
    seed: int = 0
    slo_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        for name in _FIELD_KINDS:
            setattr(self, name, check_field(name, name, getattr(self, name)))
        if self.slo_seconds is not None:
            self.slo_seconds = float(self.slo_seconds)
            if self.slo_seconds <= 0:
                raise ValueError("slo_seconds must be positive")
        if not 0.0 <= self.w_dist <= 1.0:
            raise ValueError("w_dist must be in [0, 1]")
        if self.w_size is None:
            self.w_size = 1.0 - self.w_dist
        if abs(self.w_dist + self.w_size - 1.0) > 1e-9:
            raise ValueError("w_dist + w_size must equal 1 (Definition 3.2.4)")
        if self.target_size < 1:
            raise ValueError("target_size must be at least 1")
        if not 0.0 <= self.target_dist <= 1.0:
            raise ValueError("target_dist is a normalized distance in [0, 1]")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if self.merge_arity < 2:
            raise ValueError("merge_arity must be at least 2")
        if self.scoring not in SCORING_STRATEGIES:
            raise ValueError(
                f"scoring must be one of {SCORING_STRATEGIES}, got {self.scoring!r}"
            )

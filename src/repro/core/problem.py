"""Problem and configuration objects for the summarization algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

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
}


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

    * ``sample_sharing`` -- bit-packed sampled scoring for valuation
      classes too large to enumerate (see :mod:`repro.core
      .sampled_scoring`).  ``None``/``"auto"`` and ``True``/``"on"``
      score every candidate of a step against one shared Monte-Carlo
      batch (common random numbers) through the bitmask kernel;
      ``False``/``"off"`` restores the reference per-candidate sampler
      (``DistanceComputer.sampled``).
    * ``sample_block`` -- Chebyshev-derived sampling budgets are
      rounded up to a multiple of this (default 64), so the packed
      kernel's 64-bit words are fully populated; explicit
      ``distance_samples`` is always used verbatim.
    * ``slo_seconds`` -- declared latency SLO for one whole run.  A run
      whose wall-clock ``total_seconds`` exceeds the target counts one
      ``prox_slo_breaches_total{scope="summarize_run"}`` breach (and
      marks the run span) -- observation only, never an abort.  ``None``
      declares no target.
    * ``repair`` -- streaming summary repair (see :mod:`repro.core
      .streaming`).  ``None``/``"auto"`` and ``True``/``"on"`` make
      every run capture a repair state (equivalence partition and
      candidate pool) and consume one
      passed via ``Summarizer(..., repair_from=...)``, so a re-run
      after an append-only provenance delta repairs the previous
      summary instead of recomputing it; ``False``/``"off"`` disables
      both.  Repaired output is bit-identical to a from-scratch run
      (asserted by ``tests/core/test_streaming_repair.py``).
    """

    _SWITCH_WORDS = {"auto": None, "on": True, "true": True, "off": False, "false": False}

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
    sample_sharing: Union[bool, str, None] = None
    sample_block: int = 64
    repair: Union[bool, str, None] = None
    slo_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("sample_sharing", "repair"):
            value = getattr(self, name)
            if isinstance(value, str):
                word = value.strip().lower()
                if word not in self._SWITCH_WORDS:
                    raise ValueError(
                        f"{name} must be 'auto', 'on' or 'off', got {value!r}"
                    )
                setattr(self, name, self._SWITCH_WORDS[word])
        if self.slo_seconds is not None:
            self.slo_seconds = float(self.slo_seconds)
            if self.slo_seconds <= 0:
                raise ValueError("slo_seconds must be positive")
        if self.sample_block < 1:
            raise ValueError("sample_block must be at least 1")
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

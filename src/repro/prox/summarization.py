"""PROX summarization service (§7.1, Figure 7.4).

Exposes Algorithm 1 behind the parameter set of the PROX web UI's
summarization view: distance/size weights, distance/size bounds,
number of steps, aggregation function, valuation class and VAL-FUNC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..core.combiners import DomainCombiners
from ..core.problem import SummarizationConfig, SummarizationProblem, check_field
from ..core.streaming import (
    ProvenanceDelta,
    SummaryRepairState,
    extend_valuations,
)
from ..core.summarize import SummarizationResult, Summarizer
from ..core.val_funcs import AbsoluteDifference, Disagreement, EuclideanDistance
from ..datasets.base import DatasetInstance
from ..provenance.monoids import monoid_by_name
from ..provenance.tensor_sum import TensorSum
from ..provenance.valuation import Valuation
from ..provenance.valuation_classes import (
    CancelSingleAnnotation,
    CancelSingleAttribute,
    ValuationClass,
)

#: The VAL-FUNC choices offered by the summarization view.
VAL_FUNCS = {
    "Euclidean Distance": EuclideanDistance,
    "Absolute Difference": AbsoluteDifference,
    "Disagreement": Disagreement,
}

#: The valuation-class choices offered by the summarization view.
VALUATION_CLASSES = ("Cancel Single Annotation", "Cancel Single Attribute")

#: Request field -> the :class:`SummarizationConfig` field it sets.
CONFIG_FIELDS = {
    "distance_weight": "w_dist",
    "size_weight": "w_size",
    "distance_bound": "target_dist",
    "size_bound": "target_size",
    "number_of_steps": "max_steps",
    "slo_seconds": "slo_seconds",
}


@dataclass(frozen=True)
class SummarizationRequest:
    """The Figure 7.4 form: what the user configures before summarizing.

    Engine behaviour is not configurable here: sampled steps always
    share one Monte-Carlo batch, and every run repairs from the
    session's previous run when its state fits.  The removed engine
    knobs (:data:`~repro.core.problem.REMOVED_FIELDS`) raise
    ``TypeError``.
    """

    distance_weight: float = 0.5
    size_weight: Optional[float] = None
    distance_bound: float = 1.0
    size_bound: int = 1
    number_of_steps: Optional[int] = 10
    aggregation: str = "MAX"
    valuation_class: str = "Cancel Single Annotation"
    val_func: str = "Euclidean Distance"
    #: Declared latency SLO for the whole run, in seconds; breaches
    #: count in ``prox_slo_breaches_total{scope="summarize_run"}``.
    slo_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        # Type errors name the request's own field (HTTP answers 400).
        for name in ("aggregation", "valuation_class", "val_func"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        for name, config_name in CONFIG_FIELDS.items():
            check_field(name, config_name, getattr(self, name))

    def to_config(self, seed: int = 0) -> SummarizationConfig:
        return SummarizationConfig(
            seed=seed,
            **{
                config_name: getattr(self, name)
                for name, config_name in CONFIG_FIELDS.items()
            },
        )


class SummarizationService:
    """Summarizes selected provenance with UI-style parameters.

    The service is the session's streaming-repair anchor: every run
    leaves a :class:`~repro.core.streaming.SummaryRepairState` behind,
    and the next run over the *same* request shape consumes it -- so
    after :meth:`record_delta` the summary is repaired, not recomputed
    (:meth:`reset_repair` drops the state, forcing a from-scratch run).
    Valuation *extensions* (spam flags on already-known users)
    accumulate here too: the universe-derived class is rebuilt each
    call and the cumulative extensions re-applied in place, keeping
    labels/positions stable.
    """

    def __init__(self, instance: DatasetInstance):
        self.instance = instance
        #: Repair state left by the previous run, plus the request
        #: shape it was captured under (monoid / class / VAL-FUNC).
        self.repair_state: Optional[SummaryRepairState] = None
        self._repair_key: Optional[tuple] = None
        #: Cumulative valuation-false-set extensions (label → names)
        #: applied to every rebuilt class, and the subset flipped since
        #: the current repair state was captured.
        self._extensions: Dict[str, Set[str]] = {}
        self._pending_flips: Dict[str, Set[str]] = {}
        #: Explicit delta valuations appended after the derived class.
        self._extra_valuations: List[Valuation] = []

    # -- streaming ingest --------------------------------------------------------

    def record_delta(self, delta: ProvenanceDelta) -> None:
        """Fold one ingested delta into the repair bookkeeping."""
        for label, names in delta.extend_valuations.items():
            fresh = set(names)
            known = self._extensions.setdefault(label, set())
            flipped = fresh - known
            known.update(fresh)
            if flipped:
                self._pending_flips.setdefault(label, set()).update(flipped)
        self._extra_valuations.extend(delta.valuations)

    def reset_repair(self) -> None:
        """Drop the carried repair state (e.g. the selection changed)."""
        self.repair_state = None
        self._repair_key = None
        self._pending_flips = {}

    def pool_size(self) -> int:
        """Carried step-0 candidate-pool entries (resource accounting)."""
        state = self.repair_state
        if state is None or state.pool_raw is None:
            return 0
        return len(state.pool_raw)

    def _apply_extensions(self, valuations: ValuationClass) -> ValuationClass:
        """The class with cumulative extensions and extra valuations
        (:func:`~repro.core.streaming.extend_valuations`), so the
        previous run's labels stay a prefix of this run's."""
        return extend_valuations(
            valuations,
            ProvenanceDelta(
                valuations=self._extra_valuations,
                extend_valuations={
                    label: sorted(names)
                    for label, names in self._extensions.items()
                },
            ),
        )

    def build_problem(
        self,
        selected: TensorSum,
        request: SummarizationRequest = SummarizationRequest(),
    ) -> SummarizationProblem:
        """The :class:`SummarizationProblem` a request resolves to.

        Factored out of :meth:`summarize` so callers can drive other
        summarizers (e.g. :class:`~repro.core.beam.BeamSummarizer`)
        over exactly the session's problem -- the snapshot/restore
        differential suite relies on this.
        """
        monoid = monoid_by_name(request.aggregation)
        expression = TensorSum(selected.terms, monoid)
        if request.valuation_class == "Cancel Single Annotation":
            valuations = CancelSingleAnnotation(
                self.instance.universe, domains=("user",)
            )
        elif request.valuation_class == "Cancel Single Attribute":
            valuations = CancelSingleAttribute(
                self.instance.universe, domains=("user",)
            )
        else:
            raise ValueError(
                f"unknown valuation class {request.valuation_class!r}; "
                f"expected one of {VALUATION_CLASSES}"
            )
        valuations = self._apply_extensions(valuations)
        try:
            val_func = VAL_FUNCS[request.val_func](monoid)
        except KeyError:
            raise ValueError(
                f"unknown VAL-FUNC {request.val_func!r}; expected one of "
                f"{sorted(VAL_FUNCS)}"
            ) from None
        return SummarizationProblem(
            expression=expression,
            universe=self.instance.universe,
            valuations=valuations,
            val_func=val_func,
            combiners=self.instance.combiners,
            constraint=self.instance.constraint,
            taxonomy=self.instance.taxonomy,
            description=f"PROX selection of {len(expression.groups())} movies",
        )

    def summarize(
        self,
        selected: TensorSum,
        request: SummarizationRequest = SummarizationRequest(),
        seed: int = 0,
    ) -> SummarizationResult:
        """Run Algorithm 1 on ``selected`` provenance.

        The aggregation / valuation class / VAL-FUNC dropdowns override
        the instance defaults.
        """
        problem = self.build_problem(selected, request)
        # A carried repair state is only sound for the request shape it
        # was captured under -- a different monoid / class / VAL-FUNC
        # (or seed: RNG streams must replay) recomputes from scratch.
        key = (
            request.aggregation,
            request.valuation_class,
            request.val_func,
            seed,
        )
        repair_from = self.repair_state if key == self._repair_key else None
        flipped = {
            label: tuple(sorted(names))
            for label, names in self._pending_flips.items()
        }
        summarizer = Summarizer(
            problem,
            request.to_config(seed),
            repair_from=repair_from,
            flipped=flipped if repair_from is not None else None,
        )
        result = summarizer.run()
        self.repair_state = result.repair_state
        self._repair_key = key
        self._pending_flips = {}
        return result

"""Distance between a provenance expression and its summary (Ch. 4.1).

``DIST-COMP`` -- computing the exact distance with respect to *all*
truth valuations -- is #P-hard (Proposition 4.1.1, by reduction from
#DNF).  The thesis therefore restricts the valuation set to an input
class ``V_Ann`` and/or approximates by sampling (Proposition 4.1.2):
each sample draws a valuation, evaluates both expressions, feeds the
results to the VAL-FUNC and averages; Chebyshev's inequality bounds
the convergence rate.

:class:`DistanceComputer` packages the machinery used on Algorithm 1's
hot path: it owns the original expression's evaluation per valuation
(valuations are reused across thousands of candidate scorings) and
decides between exact enumeration (small classes) and sampling.  The
step scorers read that evaluation column-major
(:meth:`DistanceComputer.original_columns`): one ``array('d')`` per
original group, position ``i`` holding the group's finalized value
under the ``i``-th valuation, built in one pass from per-annotation
truth rows instead of one ``evaluate`` per valuation.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..observability import metrics as _metrics
from ..provenance.annotations import AnnotationUniverse
from ..provenance.tensor_sum import TensorSum
from ..provenance.valuation import Valuation
from ..provenance.valuation_classes import ValuationClass
from .combiners import DomainCombiners
from .mapping import MappingState
from .val_funcs import VectorValFunc

_DISTANCE_CALLS = _metrics.counter(
    "prox_distance_calls_total",
    "Distance computations, by evaluation mode.",
    labelnames=("mode",),
)
_DISTANCE_SAMPLES = _metrics.counter(
    "prox_distance_samples_total",
    "Valuations drawn for sampled distance approximations.",
)
_DISTANCE_VARIANCE = _metrics.gauge(
    "prox_distance_sample_variance",
    "Sample variance of the most recent sampled distance estimate.",
)

#: Chebyshev-derived sampling budgets are rounded up to a multiple of
#: this, so the bit-packed sampled scorer's 64-bit words fill fully.
SAMPLE_BLOCK = 64


def chebyshev_sample_size(epsilon: float, delta: float, spread: float = 1.0) -> int:
    """Samples needed so that ``Prob(|d' - d| > ε) < 1 - δ``.

    The estimator averages i.i.d. VAL-FUNC values bounded in
    ``[0, spread]``, so their variance is at most ``spread² / 4``
    (Popoviciu) and Chebyshev gives
    ``Prob(|d' - d| > ε) ≤ spread² / (4 n ε²)``.
    """
    if not 0 < epsilon:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    alpha = 1.0 - delta
    return max(1, math.ceil(spread * spread / (4.0 * alpha * epsilon * epsilon)))


@dataclass(frozen=True)
class DistanceEstimate:
    """Result of a distance computation.

    ``value`` is the raw average VAL-FUNC value; ``normalized`` divides
    by the maximum possible error (the quantity the thesis plots,
    §6.3).  ``exact`` records whether the class was fully enumerated or
    sampled (``n_valuations`` valuations either way).
    """

    value: float
    normalized: float
    n_valuations: int
    exact: bool

    def __float__(self) -> float:
        return self.normalized


@dataclass
class DistanceStats:
    """Telemetry of one computer's lifetime (§6.3's sampling effort).

    ``last_sample_variance`` is the *achieved* spread of the most
    recent sampled estimate -- compare against the Chebyshev worst case
    ``spread²/4`` the (ε, δ) budget assumed.
    """

    exact_calls: int = 0
    sampled_calls: int = 0
    samples_drawn: int = 0
    last_sample_size: int = 0
    last_sample_variance: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "exact_calls": self.exact_calls,
            "sampled_calls": self.sampled_calls,
            "samples_drawn": self.samples_drawn,
            "last_sample_size": self.last_sample_size,
            "last_sample_variance": self.last_sample_variance,
        }


class DistanceComputer:
    """Distance of candidate summaries from a fixed original expression.

    Parameters
    ----------
    original:
        The original expression ``p0`` (a
        :class:`~repro.provenance.tensor_sum.TensorSum` or
        :class:`~repro.provenance.ddp_expression.DDPExpression`).
    valuations:
        The class ``V_Ann`` of truth valuations over base annotations.
    val_func:
        The VAL-FUNC (callable ``(orig_result, summary_result,
        alignment) -> float`` with a ``max_error(expression)`` method).
    combiners:
        The per-domain ``φ`` functions lifting valuations.
    universe:
        Annotation registry (for summary membership lookups).
    max_enumerate:
        Classes up to this size are enumerated exactly; larger ones
        are sampled.
    n_samples / epsilon / delta:
        Sampling budget: explicit count, or the Chebyshev bound for
        ``(ε, δ)`` when ``n_samples`` is None.
    rng:
        Source of randomness for sampling (deterministic by default).
    """

    def __init__(
        self,
        original,
        valuations: ValuationClass,
        val_func,
        combiners: DomainCombiners,
        universe: AnnotationUniverse,
        max_enumerate: int = 512,
        n_samples: Optional[int] = None,
        epsilon: float = 0.05,
        delta: float = 0.9,
        rng: Optional[random.Random] = None,
    ):
        self.original = original
        self.valuations = valuations
        self.val_func = val_func
        self.combiners = combiners
        self.universe = universe
        self.max_enumerate = max_enumerate
        self.n_samples = n_samples
        self.epsilon = epsilon
        self.delta = delta
        self.rng = rng if rng is not None else random.Random(0)
        self._original_cache: Dict[int, object] = {}
        self._sample_cache: Dict[object, object] = {}
        self._groups: Optional[List[Tuple]] = None
        self._class_columns: Optional[Dict[Optional[str], array]] = None
        if isinstance(original, TensorSum) and isinstance(val_func, VectorValFunc):
            full = {group: value for group, value, _ in self._original_groups()}
            self._max_error = float(val_func.max_error_of(full))
        else:
            self._max_error = float(val_func.max_error(original))
        #: Lifetime telemetry (exact/sampled calls, samples, variance).
        self.stats = DistanceStats()

    @property
    def max_error(self) -> float:
        """The normalization bound (maximum possible VAL-FUNC value)."""
        return self._max_error

    # -- evaluation helpers -----------------------------------------------------

    def _original_result(self, index: int, valuation: Valuation):
        cached = self._original_cache.get(index)
        if cached is None:
            cached = self.original.evaluate(valuation.false_set())
            self._original_cache[index] = cached
        return cached

    def _original_for(self, valuation: Valuation):
        """Original's evaluation under a *drawn* valuation.

        Sampling has no stable enumeration index to key on, so the
        cache keys on the valuation's false set instead.  Drawn
        valuations repeat -- within a batch (sampling with replacement)
        and across candidates (the class yields the same members) -- so
        this persists for the computer's lifetime, exactly like the
        index-keyed cache the exact path uses.
        """
        false_set = valuation.false_set()
        cached = self._sample_cache.get(false_set)
        if cached is None:
            cached = self.original.evaluate(false_set)
            self._sample_cache[false_set] = cached
        return cached

    def _original_groups(self) -> List[Tuple]:
        """The original's groups in first-appearance order (built once).

        Each entry is ``(group, full value, terms)``: the group's
        finalized value with every annotation true, and its terms in
        expression order as ``(value, count, annotations, guards, dead
        when all true)``.
        """
        if self._groups is not None:
            return self._groups
        members: Dict[Optional[str], List[Tuple]] = {}
        for term in self.original.terms:
            # With every annotation true only a guard can kill a term.
            dead = any(guard.dead_bits(0, 1) for guard in term.guards)
            members.setdefault(term.group, []).append(
                (term.value, term.count, term.annotations, term.guards, dead)
            )
        monoid = self.original.monoid
        self._groups = [
            (group, _fold_finalized(monoid, [t for t in terms if not t[4]]), terms)
            for group, terms in members.items()
        ]
        return self._groups

    def original_columns(
        self, valuations: Optional[Sequence[Valuation]] = None
    ) -> Dict[Optional[str], array]:
        """The original's finalized value per group at every position.

        Returns one ``array('d')`` column per original group, in the
        original's group order; entry ``i`` equals
        ``original.evaluate(valuations[i].false_set())[group]
        .finalized_value()`` bit for bit.  ``valuations`` defaults to
        the whole class, whose columns are built once per computer; a
        sampled batch passes its draws, repeated members included.
        The columns are shared: treat them as read-only.

        One pass: a truth row per annotation (bit ``i`` set ⇔ false
        under ``valuations[i]``), a dead row per term, and per group
        the all-true value except where some term's aliveness differs
        from the all-true case.  There the group's alive terms refold
        forward in expression order, the fold ``evaluate`` runs.
        """
        if valuations is None:
            if self._class_columns is None:
                self._class_columns = self._build_columns(list(self.valuations))
            return self._class_columns
        return self._build_columns(valuations)

    def _build_columns(
        self, valuations: Sequence[Valuation]
    ) -> Dict[Optional[str], array]:
        n_vals = len(valuations)
        full = (1 << n_vals) - 1
        false_rows: Dict[str, int] = {}
        for index, valuation in enumerate(valuations):
            for name in valuation.false_set():
                false_rows[name] = false_rows.get(name, 0) | 1 << index
        row = false_rows.get
        monoid = self.original.monoid
        columns: Dict[Optional[str], array] = {}
        for group, full_value, terms in self._original_groups():
            dead_rows: List[int] = []
            refold = 0
            for _, _, names, guards, dead_when_true in terms:
                dead = 0
                for name in names:
                    dead |= row(name, 0)
                for guard in guards:
                    union = 0
                    for name in guard.annotations:
                        union |= row(name, 0)
                    dead |= guard.dead_bits(union, full)
                dead_rows.append(dead)
                refold |= (dead ^ full) if dead_when_true else dead
            column = array("d", [full_value]) * n_vals
            while refold:
                low = refold & -refold
                refold ^= low
                alive = [term for term, dead in zip(terms, dead_rows) if not dead & low]
                column[low.bit_length() - 1] = _fold_finalized(monoid, alive)
            columns[group] = column
        return columns

    def _summary_result(
        self, summary, valuation: Valuation, mapping: MappingState, universe=None
    ):
        lifted_false = self.combiners.lifted_false_set(
            valuation, mapping, universe if universe is not None else self.universe
        )
        return summary.evaluate(lifted_false)

    def _normalize(self, value: float) -> float:
        if self._max_error <= 0:
            return 0.0
        return min(1.0, value / self._max_error)

    def sample_budget(self) -> int:
        """Valuations one sampled estimate draws (Prop. 4.1.2 budget).

        An explicit ``n_samples`` wins verbatim.  Otherwise the
        Chebyshev ``(ε, δ)`` bound is computed with the VAL-FUNC's
        actual spread: per-sample values are bounded by ``max_error``,
        so when that bound is tighter than the worst-case 1.0 the
        budget shrinks quadratically (spreads above 1.0 are capped --
        ``ε`` and every consumer of the estimate live on the normalized
        scale, where per-sample values are bounded by 1).  The derived
        budget is then rounded up to a :data:`SAMPLE_BLOCK` multiple so the
        bit-packed scorer's 64-bit words are fully populated.  Both
        paths clamp at ``16 × |V_Ann|``, past which enumeration is
        cheaper than sampling.
        """
        if self.n_samples is not None:
            samples = self.n_samples
        else:
            spread = (
                self._max_error if 0.0 < self._max_error < 1.0 else 1.0
            )
            samples = chebyshev_sample_size(self.epsilon, self.delta, spread=spread)
            samples = -(-samples // SAMPLE_BLOCK) * SAMPLE_BLOCK
        return max(1, min(samples, 16 * max(1, len(self.valuations))))

    # -- public API -----------------------------------------------------------------

    def distance(
        self, summary, mapping: MappingState, universe=None
    ) -> DistanceEstimate:
        """Distance of ``summary = h(p0)`` from ``p0`` over ``V_Ann``.

        Enumerates the class exactly when it is small enough, otherwise
        samples per Proposition 4.1.2.  ``universe`` optionally overlays
        the computer's universe (candidate scoring passes a view that
        also contains the candidate's virtual summary annotation).
        """
        if len(self.valuations) <= self.max_enumerate:
            return self.exact(summary, mapping, universe)
        return self.sampled(summary, mapping, universe)

    def exact(self, summary, mapping: MappingState, universe=None) -> DistanceEstimate:
        """Exact average over the (enumerable) valuation class."""
        total = 0.0
        total_weight = 0.0
        for index, valuation in enumerate(self.valuations):
            original_result = self._original_result(index, valuation)
            summary_result = self._summary_result(summary, valuation, mapping, universe)
            total += valuation.weight * self.val_func(
                original_result, summary_result, mapping
            )
            total_weight += valuation.weight
        value = total / total_weight if total_weight else 0.0
        self.stats.exact_calls += 1
        if _metrics.ENABLED:
            _DISTANCE_CALLS.inc(mode="exact")
        return DistanceEstimate(
            value=value,
            normalized=self._normalize(value),
            n_valuations=len(self.valuations),
            exact=True,
        )

    def sampled(self, summary, mapping: MappingState, universe=None) -> DistanceEstimate:
        """Sampling approximation of the distance (Proposition 4.1.2).

        Draws valuations uniformly from the class; ``SuccCounter``
        accumulates weighted VAL-FUNC values and the estimate is
        ``SuccCounter / SampleCounter``.
        """
        samples = self.sample_budget()
        succ = 0.0
        weight_sum = 0.0
        weighted_sumsq = 0.0
        for _ in range(samples):
            valuation = self.valuations.sample(self.rng)
            original_result = self._original_for(valuation)
            summary_result = self._summary_result(summary, valuation, mapping, universe)
            sampled_value = self.val_func(original_result, summary_result, mapping)
            succ += valuation.weight * sampled_value
            weight_sum += valuation.weight
            weighted_sumsq += valuation.weight * sampled_value * sampled_value
        value = succ / weight_sum if weight_sum else 0.0
        # Weight-normalized second moment around the weighted mean: the
        # estimator is SuccCounter / SampleCounter (both weighted), so
        # its spread must track the same weighting -- an unweighted
        # variance understates heavy valuations' contribution.
        variance = (
            max(0.0, weighted_sumsq / weight_sum - value * value)
            if weight_sum
            else 0.0
        )
        stats = self.stats
        stats.sampled_calls += 1
        stats.samples_drawn += samples
        stats.last_sample_size = samples
        stats.last_sample_variance = variance
        if _metrics.ENABLED:
            _DISTANCE_CALLS.inc(mode="sampled")
            _DISTANCE_SAMPLES.inc(samples)
            _DISTANCE_VARIANCE.set(variance)
        return DistanceEstimate(
            value=value,
            normalized=self._normalize(value),
            n_valuations=samples,
            exact=False,
        )


def _fold_finalized(monoid, terms: Sequence[Tuple]) -> float:
    """``fold_counted`` of ``(value, count, ...)`` entries, finalized.

    The same operations in the same order as
    :meth:`~repro.provenance.tensor_sum.TensorSum.evaluate` followed by
    ``finalized_value()``: an empty (or zero-count) fold and an
    infinite value finalize to 0.0.
    """
    value = monoid.identity
    count = 0
    for entry in terms:
        value = monoid.combine(value, entry[0])
        count += entry[1]
    if count == 0 or math.isinf(value):
        return 0.0
    return value


def exhaustive_distance(
    original,
    summary,
    mapping: MappingState,
    val_func,
    combiners: DomainCombiners,
    universe: AnnotationUniverse,
    max_annotations: int = 16,
) -> float:
    """``DIST-COMP`` over *all* ``2^n`` truth valuations (normalized).

    This is the #P-hard quantity of Proposition 4.1.1; it is only
    feasible for tiny expressions and exists to validate the sampling
    approximation in tests and the sampling-budget ablation bench.
    """
    names = sorted(original.annotation_names())
    if len(names) > max_annotations:
        raise ValueError(
            f"exhaustive enumeration over {len(names)} annotations would need "
            f"2^{len(names)} valuations; limit is 2^{max_annotations}"
        )
    total = 0.0
    count = 0
    max_error = float(val_func.max_error(original))
    for mask in range(2 ** len(names)):
        cancelled = frozenset(
            name for bit, name in enumerate(names) if not (mask >> bit) & 1
        )
        valuation = Valuation({name: 0.0 for name in cancelled})
        original_result = original.evaluate(cancelled)
        lifted = combiners.lifted_false_set(valuation, mapping, universe)
        summary_result = summary.evaluate(lifted)
        total += val_func(original_result, summary_result, mapping)
        count += 1
    value = total / count
    if max_error <= 0:
        return 0.0
    return min(1.0, value / max_error)

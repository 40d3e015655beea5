"""The PROX session facade -- the three web-UI views as a Python API.

Chapter 7's system is a Java/Spring + AngularJS web application; its
value is the workflow it exposes, not the HTTP plumbing (DESIGN.md).
:class:`ProxSession` drives the same loop:

1. **Selection view** -- choose movies by title or genre/year
   (:meth:`select_titles`, :meth:`select_by`);
2. **Summarization view** -- configure and run Algorithm 1
   (:meth:`summarize`);
3. **Summary view** -- inspect the result as an expression
   (:meth:`expression_view`) or as groups with their member attributes
   and aggregates (:meth:`groups_view`), and provision hypothetical
   scenarios (:meth:`evaluate`), comparing original and summary
   answers with their evaluation times.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.problem import REMOVED_FIELDS
from ..core.streaming import ProvenanceDelta, apply_delta
from ..core.summarize import SummarizationResult
from ..datasets.base import DatasetInstance
from ..datasets.movielens import MovieLensConfig, generate_movielens
from ..observability import metrics as _metrics
from ..observability import resources as _resources
from ..observability import tracing as _tracing
from ..provenance.tensor_sum import TensorSum
from .evaluator import EvaluationOutcome, EvaluatorService
from .selection import SelectionService
from .summarization import SummarizationRequest, SummarizationService

#: What replaying a snapshot whose contents do not describe a session
#: raises (a missing key, a wrong type, an unknown title or event).
_MALFORMED = (
    LookupError, TypeError, ValueError, AttributeError, ArithmeticError, RuntimeError
)

_INGEST_DELTAS = _metrics.counter(
    "prox_ingest_deltas_total",
    "Streaming provenance deltas ingested into PROX sessions.",
)


def _recipe_for(instance: Optional[DatasetInstance], seed: int) -> Optional[Dict]:
    """A JSON-able regeneration recipe for the session's instance.

    The dataset generators are fully seeded (regenerating is exact --
    see :mod:`repro.datasets.base`), so a snapshot stores the recipe
    plus the session's event log instead of the object graph.  Returns
    ``None`` for instances without a recoverable config: such sessions
    still serve, but cannot be snapshot-evicted.
    """
    if instance is None:
        return {
            "kind": "movielens",
            "config": asdict(MovieLensConfig(include_movie_merges=True, seed=seed)),
        }
    config = instance.metadata.get("config")
    if isinstance(config, MovieLensConfig):
        return {"kind": "movielens", "config": asdict(config)}
    return None


def _instance_from_recipe(recipe: Mapping[str, Any]) -> DatasetInstance:
    """Regenerate a dataset instance from its snapshot recipe."""
    if recipe.get("kind") != "movielens":
        raise ValueError(f"unknown snapshot recipe kind {recipe.get('kind')!r}")
    config = dict(recipe["config"])
    if "constraint_attributes" in config:
        config["constraint_attributes"] = tuple(config["constraint_attributes"])
    return generate_movielens(MovieLensConfig(**config))


@dataclass
class GroupView:
    """One card of the groups view (Figures 7.5-7.7)."""

    annotation: str
    size: int
    members: Tuple[str, ...]
    shared_attributes: Mapping[str, object]
    aggregated: Mapping[str, float]


class ProxSession:
    """One user's PROX session over a provenance instance."""

    def __init__(
        self,
        instance: Optional[DatasetInstance] = None,
        seed: int = 0,
        session_id: Optional[str] = None,
    ):
        recipe = _recipe_for(instance, seed)
        if instance is None:
            instance = generate_movielens(
                MovieLensConfig(include_movie_merges=True, seed=seed)
            )
        self.instance = instance
        self.selection = SelectionService(instance)
        self.summarization = SummarizationService(instance)
        self.evaluator = EvaluatorService(instance)
        self.selected: Optional[TensorSum] = None
        self.result: Optional[SummarizationResult] = None
        #: Streaming deltas applied so far (mirrors the metric counter).
        self.ingested_deltas = 0
        #: Regeneration recipe + replayable event log: together they
        #: make the session snapshotable (``snapshot``/``restore``).
        self._recipe = recipe
        self._events: List[Tuple[str, object]] = []
        self._replaying = False
        self._pending_summarize: Optional[Tuple[Dict[str, object], int]] = None
        self._last_summarize: Optional[Tuple[Dict[str, object], int]] = None
        #: Per-session resource account (``GET /sessions/<id>/stats``,
        #: ``prox_session_*`` gauges, eviction advisor).  Automatically
        #: unregistered when the session is garbage collected.
        self.account = _resources.REGISTRY.register(session_id)
        self._finalizer = weakref.finalize(
            self, _resources.REGISTRY.unregister, self.account.session_id
        )

    @property
    def session_id(self) -> str:
        return self.account.session_id

    def close(self) -> None:
        """Unregister the session's resource account (idempotent)."""
        self._finalizer()

    # -- selection view -------------------------------------------------------

    def titles(self, search: Optional[str] = None) -> Sequence[str]:
        if search:
            return self.selection.search_titles(search)
        return self.selection.available_titles()

    def select_titles(self, titles: Sequence[str]) -> int:
        """Select provenance by movie titles; returns its size."""
        self.selected = self.selection.by_titles(titles)
        self.result = None
        self.summarization.reset_repair()
        self._record_event("select_titles", list(titles))
        self.account.record_select(self.selected.size())
        return self.selected.size()

    def select_by(
        self,
        genre: Optional[str] = None,
        year: Optional[int] = None,
        decade: Optional[str] = None,
    ) -> int:
        """Select provenance by genre/year; returns its size."""
        self.selected = self.selection.by_attributes(genre, year, decade)
        self.result = None
        self.summarization.reset_repair()
        self._record_event(
            "select_by", {"genre": genre, "year": year, "decade": decade}
        )
        self.account.record_select(self.selected.size())
        return self.selected.size()

    # -- streaming ingest ------------------------------------------------------

    def ingest(self, delta: ProvenanceDelta) -> Dict[str, object]:
        """Apply one append-only provenance delta to the live session.

        New annotations are registered into the instance universe, new
        terms extend the current selection, and valuation changes are recorded so the next :meth:`summarize`
        *repairs* the previous summary instead of recomputing it.
        Raises if no provenance is selected, on annotation name
        collisions, or when a term or valuation extension references an
        unknown annotation.
        """
        if self.selected is None:
            raise RuntimeError("select provenance first (selection view)")
        with _tracing.span("ingest") as span:
            universe = self.instance.universe
            for annotation in delta.annotations:
                universe.register(annotation)
            for term in delta.terms:
                for name in term.annotations:
                    if name not in universe:
                        raise KeyError(
                            f"delta term references unknown annotation {name!r}"
                        )
            for label, names in delta.extend_valuations.items():
                for name in names:
                    if name not in universe:
                        raise KeyError(
                            f"valuation extension {label!r} references "
                            f"unknown annotation {name!r}"
                        )
            self.selected = apply_delta(self.selected, delta)
            self.summarization.record_delta(delta)
            self.result = None
            self.ingested_deltas += 1
            if _metrics.ENABLED:
                _INGEST_DELTAS.inc()
            if span is not _tracing.NULL_SPAN:
                span.set("annotations", len(delta.annotations))
                span.set("terms", len(delta.terms))
                span.set("extended_valuations", len(delta.extend_valuations))
                span.set("selected_size", self.selected.size())
        if not self._replaying:
            from .. import serialization as _serialization

            self._record_event("ingest", _serialization.delta_to_dict(delta))
        self.account.record_ingest(selected_size=self.selected.size())
        return {
            "annotations": len(delta.annotations),
            "terms": len(delta.terms),
            "valuations": len(delta.valuations),
            "extended_valuations": len(delta.extend_valuations),
            "selected_size": self.selected.size(),
            "ingested_deltas": self.ingested_deltas,
        }

    # -- summarization view ------------------------------------------------------

    def summarize(
        self, request: SummarizationRequest = SummarizationRequest(), seed: int = 0
    ) -> SummarizationResult:
        """Summarize the selection (the summarization view, Figure 7.4).

        Returns the stored result itself when neither the input (no
        select or ingest since: both clear it) nor the request and seed
        changed.  Otherwise repairs the previous run's summary when a
        delta was ingested since and the request shape is unchanged,
        else computes from scratch; both give bit-identical output.
        Raises if no provenance is selected.
        """
        if self.selected is None:
            raise RuntimeError("select provenance first (selection view)")
        if self.result is not None and (asdict(request), seed) == self._last_summarize:
            self.account.touch()
            return self.result
        self.result = self.summarization.summarize(self.selected, request, seed)
        self._last_summarize = (asdict(request), seed)
        self._pending_summarize = None
        self.account.record_summarize(
            seconds=self.result.total_seconds,
            annotations=len(self.instance.universe),
            pool_candidates=self.summarization.pool_size(),
            summary_size=self.result.final_size,
            repaired=self.result.repaired,
            repair_invalidated=self.result.repair_invalidated,
        )
        return self.result

    # -- summary view ---------------------------------------------------------------

    def expression_view(self) -> str:
        """The summary in polynomial form with its size (Figure 7.8)."""
        result = self._require_result()
        return (
            f"{result.summary_expression}\n"
            f"Provenance Size: {result.final_size}"
        )

    def groups_view(self) -> List[GroupView]:
        """The groups the algorithm chose to map together (Figure 7.5)."""
        result = self._require_result()
        universe = result.universe
        summary_groups = result.summary_groups()
        expression = result.summary_expression
        # One pass each: the finalized aggregate per group, in vector
        # order, and the groups of the terms naming each summary.
        finalized = {
            group: aggregate.finalized_value()
            for group, aggregate in expression.full_vector().items()
        }
        rank = {group: position for position, group in enumerate(finalized)}
        groups_of: Dict[str, set] = {name: set() for name in summary_groups}
        for term in expression.terms:
            for name in term.annotations:
                groups = groups_of.get(name)
                if groups is not None:
                    groups.add(term.group)
        views: List[GroupView] = []
        for name, members in sorted(summary_groups.items()):
            annotation = universe[name]
            aggregated: Dict[str, float] = {}
            for group in sorted(groups_of[name], key=rank.__getitem__):
                aggregated[str(group)] = finalized[group]
            views.append(
                GroupView(
                    annotation=name,
                    size=len(members),
                    members=members,
                    shared_attributes=dict(annotation.attributes),
                    aggregated=aggregated,
                )
            )
        return views

    def explain(self, title: str) -> str:
        """Why does ``title`` have its current rating? (witness view)

        Uses the selected provenance; reports the aggregate, its
        witnesses with their attributes, and which annotations are
        pivotal (discarding them changes the answer).
        """
        from ..provenance.explanations import explain as explain_group

        if self.selected is None:
            raise RuntimeError("select provenance first (selection view)")
        if title not in set(self.selected.groups()):
            raise KeyError(f"{title!r} is not in the current selection")
        return explain_group(self.selected, title, self.instance.universe)

    def evaluate(
        self,
        false_annotations: Sequence[str] = (),
        false_attributes: Optional[Mapping[str, object]] = None,
    ) -> Tuple[EvaluationOutcome, EvaluationOutcome]:
        """Provision a scenario on both expressions (Figures 7.9-7.10).

        Returns ``(original_outcome, summary_outcome)`` so callers can
        compare answers and evaluation times.
        """
        result = self._require_result()
        if self.selected is None:
            raise RuntimeError("no selection active")
        original = self.evaluator.evaluate_original(
            self.selected, false_annotations, false_attributes
        )
        summary = self.evaluator.evaluate_summary(
            result, false_annotations, false_attributes
        )
        return original, summary

    def _require_result(self) -> SummarizationResult:
        if self.result is None and self._pending_summarize is not None:
            request_dict, seed = self._pending_summarize
            self.summarize(SummarizationRequest(**request_dict), seed)
        if self.result is None:
            raise RuntimeError("summarize first (summarization view)")
        return self.result

    # -- snapshot / restore ---------------------------------------------------

    def _record_event(self, kind: str, payload: object) -> None:
        if not self._replaying:
            self._events.append((kind, payload))

    def can_snapshot(self) -> bool:
        """Whether this session can be snapshot-evicted.

        Requires a regeneration recipe for the instance (ad-hoc
        instances passed in without a generator config cannot be
        rebuilt from disk).
        """
        return self._recipe is not None

    def snapshot(self, path: str) -> Dict[str, object]:
        """Write the session to ``path`` as a PROXSN01 snapshot.

        The snapshot stores the dataset recipe, the replayable event
        log (selections + ingested deltas) and the last summarize
        request.  Summarization results
        and repair state are deliberately dropped: repaired and
        from-scratch runs are bit-identical, so the restored session
        recomputes them deterministically.
        """
        if not self.can_snapshot():
            raise RuntimeError(
                "session instance has no regeneration recipe; cannot snapshot"
            )
        from .. import serialization as _serialization

        last = self._last_summarize or self._pending_summarize
        meta = {
            "version": 1,
            "session_id": self.session_id,
            "recipe": self._recipe,
            "events": [[kind, payload] for kind, payload in self._events],
            "last_summarize": (
                [last[0], last[1]] if last is not None else None
            ),
            "ingested_deltas": self.ingested_deltas,
        }
        _serialization.write_session_snapshot(path, meta)
        return {"path": path, "bytes": os.path.getsize(path)}

    @classmethod
    def restore(cls, path: str, session_id: Optional[str] = None) -> "ProxSession":
        """Rehydrate a session from a snapshot written by :meth:`snapshot`.

        Regenerates the instance from its recipe and replays the event
        log.  A snapshot
        whose bytes or contents do not describe a session raises
        :class:`~repro.serialization.SerializationError`.
        """
        from .. import serialization as _serialization

        def malformed(error: Exception) -> Exception:
            return _serialization.SerializationError(
                f"malformed session snapshot {path}: {error}"
            )

        meta = _serialization.load_session_snapshot(path)
        try:
            instance = _instance_from_recipe(meta["recipe"])
            events = [(kind, payload) for kind, payload in meta.get("events", [])]
            pending = None
            last = meta.get("last_summarize")
            if last is not None:
                # Re-run lazily on the next touch that needs a result, so
                # rehydration stays cheap for sessions only being listed.
                # Snapshots written before an engine knob was removed still
                # carry it, so drop it.  Most never changed results; a
                # recorded sample_sharing="off" did (independent
                # per-candidate draws), and such a snapshot re-runs with
                # the shared batch.
                request = {
                    key: value
                    for key, value in dict(last[0]).items()
                    if key not in REMOVED_FIELDS
                }
                SummarizationRequest(**request)  # reject it now, not later
                pending = (request, int(last[1]))
        except _MALFORMED as error:
            raise malformed(error) from error
        session = cls(instance, session_id=session_id or meta.get("session_id"))
        session._replaying = True
        try:
            for kind, payload in events:
                if kind == "select_titles":
                    session.select_titles(payload)
                elif kind == "select_by":
                    session.select_by(**payload)
                elif kind == "ingest":
                    session.ingest(_serialization.delta_from_dict(payload))
                else:
                    raise ValueError(f"unknown snapshot event {kind!r}")
        except _MALFORMED as error:
            session.close()
            raise malformed(error) from error
        finally:
            session._replaying = False
        session._events = events
        session._pending_summarize = pending
        return session

"""Semantic constraints on which annotations may be merged (§3.2).

A summary is useless if it identifies unrelated annotations, so the
thesis restricts the candidate homomorphisms:

* only annotations from the *same input table / domain* may map to the
  same summary annotation (enforced structurally: constraints are
  dispatched per domain and never fire across domains);
* annotations must *share an attribute value* (gender, age group,
  occupation, ... -- :class:`SharedAttribute`), which also yields a
  meaningful display name for the summary annotation;
* or they must share a *taxonomy ancestor*
  (:class:`TaxonomyAncestor`), the new annotation being named by the
  lowest common ancestor concept -- this is the Wikipedia pages rule.

A successful check returns a :class:`MergeProposal` carrying the label
and concept of the would-be summary annotation plus the taxonomy cost
used for tie-breaking.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..provenance.annotations import Annotation
from ..taxonomy.dag import Taxonomy
from ..taxonomy.wu_palmer import group_distance

#: An attribute the annotation does not have (``None`` is a value).
_MISSING = object()

#: Value types whose equal values always print alike, so one proposal
#: per ``(attribute, type, value)`` can be shared.  Equal values of
#: different types (``1``, ``True``) differ in the key; floats are left
#: out, since ``0.0 == -0.0`` prints two labels.
_SHAREABLE = frozenset({str, int, bool, type(None)})


@dataclass(frozen=True)
class MergeProposal:
    """What the summary annotation of a permitted merge would look like.

    ``taxonomy_cost`` is the Wu-Palmer distance of the merge (0 when no
    taxonomy is involved); Algorithm 1 uses it to break candidate-score
    ties.
    """

    label: str
    concept: Optional[str] = None
    taxonomy_cost: float = 0.0


class MergeConstraint(ABC):
    """Decides whether two (same-domain) annotations may merge."""

    @abstractmethod
    def propose(self, first: Annotation, second: Annotation) -> Optional[MergeProposal]:
        """Return a proposal if the merge is allowed, else ``None``."""

    def describe(self) -> str:
        """Table 5.1-style description of the constraint."""
        return type(self).__name__

    def merges_domain(self, domain: str) -> bool:
        """Whether :meth:`propose` may accept a pair from ``domain``.

        ``False`` promises that every same-domain pair is rejected, so
        candidate enumeration and the equivalence grouping can skip the
        domain without asking.
        """
        return True


class AllowAll(MergeConstraint):
    """No semantic restriction (used by unconstrained ablations)."""

    def propose(self, first: Annotation, second: Annotation) -> Optional[MergeProposal]:
        return MergeProposal(label=f"{first.name}+{second.name}")

    def describe(self) -> str:
        return "unconstrained"


class SharedAttribute(MergeConstraint):
    """Annotations must agree on at least one of the given attributes.

    ``attributes`` lists the attributes that count (Table 5.1 MovieLens:
    gender, age range, occupation, zip code); ``None`` means any shared
    attribute qualifies.  The proposal label names the first shared
    attribute in the configured order, e.g. ``"Gender=F"`` -- this is
    the meaningful name §3.2 asks for.
    """

    def __init__(self, attributes: Optional[Sequence[str]] = None):
        self.attributes = tuple(attributes) if attributes is not None else None
        #: Shared proposals by ``(attribute, value type, value)``:
        #: proposals are frozen, and the label is all they carry.
        self._proposals: Dict[Tuple, MergeProposal] = {}

    def propose(self, first: Annotation, second: Annotation) -> Optional[MergeProposal]:
        if self.attributes is None:
            shared = first.shared_attributes(second)
            if not shared:
                return None
            attribute = min(shared)
            return self._proposal(attribute, shared[attribute])
        first_attributes = first.attributes
        second_attributes = second.attributes
        for attribute in self.attributes:
            value = first_attributes.get(attribute, _MISSING)
            if value is _MISSING:
                continue
            other = second_attributes.get(attribute, _MISSING)
            if other is not _MISSING and other == value:
                return self._proposal(attribute, value)
        return None

    def _proposal(self, attribute: str, value: object) -> MergeProposal:
        """The proposal labelled ``attribute=value``, shared when the
        value's type prints equal values alike."""
        kind = type(value)
        if kind not in _SHAREABLE:
            return MergeProposal(label=f"{attribute}={value}")
        key = (attribute, kind, value)
        proposal = self._proposals.get(key)
        if proposal is None:
            proposal = self._proposals[key] = MergeProposal(
                label=f"{attribute}={value}"
            )
        return proposal

    def describe(self) -> str:
        if self.attributes is None:
            return "share any attribute"
        return "share one of: " + ", ".join(self.attributes)


class TaxonomyAncestor(MergeConstraint):
    """Annotations' concepts must share a taxonomy ancestor.

    The proposal's concept (and label) is the lowest common ancestor;
    ``max_distance`` optionally rejects merges whose Wu-Palmer distance
    exceeds the bound (so users are not merged into ``wordnet_entity``).
    ``taxonomy_cost`` is the MAX (or SUM, per ``tiebreak_mode``) of the
    Wu-Palmer distances from the members to the LCA, as used for
    tie-breaking (§4.2: "the MAX (or SUM) of these distances").
    """

    def __init__(
        self,
        taxonomy: Taxonomy,
        max_distance: Optional[float] = None,
        tiebreak_mode: str = "max",
    ):
        if tiebreak_mode not in ("max", "sum"):
            raise ValueError("tiebreak_mode must be 'max' or 'sum'")
        self.taxonomy = taxonomy
        self.max_distance = max_distance
        self.tiebreak_mode = tiebreak_mode
        #: Outcome per concept pair with a common ancestor.  Computing
        #: the cost queries depths, which freezes the taxonomy, so a
        #: stored outcome never goes stale.
        self._outcomes: Dict[Tuple[str, str], Optional[MergeProposal]] = {}

    def propose(self, first: Annotation, second: Annotation) -> Optional[MergeProposal]:
        concepts = (first.concept, second.concept)
        outcome = self._outcomes.get(concepts, _MISSING)
        if outcome is not _MISSING:
            return outcome
        if concepts[0] is None or concepts[1] is None:
            return None
        if concepts[0] not in self.taxonomy or concepts[1] not in self.taxonomy:
            return None
        ancestor = self.taxonomy.lca(*concepts)
        if ancestor is None:
            return None
        cost = group_distance(
            self.taxonomy, concepts, ancestor, mode=self.tiebreak_mode
        )
        proposal: Optional[MergeProposal] = None
        if self.max_distance is None or cost <= self.max_distance:
            proposal = MergeProposal(label=ancestor, concept=ancestor, taxonomy_cost=cost)
        self._outcomes[concepts] = proposal
        return proposal

    def describe(self) -> str:
        bound = (
            f" within Wu-Palmer distance {self.max_distance}"
            if self.max_distance is not None
            else ""
        )
        return f"share a taxonomy ancestor{bound}"


class AnyOf(MergeConstraint):
    """Disjunction of constraints; the first that allows the merge wins."""

    def __init__(self, constraints: Sequence[MergeConstraint]):
        if not constraints:
            raise ValueError("AnyOf requires at least one constraint")
        self.constraints = tuple(constraints)

    def propose(self, first: Annotation, second: Annotation) -> Optional[MergeProposal]:
        for constraint in self.constraints:
            proposal = constraint.propose(first, second)
            if proposal is not None:
                return proposal
        return None

    def describe(self) -> str:
        return " or ".join(c.describe() for c in self.constraints)


class DomainConstraints(MergeConstraint):
    """Per-domain dispatch; domains without a constraint never merge.

    This encodes both Table 5.1's per-dataset merge rules and the
    implicit same-input-table restriction: annotations from different
    domains are always rejected.
    """

    def __init__(self, per_domain: Mapping[str, MergeConstraint]):
        self.per_domain = dict(per_domain)

    def propose(self, first: Annotation, second: Annotation) -> Optional[MergeProposal]:
        if first.domain != second.domain:
            return None
        constraint = self.per_domain.get(first.domain)
        if constraint is None:
            return None
        return constraint.propose(first, second)

    def describe(self) -> str:
        return "; ".join(
            f"{domain}: {constraint.describe()}"
            for domain, constraint in sorted(self.per_domain.items())
        )

    def mergeable_domains(self) -> Sequence[str]:
        return tuple(sorted(self.per_domain))

    def merges_domain(self, domain: str) -> bool:
        return domain in self.per_domain
